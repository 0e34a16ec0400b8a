"""Independent verification of the rules against a B-spline oracle.

Two checks live here, deliberately decoupled from the rule construction
code:

* spline exactness - tile a rule over ``COPIES`` periods, build the
  matching uniform spline space (integer breakpoints, knot multiplicity
  D - c, with the class c taken from the rule's family) and compare the
  quadrature of every interior basis function with the exact
  knot-difference integral (t_{i+D+1} - t_i) / (D + 1);
* golden regression - positional comparison against the checked-in
  25-digit reference tables.

Boundary-truncated basis functions are excluded from the exactness
check: the rules are built for the unbounded periodic line, so splines
cut off by the ends of the replicated span are legitimately missed.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .assembly import ScaledRule, replicate_periodically

# periods check_exactness tiles a rule over
COPIES = 6


class EntryCountMismatch(Exception):
    """Generated rule and reference table disagree on the number of entries."""


@dataclass(frozen=True)
class KnotVector:
    """Uniform spline space on integer breakpoints 0..num_spans.

    Interior breakpoints carry multiplicity degree - continuity, the ends
    are clamped (multiplicity degree + 1), so the basis is a full
    partition of unity on [0, num_spans]."""

    degree: int
    num_spans: int
    knots: tuple

    @property
    def num_basis(self) -> int:
        return len(self.knots) - self.degree - 1


def make_knot_vector(degree: int, continuity: int, num_spans: int) -> KnotVector:
    if not 0 <= continuity < degree:
        raise ValueError("need 0 <= continuity < degree")
    mult = degree - continuity
    knots = [0] * (degree + 1)
    for b in range(1, num_spans):
        knots.extend([b] * mult)
    knots.extend([num_spans] * (degree + 1))
    return KnotVector(degree, num_spans, tuple(knots))


def _find_span(kv: KnotVector, x) -> int:
    """Index s with knots[s] <= x < knots[s+1] (last nonempty span at x = M)."""
    if x >= kv.num_spans:
        x = kv.num_spans
        s = len(kv.knots) - kv.degree - 2
        while kv.knots[s] == kv.knots[s + 1]:
            s -= 1
        return s
    return bisect_right(kv.knots, x) - 1


def _basis_values(kv: KnotVector, span: int, x):
    """Values of the degree+1 basis functions that are nonzero on the span.

    Standard triangular Cox-de Boor scheme; returns values for indices
    span-degree .. span."""
    knots = kv.knots
    values = [1.0]
    left = []
    right = []
    for j in range(1, kv.degree + 1):
        left.append(x - knots[span + 1 - j])
        right.append(knots[span + j] - x)
        saved = 0.0
        nxt = []
        for r in range(j):
            tmp = values[r] / (right[r] + left[j - 1 - r])
            nxt.append(saved + right[r] * tmp)
            saved = left[j - 1 - r] * tmp
        nxt.append(saved)
        values = nxt
    return values


def eval_bspline(kv: KnotVector, i: int, x) -> float:
    """Value of the i-th normalized B-spline; 0 outside its support."""
    if not 0 <= i < kv.num_basis:
        raise IndexError(f"basis index {i} out of range 0..{kv.num_basis - 1}")
    if x < kv.knots[i] or x > kv.knots[i + kv.degree + 1]:
        return 0.0
    span = _find_span(kv, x)
    if i < span - kv.degree or i > span:
        return 0.0
    return _basis_values(kv, span, x)[i - span + kv.degree]


def exact_bspline_integral(kv: KnotVector, i: int) -> Fraction:
    """Exact integral of the i-th basis function: (t_{i+D+1} - t_i) / (D + 1)."""
    if not 0 <= i < kv.num_basis:
        raise IndexError(f"basis index {i} out of range 0..{kv.num_basis - 1}")
    return Fraction(kv.knots[i + kv.degree + 1] - kv.knots[i], kv.degree + 1)


@dataclass(frozen=True)
class ExactnessReport:
    family: object
    n: int
    degree: int
    max_abs_error: float
    worst_basis_index: int
    tested_basis_count: int


def check_exactness(rule: ScaledRule, degree: int | None = None) -> ExactnessReport:
    """Quadrature error of the rule tiled over ``COPIES`` periods, over
    every interior B-spline.

    The spline space has the rule's smoothness class and, by default,
    its exactness degree; passing degree = rule.degree + 1 provides the
    negative control showing the rule is sharp.  Interior means the
    basis support keeps a margin of one breakpoint from both ends of the
    replicated span.
    """
    if degree is None:
        degree = rule.degree
    span_count = COPIES * rule.period_intervals
    kv = make_knot_vector(degree, rule.family.smoothness, span_count)
    sums = [0.0] * kv.num_basis
    for x, w in replicate_periodically(rule, COPIES):
        x = float(x)
        w = float(w)
        span = _find_span(kv, x)
        for r, v in enumerate(_basis_values(kv, span, x)):
            sums[span - degree + r] += w * v
    max_err = -1.0
    worst = -1
    tested = 0
    for i in range(kv.num_basis):
        if kv.knots[i] < 1 or kv.knots[i + degree + 1] > span_count - 1:
            continue
        tested += 1
        err = abs(sums[i] - float(exact_bspline_integral(kv, i)))
        if err > max_err:
            max_err, worst = err, i
    return ExactnessReport(
        family=rule.family, n=rule.n, degree=degree,
        max_abs_error=max_err, worst_basis_index=worst,
        tested_basis_count=tested,
    )


@dataclass(frozen=True)
class GoldenRule:
    """One reference table: 25-digit decimal strings, split per interval."""

    rule_id: str
    smoothness: int
    degree: int
    variant: str
    intervals: tuple  # tuple of tuples of (x_str, w_str)

    @property
    def entries(self):
        return tuple(e for iv in self.intervals for e in iv)


def load_golden_tables() -> dict:
    """All reference tables from the packaged data file, keyed by id."""
    raw = json.loads(
        resources.files("splinequad.data").joinpath("golden.json").read_text()
    )
    tables = {}
    for rid, rec in raw.items():
        tables[rid] = GoldenRule(
            rule_id=rid,
            smoothness=rec["class"],
            degree=rec["degree"],
            variant=rec["variant"],
            intervals=tuple(
                tuple((x, w) for x, w in iv) for iv in rec["intervals"]
            ),
        )
    return tables


def compare_golden(rule: ScaledRule, golden: GoldenRule) -> float:
    """Max positional deviation (nodes and weights) against a reference table."""
    gen = [(x, w) for iv in rule.intervals for x, w in zip(iv.nodes, iv.weights)]
    ref = golden.entries
    if len(gen) != len(ref):
        raise EntryCountMismatch(
            f"{golden.rule_id}: generated {len(gen)} entries, reference has {len(ref)}"
        )
    dev = 0.0
    for (x, w), (xs, ws) in zip(gen, ref):
        dev = max(dev, abs(float(x) - float(xs)), abs(float(w) - float(ws)))
    return dev
