"""Independent verification of the rules against a B-spline oracle.

Two checks live here, deliberately decoupled from the rule construction
code:

* spline exactness - tile a rule over ``COPIES`` periods, build the
  matching uniform spline space (integer breakpoints, knot multiplicity
  D - c, with the class c taken from the rule's family) and compare the
  quadrature of every interior basis function with the exact
  knot-difference integral (t_{i+D+1} - t_i) / (D + 1).  The basis is
  evaluated one way, one knot span at a time: the tiled nodes are sorted,
  so the nodes in a span form one run, and the Cox-de Boor triangle runs
  on an array of that run, giving the D + 1 basis values nonzero on the
  span at each of its nodes.  The weighted values are added per basis
  function in node order, so every sum is, to the bit, the one a loop
  over the nodes would make.  Only one span's nodes are held at a time:
  the arrays stay m x (D + 1) for the m nodes of a span;
* golden regression - positional comparison against the checked-in
  25-digit reference tables.

Boundary-truncated basis functions are excluded from the exactness
check: the rules are built for the unbounded periodic line, so splines
cut off by the ends of the replicated span are legitimately missed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .assembly import ScaledRule, replicate_periodically
from .catalog import family_for, rule_id
from .families import Family

# periods check_exactness tiles a rule over
COPIES = 6


class EntryCountMismatch(Exception):
    """Generated rule and reference table disagree on the number of entries."""


@dataclass(frozen=True)
class KnotVector:
    """Uniform spline space on integer breakpoints 0..knots[-1].

    Interior breakpoints carry multiplicity degree - continuity, the ends
    are clamped (multiplicity degree + 1), so the basis is a full
    partition of unity on [0, knots[-1]]."""

    degree: int
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
    return KnotVector(degree, tuple(knots))


def _find_spans(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """Per point of x, the index s with knots[s] <= x < knots[s+1].  At
    the clamped right end x = knots[-1], where no such s exists, the last
    nonempty span, s = num_basis - 1."""
    spans = np.searchsorted(kv.knots, x, side="right") - 1
    return np.minimum(spans, kv.num_basis - 1)


def _span_basis(kv: KnotVector, span: int, x: np.ndarray) -> np.ndarray:
    """Values of the degree+1 basis functions that are nonzero on the span,
    at every point of x (all of them in that span): row k holds the values
    at x[k] for indices span-degree .. span.

    Standard triangular Cox-de Boor scheme, run on all points at once.
    Each row goes through the operations of the scalar triangle, in its
    order, so a row is bit-identical to the scalar values at its point."""
    degree = kv.degree
    knots = np.asarray(kv.knots, dtype=float)
    x = x[:, None]
    left = x - knots[span:span - degree:-1]  # left[:, j-1] = x - t[span+1-j]
    right = knots[span + 1:span + degree + 1] - x  # right[:, j-1] = t[span+j] - x
    values = np.zeros((len(x), degree + 1))
    values[:, 0] = 1.0
    for j in range(1, degree + 1):
        # tmp[r] = values[r] / (right[r] + left[j-1-r]) for r < j; the new
        # values[r] = saved[r] + right[r] * tmp[r] (r < j) and values[j] =
        # saved[j], with saved[0] = 0 and saved[r] = left[j-r] * tmp[r-1]
        flipped = left[:, j - 1::-1]
        tmp = values[:, :j] / (right[:, :j] + flipped)
        values[:, 1:j + 1] = flipped * tmp
        values[:, 0] = 0.0
        values[:, :j] += right[:, :j] * tmp
    return values


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

    The tiled nodes are grouped by knot span, one ``searchsorted`` for
    all of them; per span, the basis values at its nodes come from one
    array Cox-de Boor triangle, and ``w * B`` is added into the per-basis
    sums node by node, in node order, with ``np.add.at``.

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
    x, w = (np.array(v, dtype=float)
            for v in zip(*replicate_periodically(rule, COPIES)))
    spans = _find_spans(kv, x)
    starts = np.flatnonzero(np.diff(spans, prepend=-1))  # x is sorted
    sums = np.zeros(kv.num_basis)
    for a, b in zip(starts, np.append(starts[1:], len(x))):
        span = int(spans[a])
        terms = w[a:b, None] * _span_basis(kv, span, x[a:b])
        basis = np.arange(span - degree, span + 1)
        np.add.at(sums, np.broadcast_to(basis, terms.shape), terms)
    max_err = -1.0
    worst = -1
    tested = 0
    for i, total in enumerate(sums.tolist()):
        if kv.knots[i] < 1 or kv.knots[i + degree + 1] > span_count - 1:
            continue
        tested += 1
        err = abs(total - float(exact_bspline_integral(kv, i)))
        if err > max_err:
            max_err, worst = err, i
    return ExactnessReport(
        family=rule.family, n=rule.n, degree=degree,
        max_abs_error=max_err, worst_basis_index=worst,
        tested_basis_count=tested,
    )


@dataclass(frozen=True)
class GoldenRule:
    """One reference table, for the rule (family, n) it names: 25-digit
    decimal strings, split per interval."""

    rule_id: str
    family: Family
    n: int
    intervals: tuple  # tuple of tuples of (x_str, w_str)

    @property
    def entries(self):
        return tuple(e for iv in self.intervals for e in iv)


def load_golden_tables() -> dict:
    """All reference tables from the packaged data file, keyed by id.

    Each record's class, degree and variant are resolved to its family
    and n once, here; a record whose key is not the catalog id of that
    rule raises ValueError."""
    raw = json.loads(
        resources.files("splinequad.data").joinpath("golden.json").read_text()
    )
    tables = {}
    for rid, rec in raw.items():
        family, n = family_for(rec["class"], rec["degree"], rec["variant"])
        if rule_id(family, n) != rid:
            raise ValueError(f"reference table {rid} holds the rule "
                             f"{rule_id(family, n)}")
        tables[rid] = GoldenRule(
            rule_id=rid,
            family=family,
            n=n,
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
