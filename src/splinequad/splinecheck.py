"""Independent verification of the rules against a B-spline oracle.

Two checks live here, deliberately decoupled from the rule construction
code:

* spline exactness - tile a rule over ``COPIES`` periods, state the
  matching uniform spline space as one float knot array (integer
  breakpoints, knot multiplicity D - c, with the class c taken from the
  rule's family) and compare the quadrature of every interior basis
  function with the exact knot-difference integral
  (t_{i+D+1} - t_i) / (D + 1), all of them in one array expression.
  The tiling is a loop over the unit cells [t, t+1] of the replicated
  span: a scaled rule holds interval k's nodes ascending in [k, k+1], so
  cell t holds interval t mod P's nodes, shifted by t - (t mod P), and
  its knot span is the last knot equal to t, D + t (D - c), with no
  search.  The Cox-de Boor triangle runs on the array of a cell's
  nodes, giving the D + 1 basis values nonzero on the span at each of
  them.  The weighted values are added per basis function, cells
  ascending and nodes ascending within a cell, so every sum is, to the
  bit, the one a loop over the sorted tiled nodes would make (no rule
  has a node on the right end k+1 of its cell).  Only one cell's nodes
  are held at a time: the arrays stay m x (D + 1) for the m nodes of an
  interval;
* golden regression - positional comparison against the checked-in
  25-digit reference tables.

Both checks fail closed: a NaN weight or node gives a NaN error in
both, never a smaller one.  The exactness check also evaluates a node
that lies outside its interval's cell [k, k+1] as NaN, rather than in a
neighbouring span.  Boundary-truncated basis functions are excluded from
the exactness check: the rules are built for the unbounded periodic
line, so splines cut off by the ends of the replicated span are
legitimately missed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .assembly import ScaledRule
from .catalog import family_for, rule_id
from .families import Family, is_integer

# periods check_exactness tiles a rule over
COPIES = 6


class EntryCountMismatch(Exception):
    """Generated rule and reference table disagree on the number of entries."""


def _knots(degree: int, continuity: int, span_count: int) -> np.ndarray:
    """Clamped uniform knots on the integer breakpoints 0..span_count:
    interior breakpoints carry multiplicity degree - continuity, the ends
    degree + 1, so the basis is a partition of unity on [0, span_count]."""
    mult = np.full(span_count + 1, degree - continuity)
    mult[[0, -1]] = degree + 1
    return np.repeat(np.arange(span_count + 1.0), mult)


def _span_basis(knots: np.ndarray, degree: int, span: int,
                x: np.ndarray) -> np.ndarray:
    """Values of the degree+1 basis functions that are nonzero on the span,
    at every point of x (all of them in that span): row k holds the values
    at x[k] for indices span-degree .. span.

    Standard triangular Cox-de Boor scheme, run on all points at once.
    Each row goes through the operations of the scalar triangle, in its
    order, so a row is bit-identical to the scalar values at its point."""
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

    One pass over the ``COPIES * P`` unit cells of the P-interval rule:
    cell t takes interval t mod P's nodes, shifted into [t, t+1], and
    its knot span D + t (D - c); the basis values at those nodes come
    from one array Cox-de Boor triangle, and ``w * B`` is added into the
    per-basis sums node by node, in node order, with ``np.add.at``.
    A node that is NaN or outside its interval's cell [k, k+1] is
    evaluated as NaN.  Basis i
    integrates exactly to (t_{i+D+1} - t_i) / (D + 1): small integers
    divided once, so the float is the correctly rounded exact value.

    The spline space has the rule's smoothness class and, by default,
    its exactness degree; passing degree = rule.degree + 1 provides the
    negative control showing the rule is sharp.  A degree that is not an
    integer, is a bool or is not above the smoothness class raises
    ValueError.  Interior means the basis support keeps a margin of one
    breakpoint from both ends of the replicated span.  The worst basis is the first of the largest errors; a NaN
    error counts as the largest, so a NaN weight, a NaN node or a node
    outside its cell reports a NaN ``max_abs_error``.
    """
    if degree is None:
        degree = rule.degree
    continuity = rule.family.smoothness
    if not is_integer(degree):
        raise ValueError(f"degree {degree!r} is not an integer")
    if degree <= continuity:
        raise ValueError(f"degree {degree} is not above the smoothness "
                         f"class C{continuity}")
    span_count = COPIES * rule.period_intervals
    knots = _knots(degree, continuity, span_count)
    num_basis = len(knots) - degree - 1
    # copies as float64: the rule's arrays are read-only, and NaN goes into these
    cells = [(k, np.array(iv.nodes, dtype=float), np.array(iv.weights, dtype=float)[:, None])
             for k, iv in enumerate(rule.intervals)]
    for k, x, _ in cells:
        x[~((x >= k) & (x <= k + 1))] = np.nan  # a NaN node, or one outside [k, k + 1]
    sums = np.zeros(num_basis)
    for t, (k, x, w) in enumerate(cells * COPIES):  # unit cell t is [t, t + 1]
        span = degree + t * (degree - continuity)  # the last knot equal to t
        terms = w * _span_basis(knots, degree, span, x + (t - k))
        basis = np.arange(span - degree, span + 1)
        np.add.at(sums, np.broadcast_to(basis, terms.shape), terms)
    first, last = knots[:num_basis], knots[degree + 1:]
    tested = np.flatnonzero((first >= 1) & (last <= span_count - 1))
    errors = np.abs(sums - (last - first) / (degree + 1))[tested]
    worst = int(np.argmax(errors))
    return ExactnessReport(
        family=rule.family, n=rule.n, degree=degree,
        max_abs_error=float(errors[worst]),
        worst_basis_index=int(tested[worst]),
        tested_basis_count=len(tested),
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
    """Max positional deviation (nodes and weights) against a reference
    table; NaN if any node or weight is NaN."""
    gen = np.concatenate([np.column_stack((iv.nodes, iv.weights))
                          for iv in rule.intervals]).astype(float)
    ref = [(float(x), float(w)) for x, w in golden.entries]
    if len(gen) != len(ref):
        raise EntryCountMismatch(
            f"{golden.rule_id}: generated {len(gen)} entries, reference has {len(ref)}"
        )
    return float(np.abs(np.subtract(gen, ref)).max())
