"""Turn family construction data into concrete quadrature rules.

Nodes come from the root finder (plus any fixed endpoint node); weights
come straight from the closed-form denominators A / (R'(x) S(x) f(x)),
never from solving a linear system.  Two presentations are produced:

* :class:`ReferenceRule` - nodes in [-1, 1] per interval of the period,
  the coordinates in which the formulas are stated;
* :class:`ScaledRule` - interval k mapped to [k, k+1] with weights
  halved, the presentation used by the reference tables, file output and
  the exactness checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .doubledouble import DD
from .families import (
    FACTOR_C1_ENDPOINT,
    FACTOR_C1_EVEN,
    FACTOR_ONE,
    Family,
    FamilySpec,
)
from .gegenbauer import eval_combo
from .rootfind import CountMismatch, PolishFailed, isolate_and_refine


class DegenerateWeight(Exception):
    """A weight denominator vanished; impossible for a valid family spec."""


@dataclass(frozen=True)
class RuleInterval:
    nodes: tuple
    weights: tuple


@dataclass(frozen=True)
class ReferenceRule:
    family: Family
    n: int
    degree: int
    intervals: tuple
    delta: object = 0


@dataclass(frozen=True)
class ScaledRule:
    family: Family
    n: int
    degree: int
    intervals: tuple
    delta: object = 0

    @property
    def period_intervals(self) -> int:
        return len(self.intervals)


# products only, no powers: they also evaluate on double-double arrays
_EXTRA_FACTORS = {
    FACTOR_ONE: lambda x: 1,
    FACTOR_C1_ENDPOINT: lambda x: (1 - x * x) * (1 - x * x),
    FACTOR_C1_EVEN: lambda x: (1 + x) * ((1 - x) * (1 - x)),
}


def _mpf(value):
    """An int, Fraction or mpf as an mpf at the working precision."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _free_double(iv) -> tuple:
    """Free nodes and weights of one interval, rounded to double.

    The roots are isolated and refined in double on the float combo.  The
    weight A / (R'(x) S(x) f(x)) is so sensitive to x near +-1 that even
    the double root (within about an ulp, 1.3e-16 at most for n <= 200)
    changes it by up to 1.3e-9 relative at n = 80 and 1.9e-7 at n = 200,
    and S cancels there too.  So the rest runs in double-double on all
    roots at once: one Newton step from the double roots, then R' and S
    at the polished nodes, and a single rounding of each node and weight
    at the end.
    """
    roots = isolate_and_refine(iv.r, -1, 1, iv.expected_free_nodes).roots
    r, s = iv.r.map(DD.of), iv.s.map(DD.of)
    x = DD(np.array(roots))
    rval, rder = eval_combo(r, x)
    x = x - rval / rder
    _, rder = eval_combo(r, x)
    sval, _ = eval_combo(s, x)
    denom = rder * sval * _EXTRA_FACTORS[iv.extra_weight_factor](x)
    bad = ~np.isfinite(denom.hi) | (np.abs(denom.hi) <= 1e-300)
    if bad.any():
        raise DegenerateWeight(f"denominator ~ 0 at x={x.hi[bad][0]}")
    return x.rounded().tolist(), (DD.of(iv.a) / denom).rounded().tolist()


def _free_extended(iv) -> tuple:
    """Free nodes and weights of one interval at the working precision."""
    roots = isolate_and_refine(
        iv.r, -1, 1, iv.expected_free_nodes, extended=True).roots
    extra = _EXTRA_FACTORS[iv.extra_weight_factor]
    weights = []
    for x in roots:
        _, rder = eval_combo(iv.r, x)
        sval, _ = eval_combo(iv.s, x)
        denom = rder * sval * extra(x)
        if not abs(denom) > 1e-300:
            raise DegenerateWeight(f"denominator ~ 0 at x={x}")
        # a is exact (int or Fraction), so it enters unrounded
        weights.append(iv.a.numerator / (iv.a.denominator * denom))
    return roots, weights


def assemble(spec: FamilySpec, extended: bool = False) -> ReferenceRule:
    """Compute nodes and weights for every interval of the spec's period.

    Nodes and weights are floats, or mpf values at the working precision
    when ``extended`` is set.  Fixed endpoint nodes keep their closed-form
    weights and are listed first (they sit at the interval's left end).
    For the reflected second interval of the C1 even family, the first
    interval's free nodes are negated and re-sorted with their weights
    carried along.
    """
    real = _mpf if extended else float
    free = _free_extended if extended else _free_double
    intervals = []
    first_free = None  # (nodes, weights) of the first interval's free part
    for iv in spec.intervals:
        nodes, weights = [], []
        if iv.fixed_node is not None:
            nodes.append(real(iv.fixed_node[0]))
            weights.append(real(iv.fixed_node[1]))
        if iv.expected_free_nodes > 0:
            try:
                free_nodes, free_weights = free(iv)
            except (CountMismatch, DegenerateWeight, PolishFailed) as exc:
                raise type(exc)(f"{spec.id.name} n={spec.n}: {exc}") from exc
            nodes += free_nodes
            weights += free_weights
            if first_free is None:
                first_free = (free_nodes, free_weights)
        elif first_free is None:
            first_free = ([], [])
        intervals.append(RuleInterval(tuple(nodes), tuple(weights)))
    if spec.second_interval_by_reflection:
        pairs = sorted((-x, w) for x, w in zip(*first_free))
        intervals.append(RuleInterval(
            tuple(x for x, _ in pairs), tuple(w for _, w in pairs)))
    return ReferenceRule(
        family=spec.id, n=spec.n, degree=spec.degree,
        intervals=tuple(intervals), delta=real(spec.delta),
    )


def scale_to_unit_intervals(rule: ReferenceRule) -> ScaledRule:
    """Map interval k from [-1, 1] to [k, k+1]; weights scale by 1/2."""
    scaled = []
    for k, iv in enumerate(rule.intervals):
        scaled.append(RuleInterval(
            tuple(k + (x + 1) / 2 for x in iv.nodes),
            tuple(w / 2 for w in iv.weights),
        ))
    return ScaledRule(
        family=rule.family, n=rule.n, degree=rule.degree,
        intervals=tuple(scaled), delta=rule.delta,
    )


def replicate_periodically(rule: ScaledRule, copies: int):
    """Tile the scaled rule over `copies` periods; returns sorted (node, weight) pairs."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    period = rule.period_intervals
    out = []
    for j in range(copies):
        shift = j * period
        for iv in rule.intervals:
            out.extend((x + shift, w) for x, w in zip(iv.nodes, iv.weights))
    out.sort(key=lambda pair: pair[0])
    return out
