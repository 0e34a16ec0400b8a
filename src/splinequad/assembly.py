"""Turn family construction data into concrete quadrature rules.

:func:`assemble` reads a :class:`~splinequad.families.FamilySpec`: per
interval, the free nodes are the roots of R (found by the root finder),
listed after any fixed endpoint node, and their weights come straight
from the closed-form denominators A / (R'(x) S(x) f(x)) with the
interval's own factor function f, never from solving a linear system.
The rule's degree is its family's ``degree(n)``.

Both precisions run one free-node stage: the double roots are polished
by Newton in a working arithmetic, R' and S are evaluated at the
polished nodes, and each node and weight is rounded once at the end.
The precision only picks the arithmetic (:func:`arithmetic`):
double-double arrays for double, numpy object arrays of mpf at the
working precision for extended.

Two presentations are produced:

* :class:`ReferenceRule` - nodes in [-1, 1] per interval of the period,
  the coordinates in which the formulas are stated;
* :class:`ScaledRule` - interval k mapped to [k, k+1] with weights
  halved, the presentation used by the reference tables, file output and
  the exactness checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from .doubledouble import DD
from .families import Family, FamilySpec
from .gegenbauer import GegenbauerCombo, eval_combo
from .rootfind import REFINE_TOL, CountMismatch, RootSet, isolate_and_refine


class DegenerateWeight(Exception):
    """A weight denominator vanished; impossible for a valid family spec."""


class PolishFailed(Exception):
    """Newton in the working arithmetic did not settle a double root."""


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


POLISH_STEPS = 6  # cap on the Newton steps of the polish


def _mpf(value):
    """An int, Fraction or mpf as an mpf at the working precision."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


@dataclass(frozen=True)
class Arithmetic:
    """The number type one precision computes its free nodes in."""

    real: Callable    # exact scalar -> output number (fixed nodes, delta)
    lift: Callable    # exact combo coefficient -> working scalar
    array: Callable   # double roots -> working array
    output: Callable  # working array -> list of output numbers
    tol: object       # the polish stops once no Newton step is larger


def arithmetic(extended: bool) -> Arithmetic:
    """Double-double arrays rounded to double, or numpy object arrays of
    mpf at the working precision (``extended``)."""
    if not extended:
        return Arithmetic(
            real=float, lift=DD.of, array=lambda roots: DD(np.array(roots)),
            output=lambda v: v.rounded().tolist(), tol=REFINE_TOL)
    return Arithmetic(
        real=_mpf, lift=lambda c: c,
        array=lambda roots: np.array([mpmath.mpf(x) for x in roots], dtype=object),
        output=list, tol=mpmath.mpf(10) ** (5 - mpmath.mp.dps))


def _raise_at(bad, xs, error, what):
    if bad.any():
        raise error(f"{what} at x={xs[np.argmax(bad)]}")


def polish(r: GegenbauerCombo, found: RootSet, arith: Arithmetic):
    """Newton on r (coefficients in ``arith``) from the double roots, all
    at once, until no step is larger than ``arith.tol``: one step in
    double-double, two or three in mpf.  R' = 0, an iterate outside its
    root's double bracket, or running out of steps raises
    :class:`PolishFailed`."""
    x = arith.array(found.roots)
    lo, hi = np.array(found.brackets, dtype=float).T
    unsettled = np.ones(len(found.roots), dtype=bool)
    for _ in range(POLISH_STEPS):
        f, df = eval_combo(r, x)
        _raise_at(np.array(arith.output(df)) == 0, arith.output(x), PolishFailed, "R' = 0")
        step = f / df
        x = x - step
        xs = np.array(arith.output(x))
        _raise_at((xs < lo) | (xs > hi), xs, PolishFailed, "Newton left the bracket")
        unsettled = np.abs(np.array(arith.output(step))) > arith.tol
        if not unsettled.any():
            return x
    raise PolishFailed(f"no convergence in {POLISH_STEPS} Newton steps "
                       f"at x={arith.output(x)[np.argmax(unsettled)]}")


def _free(iv, arith: Arithmetic) -> tuple:
    """Free nodes and weights of one interval.

    The roots are isolated and refined in double, then polished in the
    working arithmetic.  The weight A / (R'(x) S(x) f(x)) is so sensitive
    to x near +-1 that even the double root (within about an ulp, 1.3e-16
    at most for n <= 200) changes it by up to 1.3e-9 relative at n = 80
    and 1.9e-7 at n = 200, and S cancels there too.  So R' and S are
    evaluated at the polished nodes in the working arithmetic as well,
    and each node and weight is rounded once, at the end.
    """
    r = iv.r.map(arith.lift)
    x = polish(r, isolate_and_refine(iv.r, -1, 1, iv.expected_free_nodes), arith)
    _, rder = eval_combo(r, x)
    sval, _ = eval_combo(iv.s.map(arith.lift), x)
    denom = rder * sval * iv.extra_weight_factor(x)
    size = np.abs(np.array(arith.output(denom)))
    _raise_at(~((size > 1e-300) & (size < np.inf)), arith.output(x),
              DegenerateWeight, "denominator ~ 0")
    # A is exact (int or Fraction): its numerator enters unrounded
    weights = arith.lift(iv.a.numerator) / (iv.a.denominator * denom)
    return arith.output(x), arith.output(weights)


def assemble(spec: FamilySpec, extended: bool = False) -> ReferenceRule:
    """Compute nodes and weights for every interval of the spec's period.

    Nodes and weights are floats, or mpf values at the working precision
    when ``extended`` is set; that choice of :func:`arithmetic` is the
    only difference between the two.  Fixed endpoint nodes keep their
    closed-form weights and are listed first (they sit at the interval's
    left end).  For the reflected second interval of the C1 even family,
    the first interval's free nodes are negated and re-sorted with their
    weights carried along.
    """
    arith = arithmetic(extended)
    intervals = []
    for iv in spec.intervals:
        nodes, weights = [], []
        if iv.fixed_node is not None:
            nodes.append(arith.real(iv.fixed_node[0]))
            weights.append(arith.real(iv.fixed_node[1]))
        if iv.expected_free_nodes > 0:
            try:
                free_nodes, free_weights = _free(iv, arith)
            except (CountMismatch, DegenerateWeight, PolishFailed) as exc:
                raise type(exc)(f"{spec.id.name} n={spec.n}: {exc}") from exc
            nodes += free_nodes
            weights += free_weights
        intervals.append(RuleInterval(tuple(nodes), tuple(weights)))
    if spec.second_interval_by_reflection:
        skip = 0 if spec.intervals[0].fixed_node is None else 1
        first = intervals[0]
        pairs = sorted((-x, w) for x, w in zip(first.nodes[skip:], first.weights[skip:]))
        intervals.append(RuleInterval(
            tuple(x for x, _ in pairs), tuple(w for _, w in pairs)))
    return ReferenceRule(
        family=spec.id, n=spec.n, degree=spec.id.degree(spec.n),
        intervals=tuple(intervals), delta=arith.real(spec.delta),
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
