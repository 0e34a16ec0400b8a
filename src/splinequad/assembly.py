"""Turn family construction data into concrete quadrature rules.

:func:`assemble` reads a :class:`~splinequad.families.FamilySpec`: per
interval, the free nodes are the roots of R (found by the root finder),
listed after any fixed endpoint node, and their weights come straight
from the closed-form denominators A / (R'(x) S(x) f(x)) with the
interval's own factor function f, never from solving a linear system.
The rule's degree is its family's ``degree(n)``.

Both precisions run one free-node stage (:func:`_free`): one
double-double Newton step polishes the double roots, R' and S are
evaluated at the polished nodes from one recurrence, and each node and
weight is rounded once at the end.  Extended rules differ in one step:
the double-double nodes are lifted into numpy object arrays of mpf with
10 guard digits, and Newton continues there before R' and S are
evaluated.  :func:`polish` and the rounding read the number type from
the arrays they are given.

Where every term of an interval's R has one parity and every term of S
the other, the interval is symmetric about 0: its nodes come in pairs
+-x with equal weights.  The stage then polishes and weighs only the
nonnegative half of the roots and mirrors it, as Gauss-Legendre codes
do.  The parity is read from the spec, never from the family; it holds
for both C0 odd intervals and the C1 odd intervals, not for C0 even or
C1 even, whose R mixes parities.  An R of one parity with an S of any
other parity is a formula bug and raises :class:`AsymmetricSpec`.

Two presentations are produced:

* :class:`ReferenceRule` - nodes in [-1, 1] per interval of the period,
  the coordinates in which the formulas are stated;
* :class:`ScaledRule` - interval k mapped to [k, k+1] with weights
  halved, the presentation used by the reference tables, file output and
  the exactness checker.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .doubledouble import DD
from .families import GUARD_DIGITS, Family, FamilySpec
from .gegenbauer import GegenbauerCombo, eval_combo
from .rootfind import CountMismatch, RootSet, isolate_and_refine


class DegenerateWeight(Exception):
    """A weight denominator vanished; impossible for a valid family spec."""


class PolishFailed(Exception):
    """Newton in the working arithmetic did not settle a double root."""


class AsymmetricSpec(Exception):
    """R has one parity but S does not have the other: a formula bug."""


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
    """The rule on [0, period_intervals]: interval k holds its nodes
    ascending in the unit cell [k, k+1], each with its weight."""

    family: Family
    n: int
    degree: int
    intervals: tuple
    delta: object = 0

    @property
    def period_intervals(self) -> int:
        return len(self.intervals)


POLISH_STEPS = 6  # cap on the Newton steps of each polish
REFINE_TOL = 1e-15  # no larger double-double Newton step ends the polish
_K_BOUND = 1e5  # the bound on |R''/2R'| that the mpf polish tolerance assumes


def mpf_polish_tol(dps: int):
    """The step below which the mpf polish of a rule of ``dps`` output
    digits stops: 10^-(dps//2 + 5), 1e-30 at 50 digits.  Newton's next
    error is K step^2, and K = |R''/2R'| <= _K_BOUND at every root for
    n <= MAX_N (measured 6.9e3), so it ends below 10^-(dps + 4), inside
    the GUARD_DIGITS the polish runs with."""
    return mpmath.mpf(10) ** (-(dps // 2) - 5)


def _mpf(value):
    """An int, Fraction or mpf as an mpf at the current precision."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _plain(v):
    """A double-double array as its rounded doubles, an mpf object array
    as it is: the values :func:`polish` and the weight guard compare."""
    return v.rounded() if isinstance(v, DD) else v


def _rounded(v) -> list:
    """A double-double array rounded to floats, or mpf values rounded to
    the precision current at this call: the one rounding of an output."""
    return v.rounded().tolist() if isinstance(v, DD) else [mpmath.mpf(y) for y in v]


def _raise_at(bad, xs, error, what):
    if bad.any():
        raise error(f"{what} at x={xs[np.argmax(bad)]}")


def polish(r: GegenbauerCombo, x, found: RootSet, tol):
    """Newton on r from the nodes x, all at once, until no step is larger
    than ``tol``.  r and x are both double-double or both mpf.  From the
    double roots, one double-double step settles them.  From the
    double-double nodes, the mpf steps (at 60 digits for a 50-digit rule)
    stop once no step exceeds :func:`mpf_polish_tol`: one step at
    n <= 50, two at n = 200.  R' = 0, an iterate outside the bracket of
    its root in ``found``, or running out of steps raises
    :class:`PolishFailed`."""
    lo, hi = np.array(found.brackets, dtype=float).T
    unsettled = np.ones(len(found.roots), dtype=bool)
    for _ in range(POLISH_STEPS):
        f, df = eval_combo(r, x)
        _raise_at(_plain(df) == 0, _plain(x), PolishFailed, "R' = 0")
        step = f / df
        x = x - step
        xs = _plain(x)
        _raise_at((xs < lo) | (xs > hi), xs, PolishFailed, "Newton left the bracket")
        unsettled = np.abs(_plain(step)) > tol
        if not unsettled.any():
            return x
    raise PolishFailed(f"no convergence in {POLISH_STEPS} Newton steps "
                       f"at x={_plain(x)[np.argmax(unsettled)]}")


def _reflected(nodes, weights) -> RuleInterval:
    """Nodes negated and, with their weights, listed in reverse: the
    mirror image at 0 of ascending nodes, ascending again."""
    return RuleInterval(tuple(-x for x in nodes[::-1]), tuple(weights[::-1]))


def _parity(combo):
    """0 or 1 when every degree of the combo has that parity, else None."""
    parities = {d % 2 for d, _ in combo.terms}
    return parities.pop() if len(parities) == 1 else None


def _free(iv, extended: bool) -> tuple:
    """Free nodes and weights of one interval.

    The roots are found in double, as the eigenvalues of R's Jacobi
    matrix each taken one Newton step, then polished by one double-double
    Newton step.  For extended, the nodes are lifted into mpf and Newton
    continues there with guard digits; this is the stage's one precision
    branch.  The weight A / (R'(x) S(x) f(x)) is so sensitive to x near
    +-1 that even the double root (within about an ulp, 1.3e-16 at most
    for n <= 200) changes it by up to 1.3e-9 relative at n = 80 and
    1.9e-7 at n = 200, and S cancels there too.  So
    R' and S are evaluated at the polished nodes in the same arithmetic,
    both from one recurrence, and each node and weight is rounded once,
    at the end.

    When every degree of R has one parity, R's roots are symmetric about
    0, and only the nonnegative ones are polished and weighed, the middle
    root 0 included when their number is odd.  The strictly positive
    ones, mirrored, give the rest, so mirror pairs agree exactly in both
    arithmetics.  The weights are symmetric when S has the other parity,
    as R' does (f is even wherever this holds); an S that does not
    raises :class:`AsymmetricSpec`, after the weights' own checks.
    """
    parity = _parity(iv.r)
    found = isolate_and_refine(iv.r, iv.expected_free_nodes)
    if parity is not None:
        half = iv.expected_free_nodes // 2
        found = RootSet(found.roots[half:], found.brackets[half:])
    r, s, a = iv.r.map(DD.of), iv.s.map(DD.of), DD.of(iv.a.numerator)
    x = polish(r, DD(np.array(found.roots)), found, REFINE_TOL)
    with contextlib.ExitStack() as working:
        if extended:
            tol = mpf_polish_tol(mpmath.mp.dps)
            working.enter_context(mpmath.workdps(mpmath.mp.dps + GUARD_DIGITS))
            # S's Fraction constants become mpf once, not at every node
            r, s, a = iv.r, iv.s.map(_mpf), iv.a.numerator
            # hi + lo is exact at the working precision
            x = np.array([mpmath.mpf(h) + lo
                          for h, lo in zip(*np.broadcast_arrays(x.hi, x.lo))], dtype=object)
            x = polish(r, x, found, tol)
        (_, rder), (sval, _) = eval_combo((r, s), x)
        denom = rder * sval * iv.extra_weight_factor(x)
        size = np.abs(_plain(denom))
        _raise_at(~((size > 1e-300) & (size < np.inf)), _plain(x),
                  DegenerateWeight, "denominator ~ 0")
        # A is exact (int or Fraction): its numerator enters unrounded
        weights = a / (iv.a.denominator * denom)
    nodes, weights = _rounded(x), _rounded(weights)
    if parity is None:
        return nodes, weights
    if _parity(iv.s) != 1 - parity:
        raise AsymmetricSpec(f"R has degrees {sorted(d for d, _ in iv.r.terms)} of one parity, "
                             f"S degrees {sorted(d for d, _ in iv.s.terms)} not of the other")
    odd = iv.expected_free_nodes % 2  # then the middle root 0 is not mirrored
    mirror = _reflected(nodes[odd:], weights[odd:])
    return [*mirror.nodes, *nodes], [*mirror.weights, *weights]


def assemble(spec: FamilySpec, extended: bool = False) -> ReferenceRule:
    """Compute nodes and weights for every interval of the spec's period.

    Nodes and weights are floats, or mpf values rounded to the current
    precision when ``extended`` is set; :func:`_free` takes the free nodes
    to that precision, and the fixed nodes and delta are converted to its
    number type here.  Fixed endpoint nodes keep their
    closed-form weights and are listed first (they sit at the interval's
    left end).  For the reflected second interval of the C1 even family,
    the first interval's free nodes are negated and, with their weights,
    listed in reverse, so they ascend again.
    """
    real = _mpf if extended else float
    intervals = []
    for iv in spec.intervals:
        nodes, weights = [], []
        if iv.fixed_node is not None:
            nodes.append(real(iv.fixed_node[0]))
            weights.append(real(iv.fixed_node[1]))
        if iv.expected_free_nodes > 0:
            try:
                free_nodes, free_weights = _free(iv, extended)
            except (AsymmetricSpec, CountMismatch, DegenerateWeight, PolishFailed) as exc:
                raise type(exc)(f"{spec.id.name} n={spec.n}: {exc}") from exc
            nodes += free_nodes
            weights += free_weights
        intervals.append(RuleInterval(tuple(nodes), tuple(weights)))
    if spec.second_interval_by_reflection:
        skip = 0 if spec.intervals[0].fixed_node is None else 1
        first = intervals[0]
        intervals.append(_reflected(first.nodes[skip:], first.weights[skip:]))
    return ReferenceRule(
        family=spec.id, n=spec.n, degree=spec.id.degree(spec.n),
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
    """Tile the scaled rule over `copies` periods; returns sorted (node, weight) pairs.

    Nothing in the package calls it: it is the public way to apply a rule
    over many intervals, as the README shows, and is kept for that."""
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
