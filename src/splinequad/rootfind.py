"""Bracketing + Newton root finding for Gegenbauer combinations, in double.

Every root sought lies in the reference interval [-1, 1], the one
interval the rule formulas are stated on, so that is the only interval
searched.  The formulas guarantee how many simple roots R has there, so
the solver takes the expected count as input and treats any other
outcome as an error (:class:`CountMismatch`).  Isolation is one scan of
a Chebyshev-distributed grid, which clusters points near the interval
ends where several families crowd their roots; a uniform grid starts
missing brackets there at high degree.  At 8 points per expected root
the scan finds every root of every family up to ``families.MAX_N``, and
so does half that density; a count it misses is an error, not a reason
to scan again.

Isolation and refinement run in double only, in both precisions: the
double roots and their brackets are the input of the one polish stage in
:mod:`splinequad.assembly`, which takes them to the working arithmetic.
The scan evaluates the combo once on the whole grid; refinement starts
from the values it found at each bracket's ends and evaluates only
inside the bracket.

A companion-matrix eigenvalue path was deliberately not used: the combos
are cheap to evaluate through the recurrence and the root counts are
known a priori, so bracketing plus safeguarded Newton is simpler and
equally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerCombo, eval_combo

REFINE_TOL = 1e-15  # a Newton step this small ends the double refinement


class CountMismatch(Exception):
    """Found a different number of root brackets than the formula predicts.

    Signals a formula bug or an invalid family parameter (e.g. the
    negative-delta diagnostic mode, whose roots leave [-1, 1])."""


class NoSignChange(Exception):
    """The supplied bracket does not straddle a sign change."""


@dataclass(frozen=True)
class RootSet:
    """Double roots, ascending, each with the sign-change bracket it was
    refined in."""

    roots: tuple
    brackets: tuple


def _chebyshev_grid(m: int) -> list:
    """m points on [-1, 1] clustered at the ends, sorted ascending."""
    return list(-np.cos(np.pi * np.arange(m) / (m - 1)))


def _scan(p: GegenbauerCombo, grid) -> list:
    """Sign-change brackets of p on the grid, ascending, each as a pair
    ``(bracket, ends)`` with p's values at the bracket's two ends.  A grid
    point where p is exactly 0 gets the bracket of its two neighbours (or
    of itself and its neighbour at -1 and +1)."""
    values = np.atleast_1d(eval_combo(p, np.asarray(grid))[0])
    pairs = []
    for i in range(len(grid) - 1):
        f0, f1 = values[i], values[i + 1]
        if f0 == 0:
            pairs.append((max(i - 1, 0), i + 1))
        elif f1 != 0 and (f0 > 0) != (f1 > 0):
            pairs.append((i, i + 1))
    if values[-1] == 0:
        pairs.append((-2, -1))
    return [((grid[i], grid[j]), (values[i], values[j])) for i, j in pairs]


def refine_root(p: GegenbauerCombo, bracket, ends):
    """Refine a single root inside a sign-change bracket, in double.

    ``ends`` are p's values at the two bracket ends, as the scan computed
    them; they are not evaluated again, so p is evaluated only strictly
    inside the bracket.  Newton iteration with the derivative from
    :func:`eval_combo`, falling back to bisection whenever the Newton
    step leaves the bracket.  Deterministic: identical inputs give
    bit-identical output.
    """
    lo, hi = bracket
    flo, fhi = ends
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChange(f"no sign change on [{lo}, {hi}]")
    x = (lo + hi) / 2
    for _ in range(60):
        f, df = eval_combo(p, x)
        if f == 0:
            break
        if (f > 0) == (flo > 0):
            lo = x
        else:
            hi = x
        if df != 0:
            step = f / df
            xn = x - step
            # converged: accept the Newton point even if it grazes a
            # bracket end (an endpoint within an ulp of the root would
            # otherwise force futile bisection)
            if abs(step) <= REFINE_TOL:
                return xn if lo <= xn <= hi else x
            if not (lo < xn < hi):
                xn = (lo + hi) / 2
        else:
            xn = (lo + hi) / 2
        if abs(xn - x) <= REFINE_TOL:
            x = xn
            break
        x = xn
    return x


def isolate_and_refine(p: GegenbauerCombo, expected_count: int) -> RootSet:
    """Find exactly expected_count simple roots of p in [-1, 1], in double.

    Scans one Chebyshev grid of max(64, 8 * expected_count) points and
    raises :class:`CountMismatch` if the bracket count disagrees with the
    expectation.  The roots come out ascending, each with the bracket it
    was refined in.
    """
    if p.is_empty:
        raise ValueError("combo is identically zero")
    if expected_count < 0:
        raise ValueError("expected_count must be >= 0")
    pf = p.map(float)
    brackets = _scan(pf, _chebyshev_grid(max(64, 8 * expected_count)))
    if len(brackets) != expected_count:
        raise CountMismatch(
            f"expected {expected_count} roots in [-1, 1], "
            f"isolated {len(brackets)}"
        )
    found = sorted((refine_root(pf, b, ends), b) for b, ends in brackets)
    return RootSet(roots=tuple(x for x, _ in found), brackets=tuple(b for _, b in found))
