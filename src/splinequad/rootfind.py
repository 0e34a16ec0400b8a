"""Bracketing + Newton root finding for Gegenbauer combinations.

The rule formulas guarantee how many simple roots R has inside [-1, 1],
so the solver takes the expected count as input and treats any other
outcome as an error (:class:`CountMismatch`).  Isolation uses a
Chebyshev-distributed scan grid, which clusters points near the interval
ends where several families crowd their roots; a uniform grid starts
missing brackets there at high degree.

Isolation and refinement always run in double.  The extended path then
polishes each double root with two or three Newton steps at the working
precision (:func:`polish_root`); no scan or bisection runs in mpmath.

A companion-matrix eigenvalue path was deliberately not used: the combos
are cheap to evaluate through the recurrence and the root counts are
known a priori, so bracketing plus safeguarded Newton is simpler and
equally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from .gegenbauer import GegenbauerCombo, eval_combo

POLISH_STEPS = 6  # cap on the Newton steps of the extended polish


class CountMismatch(Exception):
    """Found a different number of root brackets than the formula predicts.

    Signals a formula bug or an invalid family parameter (e.g. the
    negative-delta diagnostic mode, whose roots leave [-1, 1])."""


class NoSignChange(Exception):
    """The supplied bracket does not straddle a sign change."""


class PolishFailed(Exception):
    """Newton at the working precision did not settle a double root."""


@dataclass(frozen=True)
class RootSet:
    roots: tuple
    residuals: tuple
    interval: tuple


def _chebyshev_grid(lo: float, hi: float, m: int) -> list:
    """m points on [lo, hi] clustered at the ends, sorted ascending."""
    k = np.arange(m)
    return list((lo + hi) / 2 - (hi - lo) / 2 * np.cos(np.pi * k / (m - 1)))


def _scan(p: GegenbauerCombo, grid) -> list:
    """Sign-change brackets of p on the grid, ascending.  A grid point
    where p is exactly 0 gets the bracket of its two neighbours."""
    values = np.atleast_1d(eval_combo(p, np.asarray(grid))[0])
    brackets = []
    for i in range(len(grid) - 1):
        f0, f1 = values[i], values[i + 1]
        if f0 == 0:
            brackets.append((grid[max(i - 1, 0)], grid[i + 1]))
        elif f1 != 0 and (f0 > 0) != (f1 > 0):
            brackets.append((grid[i], grid[i + 1]))
    if values[-1] == 0:
        brackets.append((grid[-2], grid[-1]))
    return brackets


def refine_root(p: GegenbauerCombo, bracket, tol: float = 1e-15):
    """Refine a single root inside a sign-change bracket, in double.

    Newton iteration with the derivative from :func:`eval_combo`, falling
    back to bisection whenever the Newton step leaves the bracket.
    Deterministic: identical inputs give bit-identical output.
    """
    lo, hi = bracket
    flo, _ = eval_combo(p, lo)
    fhi, _ = eval_combo(p, hi)
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
            if abs(step) <= tol:
                return xn if lo <= xn <= hi else x
            if not (lo < xn < hi):
                xn = (lo + hi) / 2
        else:
            xn = (lo + hi) / 2
        if abs(xn - x) <= tol:
            x = xn
            break
        x = xn
    return x


def polish_root(p: GegenbauerCombo, x, bracket):
    """Newton on p at the working precision from the double root x, until
    a step is at most 10**(5 - dps).  Returns (root, |p| at the last
    iterate evaluated); an iterate outside the bracket, p' = 0 or running
    out of steps raises :class:`PolishFailed`."""
    lo, hi = map(float, bracket)
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    x = mpmath.mpf(x)
    for _ in range(POLISH_STEPS):
        f, df = eval_combo(p, x)
        if df == 0:
            raise PolishFailed(f"R' = 0 at x={x}")
        step = f / df
        x -= step
        if not lo <= x <= hi:
            raise PolishFailed(f"Newton left the bracket [{lo}, {hi}] at x={x}")
        if abs(step) <= tol:
            return x, abs(f)
    raise PolishFailed(f"no convergence in {POLISH_STEPS} Newton steps near x={x}")


def isolate_and_refine(p: GegenbauerCombo, lo, hi, expected_count: int,
                       tol: float = 1e-15, extended: bool = False) -> RootSet:
    """Find exactly expected_count simple roots of p in [lo, hi].

    Scans a Chebyshev grid of max(64, 8 * expected_count) points in
    double, retries once at 4x density, and raises :class:`CountMismatch`
    if the bracket count still disagrees with the expectation.  With
    ``extended``, the double roots are then polished (:func:`polish_root`).
    """
    if p.is_empty:
        raise ValueError("combo is identically zero")
    if expected_count < 0:
        raise ValueError("expected_count must be >= 0")
    pf = p.map(float)
    m = max(64, 8 * expected_count)
    for density in (m, 4 * m):
        brackets = _scan(pf, _chebyshev_grid(float(lo), float(hi), density))
        if len(brackets) == expected_count:
            break
    else:
        raise CountMismatch(
            f"expected {expected_count} roots in [{lo}, {hi}], "
            f"isolated {len(brackets)}"
        )
    roots = [refine_root(pf, b, tol=tol) for b in brackets]
    if extended:
        polished = sorted(polish_root(p, x, b) for x, b in zip(roots, brackets))
        roots = [x for x, _ in polished]
        residuals = tuple(r for _, r in polished)
    else:
        roots.sort()
        residuals = tuple(np.abs(eval_combo(pf, np.array(roots))[0]).tolist())
    return RootSet(roots=tuple(roots), residuals=residuals, interval=(lo, hi))
