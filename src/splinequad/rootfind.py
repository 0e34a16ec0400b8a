"""Roots of Gegenbauer combinations as eigenvalues of a Jacobi matrix, in double.

Every R of the rule formulas is a C_m, a C_m + b C_{m-1} or a
C_m + b C_{m-2} with constant coefficients: a quasi-orthogonal
Gegenbauer polynomial.  Write p_k for the monic C_k; then
p_k = x p_{k-1} - beta_k p_{k-2} with

    beta_k = (k + 2 alpha - 2)(k - 1) / (4 (k + alpha - 2)(k + alpha - 1)),

and the roots of p_m are the eigenvalues of the m x m Jacobi matrix with
diagonal 0 and off-diagonal sqrt(beta_k).  Adding b C_{m-1} changes the
last diagonal entry to -gamma', adding b C_{m-2} the last beta to
beta_m - gamma'', where gamma' and gamma'' are b over the leading
coefficient times ratios of Gegenbauer leading coefficients
(:func:`splinequad.gegenbauer.last_row`, which the weights' constant in
:mod:`splinequad.families` shares).  So the roots come from one
symmetric tridiagonal eigenvalue problem, as for a Gauss-Legendre rule.
Measured against 60-digit roots of every family at ``families.MAX_N``,
the eigenvalues are within 2e-15.

Every root sought lies in the reference interval (-1, 1), the one
interval the rule formulas are stated on.  The formulas guarantee how
many simple roots R has there, so the solver takes the expected count
as input and treats any other outcome as an error
(:class:`CountMismatch`): each eigenvalue is bracketed by the midpoints
to its neighbours, with -1 and +1 at the ends, and R must change sign
strictly across every bracket.  One Newton step from each eigenvalue,
in double, takes it to within 8e-17 of the root at n = 50..200; the
double-double polish in :mod:`splinequad.assembly` does the rest.  As in
a Gauss-Legendre code, R and R' come from one array evaluation for the
whole interval, at the bracket ends and the eigenvalues together, so the
step costs no recurrence of its own.

Root finding runs in double only, in both precisions: the double roots
and their brackets are the input of the one polish stage in
:mod:`splinequad.assembly`, which takes them to the working arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerCombo, eval_combo, last_row, monic_beta


class CountMismatch(Exception):
    """R does not have the expected number of simple roots in (-1, 1).

    Raised when R's degree is not the expected count, when the modified
    beta is not positive (the Jacobi matrix is then not real symmetric),
    or when R does not change sign strictly across every eigenvalue's
    bracket, as when an eigenvalue lies outside (-1, 1).  Signals a
    formula bug or an invalid family parameter (e.g. the negative-delta
    diagnostic mode, whose roots leave [-1, 1])."""


@dataclass(frozen=True)
class RootSet:
    """Double roots, ascending, each with the sign-change bracket it was
    refined in."""

    roots: tuple
    brackets: tuple


def _jacobi(p: GegenbauerCombo):
    """The degree m of p, the diagonal of its m x m Jacobi matrix, and the
    squares beta_2..beta_m of its off-diagonal.  p must be a C_m, or a
    C_m plus a multiple of C_(m-1) or C_(m-2); else ValueError."""
    m, _, diag_last, shift = last_row(p)
    beta = monic_beta(p.alpha, np.arange(2, m + 1))
    diag = np.zeros(m)
    # slices: there is no last row at m = 0, and no beta at m = 1
    diag[-1:] = diag_last
    beta[-1:] -= shift
    return m, diag, beta


def refine_root(x, f, df, bracket):
    """One Newton step from x, an eigenvalue in its bracket, given the
    values f = R(x) and df = R'(x); it evaluates nothing.

    If df = 0, or the step leaves the bracket, x comes back unchanged:
    the polish in :mod:`splinequad.assembly` checks every iterate against
    the same bracket.  The step is one scalar function, called once per
    root, only because the benchmark's tracing (``perfbench/tracing.py``)
    counts its calls as the refined free nodes; it can go once the
    benchmark counts the roots of a :class:`RootSet` instead.
    """
    xn = x - f / df if df else x
    return xn if bracket[0] <= xn <= bracket[1] else x


def isolate_and_refine(p: GegenbauerCombo, expected_count: int) -> RootSet:
    """Find exactly expected_count simple roots of p in (-1, 1), in double.

    The roots start as the eigenvalues of p's Jacobi matrix, ascending.
    Each is bracketed by the midpoints to its neighbours, with -1 and +1
    at the ends.  p and p' are evaluated once, as one array, at those
    expected_count + 1 points and the expected_count eigenvalues.
    :class:`CountMismatch` is raised unless p's degree is expected_count,
    the modified beta is positive and p changes sign strictly across
    every bracket; then each root takes one Newton step in its bracket,
    by :func:`refine_root`, from the values already at hand.  numpy's
    float64 arithmetic rounds each operation as Python's float does, so
    the roots are those of a scalar evaluation at each eigenvalue, to the
    bit.
    """
    if p.is_empty:
        raise ValueError("combo is identically zero")
    if expected_count < 0:
        raise ValueError("expected_count must be >= 0")
    pf = p.map(float)
    m, diag, beta = _jacobi(pf)
    if m != expected_count:
        raise CountMismatch(f"expected {expected_count} roots in (-1, 1), R has degree {m}")
    if not m:
        return RootSet(roots=(), brackets=())
    if (beta <= 0).any():
        raise CountMismatch(f"expected {m} roots in (-1, 1), modified beta {beta[-1]} <= 0")
    # eigvalsh reads the lower triangle only
    lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(beta), -1))
    ends = np.concatenate(([-1.0], (lam[:-1] + lam[1:]) / 2, [1.0]))
    values, derivs = eval_combo(pf, np.concatenate((ends, lam)))
    # only the last row differs from C_(m-1)'s Jacobi matrix, so the
    # eigenvalues interlace C_(m-1)'s roots: only the first and the last
    # can leave (-1, 1), and then their bracket has no sign change
    if not (values[:m] * values[1:m + 1] < 0).all():
        raise CountMismatch(f"expected {m} roots in (-1, 1), eigenvalues {lam[0]} .. {lam[-1]}: "
                            f"R does not change sign across every bracket")
    brackets = tuple(zip(ends[:-1].tolist(), ends[1:].tolist()))
    roots = map(refine_root, lam.tolist(), values[m + 1:].tolist(),
                derivs[m + 1:].tolist(), brackets)
    return RootSet(roots=tuple(roots), brackets=brackets)
