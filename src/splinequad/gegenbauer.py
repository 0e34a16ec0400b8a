"""Gegenbauer (ultraspherical) polynomial evaluation and linear combinations.

All rule families in this package are expressed through Gegenbauer
polynomials C_n^(alpha) of half-integer order (alpha = 3/2 for the C0
rules, 5/2 for the C1 rules), orthogonal on [-1, 1] under the weight
function (1 - x^2)^(alpha - 1/2) (:func:`weight_function`, with
:func:`squared_norm`).  Evaluation is by the forward three-term
recurrence, which is stable for the degrees and arguments used here
(n <= 200, x in [-1, 1]).

A combo is a sum of constants times Gegenbauer polynomials of one alpha.
Every R of the rule formulas is a C_m, a C_m + b C_(m-1) or a
C_m + b C_(m-2): only the last row of its monic Jacobi matrix differs
from C_m's, by :func:`last_row`, and the constant K of the Christoffel
numbers at R's roots comes from that row (:func:`christoffel_constant`).

:func:`eval_combo` is the one evaluator: a single Gegenbauer polynomial
C_n^(alpha) is the one-term combo ``GegenbauerCombo.build(alpha, [(n, 1)])``.
Given several combos of one alpha, it evaluates them all from one run of
the recurrence; the weights take R' and C_(m-1) from one such pass.  It
is written generically: x may be a float, an mpmath mpf, a numpy array
of floats (the root finder's bracket ends and eigenvalues) or of mpf
(the extended-precision polish), or a double-double array
(:class:`splinequad.doubledouble.DD`, the Newton step every precision
starts its polish with), and the same code path serves all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GegenbauerCombo:
    """A polynomial written as sum_k c_k C_{d_k}^(alpha)(x).

    Each term pairs a Gegenbauer degree with a constant: an int, a
    Fraction or an mpf.

    ``build`` drops the terms of negative Gegenbauer degree, which are
    identically zero, and sums the terms of one degree.  The rule formulas
    shift degrees by up to 3, and this convention makes them degenerate
    correctly at small n without special cases.
    """

    alpha: float
    terms: tuple

    @classmethod
    def build(cls, alpha, terms) -> "GegenbauerCombo":
        summed = {}
        for degree, coeff in terms:
            if degree >= 0:
                summed[degree] = summed.get(degree, 0) + coeff
        return cls(alpha, tuple(summed.items()))

    def map(self, convert) -> "GegenbauerCombo":
        """The same combo with every constant passed through convert
        (e.g. ``float``, or a double-double constructor)."""
        return GegenbauerCombo(self.alpha, tuple((d, convert(c)) for d, c in self.terms))

    @property
    def is_empty(self) -> bool:
        return not self.terms


def monic_beta(alpha, k):
    """beta_k of the monic recurrence p_k = x p_(k-1) - beta_k p_(k-2) of the
    C_k^(alpha) / (leading coefficient), in the number type of alpha and k
    (a numpy array of k gives an array)."""
    return (k + 2 * alpha - 2) * (k - 1) / (4 * (k + alpha - 2) * (k + alpha - 1))


def last_row(p: GegenbauerCombo):
    """How p = a C_m + b C_d, with d = m - 1 or m - 2 (or p = a C_m),
    changes the last row of C_m's monic Jacobi matrix: (m, a, diag, shift)
    with diag the last diagonal entry and shift what beta_m loses, each
    0 unless p has that term (else ValueError).

    p / (a k_m), with k_j the leading coefficient of C_j, is monic:
    p_m + b k_d / (a k_m) p_d for the monic p_j.  Its p_(m-1) term puts
    -b k_(m-1) / (a k_m) on the diagonal, its p_(m-2) term takes
    b k_(m-2) / (a k_m) from beta_m (Golub & Welsch, Math. Comp. 23,
    1969; Golub, SIAM Review 15, 1973).  They come in the number type of
    p's constants: float for float constants, exact for int and Fraction
    ones.
    """
    (m, a), *rest = sorted(p.terms, reverse=True)
    if a == 0 or len(rest) > 1 or any(d not in (m - 1, m - 2) for d, _ in rest):
        raise ValueError(f"not a C_m + b C_(m-1) or C_m + b C_(m-2): {p}")
    alpha = Fraction(p.alpha)
    diag = shift = 0
    for d, b in rest:
        # b/a times k_(m-1) / k_m; a Fraction a keeps int / int exact and
        # divides a float b as float(a) does
        gamma = b / Fraction(a) * m / (2 * (m + alpha - 1))
        if d == m - 1:
            diag = -gamma
        else:  # times k_(m-2) / k_(m-1)
            shift = gamma * (m - 1) / (2 * (m + alpha - 2))
    return m, a, diag, shift


def _order(alpha) -> int:
    """l for alpha = l + 1/2, else ValueError."""
    ell = Fraction(alpha) - Fraction(1, 2)
    if ell.denominator != 1 or ell < 0:
        raise ValueError(f"alpha {alpha} is no half-integer >= 1/2")
    return int(ell)


def squared_norm(alpha, j) -> Fraction:
    """The integral of C_j^(alpha)(x)^2 (1 - x^2)^(alpha - 1/2) over
    [-1, 1], exact, for half-integer alpha = l + 1/2:
    2 (j + 2l)! / (j! (2j + 2l + 1) ((2l - 1)!!)^2) (DLMF §18.3).  It is
    2 (j+1)(j+2) / (2j+3) at alpha = 3/2, and
    2 (j+1)(j+2)(j+3)(j+4) / (9 (2j+5)) at alpha = 5/2."""
    ell = _order(alpha)
    odd_factorial = math.prod(range(1, 2 * ell, 2))
    return Fraction(2 * math.perm(j + 2 * ell, 2 * ell),
                    (2 * j + 2 * ell + 1) * odd_factorial ** 2)


def christoffel_constant(r: GegenbauerCombo):
    """K of R = a C_m + b C_d, from R's Jacobi matrix: the Christoffel
    numbers at R's roots are

        w(x) = K / (C_(m-1)(x) R'(x) (1 - x^2)^(alpha - 1/2)),

    by Christoffel-Darboux (Golub & Welsch, Math. Comp. 23, 1969), with
    K = ||C_(m-1)||^2 (k_m / k_(m-1)) a rho.  k_m / k_(m-1) =
    2 (m + alpha - 1) / m is the ratio of the leading coefficients of C_m
    and C_(m-1), and rho = 1 - shift / beta_m the ratio of R's last beta
    to C_m's (1 unless d = m - 2), with m, a and shift from
    :func:`last_row`.  Exact when R's constants are ints and Fractions,
    as every rule's are.
    """
    m, a, _, shift = last_row(r)
    alpha = Fraction(r.alpha)
    k = squared_norm(alpha, m - 1) * 2 * (m + alpha - 1) / m * a
    return k * (1 - shift / monic_beta(alpha, m)) if shift else k


def weight_function(alpha, x):
    """(1 - x^2)^(alpha - 1/2) for half-integer alpha, a product of
    factors (1 - x)(1 + x): products only, so it also evaluates on
    double-double arrays, and 1 - x loses nothing near x = 1."""
    return math.prod([(1 - x) * (1 + x)] * _order(alpha), start=1)


def eval_combo(p, x):
    """Evaluate a combo and its derivative in one pass.

    One run of the three-term recurrence, differentiated term by term,
    gives C_k and C'_k for every k up to the top degree:

        k C_k  = 2 (k + alpha - 1) x C_{k-1} - (k + 2 alpha - 2) C_{k-2}
        k C'_k = 2 (k + alpha - 1) (C_{k-1} + x C'_{k-1})
                 - (k + 2 alpha - 2) C'_{k-2}

    starting from C_{-1} = 0, C_0 = 1.  Returns (value, derivative), each
    the sum of its terms' constants times C_k or C'_k.  The empty combo
    gives (0, 0).

    ``p`` may also be a tuple of combos of one alpha (else ValueError):
    the one recurrence then serves them all, and the result is a tuple
    with one (value, derivative) pair per combo, each bit-equal to what
    a call with that combo alone returns.
    """
    combos = (p,) if isinstance(p, GegenbauerCombo) else tuple(p)
    alphas = {q.alpha for q in combos}
    if len(alphas) != 1:
        raise ValueError(f"combos of one alpha needed, got alphas {sorted(alphas)}")
    wanted = {}
    for i, q in enumerate(combos):
        for d, coeff in q.terms:
            wanted.setdefault(d, []).append((i, coeff))
    # 2 alpha is 3 or 5 in every family: int constants spare mpf and
    # double-double products a float conversion and change no result
    two_alpha = 2 * alphas.pop()
    if float(two_alpha).is_integer():
        two_alpha = int(two_alpha)
    c_prev = dc = dc_prev = 0 * x
    c = 1 + c_prev
    val, der = [c_prev] * len(combos), [c_prev] * len(combos)
    for k in range(max(wanted, default=-1) + 1):
        if k:
            a, b = 2 * k + two_alpha - 2, k + two_alpha - 2
            c, c_prev, dc, dc_prev = (
                (a * x * c - b * c_prev) / k, c,
                (a * (c + x * dc) - b * dc_prev) / k, dc,
            )
        # C_k times the constant, not the reverse: an mpf times an array of
        # mpf formats the whole array into an error message before numpy
        # takes over the product
        for i, coeff in wanted.get(k, ()):
            val[i] = val[i] + c * coeff
            der[i] = der[i] + dc * coeff
    pairs = tuple(zip(val, der))
    return pairs[0] if isinstance(p, GegenbauerCombo) else pairs
