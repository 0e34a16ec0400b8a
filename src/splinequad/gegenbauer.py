"""Gegenbauer (ultraspherical) polynomial evaluation and linear combinations.

All rule families in this package are expressed through Gegenbauer
polynomials C_n^(alpha) of half-integer order (alpha = 3/2 for the C0
rules, 5/2 for the C1 rules).  Evaluation is by the forward three-term
recurrence, which is stable for the degrees and arguments used here
(n <= 200, x in [-1, 1]).

A combo is a sum of constants times Gegenbauer polynomials of one alpha.
Where the paper multiplies a Gegenbauer polynomial by x or by 1 + x^2,
:func:`times_x` rewrites the product by the three-term recurrence, once,
when the spec is built; so evaluation only sums constants times C_k.

:func:`eval_combo` is the one evaluator: a single Gegenbauer polynomial
C_n^(alpha) is the one-term combo ``GegenbauerCombo.build(alpha, [(n, 1)])``.
Given several combos of one alpha, it evaluates them all from one run of
the recurrence; the weights take R' and S from one such pass.  It is
written generically: x may be a float, an mpmath mpf, a numpy array of
floats (the root finder's bracket ends) or of mpf (the extended-precision
polish), or a double-double array (:class:`splinequad.doubledouble.DD`,
the Newton step every precision starts its polish with), and the same
code path serves all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GegenbauerCombo:
    """A polynomial written as sum_k c_k C_{d_k}^(alpha)(x).

    Each term pairs a Gegenbauer degree with a constant: an int, a
    Fraction or an mpf.  A paper formula with x C_d or (1 + x^2) C_d is
    expanded into such terms once, by :func:`times_x`, when its spec is
    built.

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


def times_x(alpha, terms) -> list:
    """The terms (degree, constant) of x times the combo of ``terms``.

    By x C_d = ((d + 1) C_{d+1} + (d + 2 alpha - 1) C_{d-1}) / (2 (d + alpha))
    (DLMF §18.9).  alpha enters as an exact Fraction, so int and Fraction
    constants stay exact; a term of negative degree is zero and gives none.
    """
    a = Fraction(alpha)
    out = []
    for d, c in terms:
        if d >= 0:
            out += [(d + 1, c * ((d + 1) / (2 * (d + a)))),
                    (d - 1, c * ((d + 2 * a - 1) / (2 * (d + a))))]
    return out


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
