"""Gegenbauer (ultraspherical) polynomial evaluation and linear combinations.

All rule families in this package are expressed through Gegenbauer
polynomials C_n^(alpha) of half-integer order (alpha = 3/2 for the C0
rules, 5/2 for the C1 rules, 7/2 for derivatives).  Evaluation is by the
forward three-term recurrence, which is stable for the degrees and
arguments used here (n <= 200, x in [-1, 1]).

The functions are written generically: x may be a float, an mpmath mpf
(for the extended-precision path), a numpy array, or a double-double
array (:class:`splinequad.doubledouble.DD`, for the weight kernel), and
the same code path serves all of them.
"""

from __future__ import annotations

from dataclasses import dataclass


def eval_gegenbauer(alpha, n: int, x):
    """Value of the Gegenbauer polynomial C_n^(alpha) at x.

    Negative degrees evaluate to 0 by convention; the combination
    formulas shift degrees by up to 3, and this convention makes them
    degenerate correctly at small n without special cases.
    """
    if n < 0:
        return 0 * x
    c_prev = 1 + 0 * x
    if n == 0:
        return c_prev
    c = 2 * alpha * x
    for k in range(2, n + 1):
        c, c_prev = (2 * (k + alpha - 1) * x * c - (k + 2 * alpha - 2) * c_prev) / k, c
    return c


def eval_gegenbauer_derivative(alpha, n: int, x):
    """Derivative d/dx C_n^(alpha)(x), via the order-raising identity
    d/dx C_n^(alpha) = 2 alpha C_{n-1}^(alpha+1).  Zero for n <= 0."""
    if n <= 0:
        return 0 * x
    return 2 * alpha * eval_gegenbauer(alpha + 1, n - 1, x)


@dataclass(frozen=True)
class GegenbauerCombo:
    """A polynomial written as sum_k p_k(x) * C_{d_k}^(alpha)(x).

    Each term pairs a Gegenbauer degree with a coefficient polynomial of
    degree <= 2, stored as (c0, c1, c2) meaning c0 + c1*x + c2*x**2.
    The rule formulas need nothing richer: coefficients are constants,
    multiples of x, or multiples of (1 + x**2).

    Terms with negative Gegenbauer degree are identically zero and are
    dropped at construction (use the ``build`` classmethod).
    """

    alpha: float
    terms: tuple

    @classmethod
    def build(cls, alpha, terms) -> "GegenbauerCombo":
        cleaned = []
        for degree, coeff in terms:
            if degree < 0:
                continue
            if not isinstance(coeff, tuple):
                coeff = (coeff, 0, 0)
            if len(coeff) < 3:
                coeff = tuple(coeff) + (0,) * (3 - len(coeff))
            cleaned.append((degree, coeff))
        return cls(alpha, tuple(cleaned))

    def map(self, convert) -> "GegenbauerCombo":
        """The same combo with every coefficient passed through convert
        (e.g. ``float``, or a double-double constructor)."""
        return GegenbauerCombo(self.alpha, tuple(
            (d, tuple(convert(c) for c in coeff)) for d, coeff in self.terms))

    @property
    def degree(self) -> int:
        """Degree as an ordinary polynomial; -1 for the empty combo.

        Assumes no leading-coefficient cancellation between terms, which
        holds for every combo built by the rule families (their terms
        have distinct total degrees).
        """
        best = -1
        for d, (c0, c1, c2) in self.terms:
            if c2:
                best = max(best, d + 2)
            elif c1:
                best = max(best, d + 1)
            elif c0:
                best = max(best, d)
        return best

    @property
    def is_empty(self) -> bool:
        return not self.terms


def eval_combo(p: GegenbauerCombo, x):
    """Evaluate a combo and its derivative in one pass.

    One run of the three-term recurrence, differentiated term by term,
    gives C_k and C'_k for every k up to the top degree:

        k C_k  = 2 (k + alpha - 1) x C_{k-1} - (k + 2 alpha - 2) C_{k-2}
        k C'_k = 2 (k + alpha - 1) (C_{k-1} + x C'_{k-1})
                 - (k + 2 alpha - 2) C'_{k-2}

    starting from C_{-1} = 0, C_0 = 1.  Returns (value, derivative); the
    derivative applies the product rule to the coefficient polynomials.
    The empty combo gives (0, 0).
    """
    wanted = {}
    for d, coeff in p.terms:
        wanted.setdefault(d, []).append(coeff)
    # 2 alpha is 3 or 5 in every family: int constants spare mpf and
    # double-double products a float conversion and change no result
    two_alpha = 2 * p.alpha
    if float(two_alpha).is_integer():
        two_alpha = int(two_alpha)
    val = der = c_prev = dc = dc_prev = 0 * x
    c = 1 + val
    for k in range(max(wanted, default=-1) + 1):
        if k:
            a, b = 2 * k + two_alpha - 2, k + two_alpha - 2
            c, c_prev, dc, dc_prev = (
                (a * x * c - b * c_prev) / k, c,
                (a * (c + x * dc) - b * dc_prev) / k, dc,
            )
        for c0, c1, c2 in wanted.get(k, ()):
            coeff = c0 + (c1 + c2 * x) * x
            val = val + coeff * c
            der = der + (c1 + 2 * c2 * x) * c + coeff * dc
    return val, der
