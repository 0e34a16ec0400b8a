"""Gegenbauer (ultraspherical) polynomial evaluation and linear combinations.

All rule families in this package are expressed through Gegenbauer
polynomials C_n^(alpha) of half-integer order (alpha = 3/2 for the C0
rules, 5/2 for the C1 rules).  Evaluation is by the forward three-term
recurrence, which is stable for the degrees and arguments used here
(n <= 200, x in [-1, 1]).

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


@dataclass(frozen=True)
class GegenbauerCombo:
    """A polynomial written as sum_k p_k(x) * C_{d_k}^(alpha)(x).

    Each term pairs a Gegenbauer degree with a coefficient polynomial of
    degree <= 2, stored as (c0, c1, c2) meaning c0 + c1*x + c2*x**2.
    The rule formulas need nothing richer: coefficients are constants,
    multiples of x, or multiples of (1 + x**2).

    Terms with negative Gegenbauer degree are identically zero and are
    dropped at construction (use the ``build`` classmethod).  The rule
    formulas shift degrees by up to 3, and this convention makes them
    degenerate correctly at small n without special cases.
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
            cleaned.append((degree, coeff))
        return cls(alpha, tuple(cleaned))

    def map(self, convert) -> "GegenbauerCombo":
        """The same combo with every coefficient passed through convert
        (e.g. ``float``, or a double-double constructor)."""
        return GegenbauerCombo(self.alpha, tuple(
            (d, tuple(convert(c) for c in coeff)) for d, coeff in self.terms))

    @property
    def is_empty(self) -> bool:
        return not self.terms


def eval_combo(p, x):
    """Evaluate a combo and its derivative in one pass.

    One run of the three-term recurrence, differentiated term by term,
    gives C_k and C'_k for every k up to the top degree:

        k C_k  = 2 (k + alpha - 1) x C_{k-1} - (k + 2 alpha - 2) C_{k-2}
        k C'_k = 2 (k + alpha - 1) (C_{k-1} + x C'_{k-1})
                 - (k + 2 alpha - 2) C'_{k-2}

    starting from C_{-1} = 0, C_0 = 1.  Returns (value, derivative); the
    derivative applies the product rule to the coefficient polynomials.
    The empty combo gives (0, 0).

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
        for i, (c0, c1, c2) in wanted.get(k, ()):
            coeff = c0 + (c1 + c2 * x) * x
            val[i] = val[i] + coeff * c
            der[i] = der[i] + (c1 + 2 * c2 * x) * c + coeff * dc
    pairs = tuple(zip(val, der))
    return pairs[0] if isinstance(p, GegenbauerCombo) else pairs
