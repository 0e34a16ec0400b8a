"""The paper's closed-form weights, A / (R'(x) S(x) f(x)), as a test reference.

The package computes every free weight as a Christoffel number of R's
Jacobi matrix over the Gegenbauer weight function.  The paper states the
same weights with a second polynomial S, a constant A and a factor f(x)
per family and interval; this module keeps that form, written as the
paper writes it, so the tests compare the two.  It shares no code with the
package: the Gegenbauer values come from a recurrence of its own, in
mpf, and the derivative of R from d/dx C_d^(alpha) = 2 alpha
C_(d-1)^(alpha+1).
"""

from fractions import Fraction

import mpmath

from splinequad.families import Family


def paper_s(spec):
    """S per interval of spec as the paper writes it: terms (d, (c0, c1, c2))
    standing for (c0 + c1 x + c2 x^2) C_d."""
    n, delta = spec.n, spec.delta
    q, q1 = 2 * n * n + 2 * n - 3, 2 * n * n + 6 * n + 1
    a = n * (6 * n * n + 6 * n - 3 + 2 * (2 * n + 1) * delta)
    return {
        Family.C0_ODD: [[(n - 1, (n, 0, 0)), (n - 2, (0, -(n + 1), 0))],
                        [(n - 2, (2 * n - 1, 0, 0)), (n - 3, (0, -n, 0))]],
        Family.C0_EVEN: [[(n - 1, (2 * n + 1, delta * n, 0)), (n - 2, (0, -(n + 1), 0))]],
        Family.C1_ODD_ENDPOINT: [[(n - 2, (1, 0, 0))]],
        Family.C1_ODD_INTERIOR: [[(n - 1, (a, 0, a)),
                                  (n - 2, (0, -4 * (2 * n + 1) * q1, 0)),
                                  (n - 3, ((n + 2) * q1, 0, (n + 2) * q1))]],
        Family.C1_EVEN: [[(n - 2, (3 * (n + 2) * (2 * n * n - 1) - 2 * delta, 0, 0)),
                          (n - 3, ((n + 2) * q, 0, 0))]],
    }[spec.id]


def paper_a(spec):
    """The normalization constant A per interval of spec, exact."""
    n = spec.n
    q, q1 = 2 * n * n + 2 * n - 3, 2 * n * n + 6 * n + 1
    return {
        Family.C0_ODD: [2 * (n + 1) * (2 * n + 1) * n * n, 2 * n * (2 * n - 1)],
        Family.C0_EVEN: [2 * (n + 1) * (2 * n + 1)],
        Family.C1_ODD_ENDPOINT: [Fraction(2 * n * (n + 1) * (n + 2), 9)],
        Family.C1_ODD_INTERIOR: [Fraction(2 * (n - 1) * (n + 1) * (n + 2) * (2 * n + 1)
                                          * (2 * n + 3) * q * q1, 9)],
        Family.C1_EVEN: [Fraction(2 * (n - 1) * n * (n + 1) * (n + 2) * (2 * n + 1) * q * q, 9)],
    }[spec.id]


def paper_f(family, x):
    """The extra factor f(x) of the family's weight denominators."""
    if family is Family.C1_ODD_ENDPOINT:
        return (1 - x * x) ** 2
    if family is Family.C1_EVEN:
        return (1 + x) * (1 - x) ** 2
    return 1


def gegenbauer_values(alpha, x, top):
    """[C_0^(alpha)(x), ..., C_top^(alpha)(x)] in mpf, by the three-term
    recurrence (DLMF 18.9.1)."""
    alpha = mpmath.mpf(alpha)
    c = [mpmath.mpf(1), 2 * alpha * x]
    for k in range(2, top + 1):
        c.append((2 * (k + alpha - 1) * x * c[-1] - (k + 2 * alpha - 2) * c[-2]) / k)
    return c[:top + 1]


def paper_weight(spec, k, x):
    """A / (R'(x) S(x) f(x)) of interval k of spec at the mpf x, at the
    current precision."""
    iv, a, s_terms = spec.intervals[k], paper_a(spec)[k], paper_s(spec)[k]
    alpha, top = iv.r.alpha, spec.n + 1
    c, raised = gegenbauer_values(alpha, x, top), gegenbauer_values(alpha + 1, x, top)
    # C_d = 0 for d < 0
    rder = sum(c_d * 2 * mpmath.mpf(alpha) * raised[d - 1] for d, c_d in iv.r.terms if d > 0)
    s = sum((c0 + (c1 + c2 * x) * x) * c[d] for d, (c0, c1, c2) in s_terms if d >= 0)
    return mpmath.mpf(a.numerator) / (a.denominator * rder * s * paper_f(spec.id, x))
