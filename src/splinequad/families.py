"""Closed-form construction data for the five spline quadrature families.

:func:`build_family` is the one way to build a spec.  It checks the
family, n and the delta sign, runs the family's private formula
function, which returns delta and the intervals, and makes the
:class:`FamilySpec` from them.

The spec is rational.  The paper states every family in closed form in
n and one surd, delta = sqrt(d) with d rational, and every constant of a
spec is an int or a Fraction: delta is the root truncated to
DELTA_DECIMALS decimals (:func:`_sqrt`), and the constants formed from
it are Fractions too.  A spec thus takes no precision from mpmath, and
builds the same wherever it is made; :mod:`splinequad.assembly` converts each
constant once into its working arithmetic (float, double-double, or mpf
at the working precision).

The result is a :class:`FamilySpec`: the family, n, delta, and per
interval of the period an :class:`IntervalSpec` holding the polynomial R
whose roots are the free nodes (a combination of Gegenbauer
polynomials with constant coefficients), the number of free nodes and
an optional fixed endpoint node with its closed-form weight: the data
the paper states per family, and nothing derived from it.  The C1 even
spec lists its first interval only: the second is the first's free part
reflected at 0.  That is all :func:`splinequad.assembly.assemble` reads;
the degree and the period length follow from the family and the
intervals, and the constant K of the free weights from R.

Every R is a C_m, or C_m plus a multiple of C_(m-1) or C_(m-2), all of
order alpha: a quasi-orthogonal Gegenbauer polynomial (Chihara, Proc.
AMS 8, 1957).  Its roots are the eigenvalues of a Jacobi matrix that
differs from C_m's in the last row only, and the paper's weights of its
free nodes are that matrix's Gauss-type weights (Golub & Welsch, Math.
Comp. 23, 1969) over the weight function of the C_k:

    w(x) = K / (C_(m-1)(x) R'(x) (1 - x^2)^(alpha - 1/2)),

by Christoffel-Darboux, with K from R alone
(:func:`splinequad.gegenbauer.christoffel_constant`).
The paper writes them A / (R'(x) S(x) f(x)), with a second polynomial S,
a constant A and a factor f per family; at 110 digits the two agree to
1.3e-105 relative in every family at n = 2, 3, 24 and 50
(``tests/paper.py`` keeps the paper's form as a test reference).

Everything is stated in the reference interval [-1, 1]; scaling to unit
intervals happens in :mod:`splinequad.assembly`.

The five families:

===========  ======  ========  =========================================
family       degree  period    structure
===========  ======  ========  =========================================
C0 odd       2n-1    2         n nodes + (n-1) nodes ("1/2 rule")
C0 even      2n      1         n nodes, no reflection symmetry
C1 odd (ep)  2n+1    1         node at the interval end + (n-1) interior
C1 odd (in)  2n+1    1         n interior nodes
C1 even      2n      2         endpoint + (n-1) nodes, mirrored interval
===========  ======  ========  =========================================
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .gegenbauer import GegenbauerCombo

# decimals of delta: more than any working precision that converts the
# spec (60 digits for the 50-digit rules, 120 for the tests' 110-digit
# references), with room for the cancellation between a constant's
# rational and delta parts, which costs under one digit (a factor 6.8 at
# C1 odd interior n = 2)
DELTA_DECIMALS = 200

# largest supported n in every family, in both precisions
MAX_N = 200


def is_integer(value) -> bool:
    """Whether value is an integer: an Integral other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Family(enum.Enum):
    """The five valid (smoothness, parity, variant) combinations."""

    C0_ODD = ("c0", "odd", "default")
    C0_EVEN = ("c0", "even", "default")
    C1_ODD_ENDPOINT = ("c1", "odd", "endpoint")
    C1_ODD_INTERIOR = ("c1", "odd", "interior")
    C1_EVEN = ("c1", "even", "default")

    @property
    def smoothness(self) -> int:
        return 0 if self.value[0] == "c0" else 1

    @property
    def parity(self) -> str:
        return self.value[1]

    @property
    def variant(self) -> str:
        return self.value[2]

    @property
    def min_n(self) -> int:
        """Smallest valid n; the C1 even formulas need n >= 2."""
        return 2 if self is Family.C1_EVEN else 1

    def degree(self, n: int) -> int:
        """Polynomial degree of exactness of the rule with index n."""
        if self.parity == "even":
            return 2 * n
        return 2 * n - 1 if self.smoothness == 0 else 2 * n + 1

    @property
    def id_suffix(self) -> str:
        """Suffix of the catalog id: x2 marks the interior variant."""
        return "x2" if self.variant == "interior" else ""

    def check_n(self, n: int):
        """Raise a ValueError naming the family and n unless n is an
        integer (not a bool) in min_n..MAX_N."""
        if not (is_integer(n) and self.min_n <= n <= MAX_N):
            raise ValueError(f"{self.name} n={n!r}: n must be an integer "
                             f"in {self.min_n}..{MAX_N}")


@dataclass(frozen=True)
class IntervalSpec:
    """Construction data for one interval of a family's period: R, whose
    roots are the free nodes, their number, and the fixed endpoint node
    with its weight, if any.

    R's constants and the fixed node are ints or Fractions, so an
    interval made or ``dataclasses.replace``d anywhere equals the one
    :func:`build_family` makes.  The number of free nodes is R's degree
    where there are any; it is kept to check the root count against.
    The constant K of the free weights is not stored: assembly derives
    it from R (:func:`splinequad.gegenbauer.christoffel_constant`).
    """

    r: GegenbauerCombo
    expected_free_nodes: int
    fixed_node: Optional[tuple] = None  # (x, w); x an int, w an int or Fraction


@dataclass(frozen=True)
class FamilySpec:
    """A fully specified family instance, ready for assembly."""

    id: Family
    n: int
    delta: object  # a Fraction (_sqrt); 0 when the family has no delta
    intervals: tuple
    second_interval_by_reflection: bool = False


def _sqrt(radicand: Fraction) -> Fraction:
    """sqrt(radicand) truncated to DELTA_DECIMALS decimals, as a Fraction:
    floor(sqrt(radicand) 10^D) / 10^D, by the integer square root, so
    exact where the root is a decimal of at most D places (12 for C1
    even at n = 2).  Every coefficient computed from it is a Fraction
    too; all others are ints or Fractions.
    """
    scale = 10 ** DELTA_DECIMALS
    return Fraction(math.isqrt(radicand.numerator * scale * scale // radicand.denominator), scale)


def _c0_odd(n: int) -> tuple:
    """C0, odd degree D = 2n - 1, periodic over two intervals.

    First interval: R_n = n^2 C_n - (n+1)^2 C_{n-2} with n free nodes;
    second interval: R_{n-1} = C_{n-1} with n - 1 free nodes.  Order 3/2.

    At n = 1 the first R is C_1, its C_{-1} term dropped, and the
    paper's weight at its root 0 is 4, the whole period's: not the
    Christoffel weight 4/3.  That interval is hard-coded as the fixed
    node 0 with weight 4.
    """
    a = 1.5
    if n == 1:
        first = IntervalSpec(r=GegenbauerCombo.build(a, []), expected_free_nodes=0,
                             fixed_node=(0, 4))
    else:
        first = IntervalSpec(
            r=GegenbauerCombo.build(a, [(n, n * n), (n - 2, -((n + 1) ** 2))]),
            expected_free_nodes=n,
        )
    second = IntervalSpec(r=GegenbauerCombo.build(a, [(n - 1, 1)]), expected_free_nodes=n - 1)
    return 0, (first, second)


def _c0_even(n: int, delta_sign: int) -> tuple:
    """C0, even degree D = 2n, periodic over one interval.

    delta = sqrt((n+2)/n); both signs are admissible and give mirror-image
    rules.  The + sign matches the reference tables.
    """
    delta = delta_sign * _sqrt(Fraction(n + 2, n))
    interval = IntervalSpec(
        r=GegenbauerCombo.build(1.5, [(n, 1), (n - 1, delta)]),
        expected_free_nodes=n,
    )
    return delta, (interval,)


def _c1_endpoint(n: int) -> tuple:
    """C1, odd degree D = 2n + 1, one interval, with a node at x = -1.

    The free nodes are the roots of C_{n-1}^(5/2), with the Gauss-Gegenbauer
    weights over (1 - x^2)^2; the endpoint weight has its own closed form.
    """
    w1 = Fraction(16 * (2 * n * n + 6 * n + 1), 3 * n * (n + 1) * (n + 2) * (n + 3))
    interval = IntervalSpec(
        r=GegenbauerCombo.build(2.5, [(n - 1, 1)]),
        expected_free_nodes=n - 1,
        fixed_node=(-1, w1),
    )
    return 0, (interval,)


def _c1_interior(n: int, delta_sign: int) -> tuple:
    """C1, odd degree D = 2n + 1, one interval, all nodes interior.

    delta = sqrt(3(n^2 + 3n - 1) / (n (n+3))), positive root only: the
    negative root pushes roots of R outside [-1, 1] and yields no rule.
    delta_sign = -1 is accepted purely as a diagnostic mode so callers can
    observe that failure.

    The formulas degenerate at n = 1 (the C_n coefficient vanishes), but
    the limiting rule is the midpoint rule: single node 0 with weight 2 on
    [-1, 1].  That case is hard-coded, with delta 0.
    """
    a = 2.5
    if n == 1:
        interval = IntervalSpec(r=GegenbauerCombo.build(a, []), expected_free_nodes=0,
                                fixed_node=(0, 2))
        return 0, (interval,)
    delta = delta_sign * _sqrt(Fraction(3 * (n * n + 3 * n - 1), n * (n + 3)))
    interval = IntervalSpec(
        r=GegenbauerCombo.build(
            a,
            [
                (n, (n - 1) * (2 * n * n + 2 * n - 3)),
                (n - 2, -(n + 3) * (2 * n * n + 6 * n + 7 - 2 * (2 * n + 3) * delta)),
            ],
        ),
        expected_free_nodes=n,
    )
    return delta, (interval,)


def _c1_even(n: int) -> tuple:
    """C1, even degree D = 2n, periodic over two intervals ("1/2 rule").

    First interval: node at -1 with a closed-form weight plus the n - 1
    roots of R_{n-1}.  The second interval is the first's free nodes
    reflected at 0, same weights.
    """
    delta = _sqrt(Fraction(3 * n * (n + 2) * (n * n + 2 * n - 2)))
    w1 = (
        8 * (2 * n * n + 4 * n - 3)
        * (2 * n ** 4 + 8 * n ** 3 + 4 * n * n - 8 * n - 3 - delta)
        / (3 * (n - 1) * n * (n + 2) * (n + 3) * (n * n + 2 * n - 2) * (n + 1) ** 2)
    )
    first = IntervalSpec(
        r=GegenbauerCombo.build(
            2.5,
            [
                (n - 1, (n - 1) * (2 * n * n + 2 * n - 3)),
                (n - 2, 2 * delta + 3 - n - 6 * n * n - 2 * n ** 3),
            ],
        ),
        expected_free_nodes=n - 1,
        fixed_node=(-1, w1),
    )
    return delta, (first,)


_FORMULAS = {
    Family.C0_ODD: _c0_odd,
    Family.C0_EVEN: _c0_even,
    Family.C1_ODD_ENDPOINT: _c1_endpoint,
    Family.C1_ODD_INTERIOR: _c1_interior,
    Family.C1_EVEN: _c1_even,
}

# the families with a choice of delta sign; their formulas take it
_SIGN_CHOICE = (Family.C0_EVEN, Family.C1_ODD_INTERIOR)


def build_family(family: Family, n: int, delta_sign: int = +1) -> FamilySpec:
    """The spec of ``family`` at index n: delta and the intervals from
    the family's formula function, every constant an int or a Fraction.
    C1 even's second interval is its first reflected, so its spec is
    marked ``second_interval_by_reflection``.

    Raises a ValueError naming the family and n when family is not a
    :class:`Family`, when n is not an integer in the family's range
    (:meth:`Family.check_n`), or when delta_sign is not allowed: +1 or
    -1 for C0 even and C1 odd interior, +1 for the families without a
    sign choice.
    """
    if not isinstance(family, Family):
        raise ValueError(f"{family!r} n={n!r}: not a Family")
    family.check_n(n)
    n = int(n)  # any Integral passes check_n; a numpy integer would overflow in the formulas
    signed = family in _SIGN_CHOICE
    if delta_sign not in ((+1, -1) if signed else (+1,)):
        raise ValueError(f"{family.name} n={n}: delta_sign must be "
                         f"{'+1 or -1' if signed else '+1'}, not {delta_sign!r}")
    formula = _FORMULAS[family]
    delta, intervals = formula(n, delta_sign) if signed else formula(n)
    return FamilySpec(id=family, n=n, delta=delta, intervals=intervals,
                      second_interval_by_reflection=family is Family.C1_EVEN)
