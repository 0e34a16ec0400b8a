"""Closed-form construction data for the five spline quadrature families.

:func:`build_family` is the one way to build a spec.  It checks the
family, n and the delta sign, then runs the family's private formula
function at EXTENDED_DPS + GUARD_DIGITS digits.  The guard digits matter:
S cancels near +-1, and that cancellation magnifies the rounding error of
every coefficient that involves delta into the weights.  The weight is
also sensitive to its node (|d log w / dx| reaches 3.4e9 at n = 200), so
the extended polish in :mod:`splinequad.assembly` runs with the same
guard digits.  Against a spec and assembly at 110 digits, the 50-digit
C1 odd interior weights at n = 200 were off by 5e-44 relative with the
spec at exactly 50 digits and by 3e-48 with 5 guard digits; with 10, the
weights of every family are within 1.3e-51.

The result is a :class:`FamilySpec`: the family, n, delta, and per
interval of the period an :class:`IntervalSpec` holding the polynomial R
whose roots are the free nodes (a combination of Gegenbauer
polynomials with constant coefficients), the companion polynomial S of
the weight denominator (where the paper writes x C_d or (1 + x^2) C_d,
expanded into such terms by :func:`splinequad.gegenbauer.times_x`), the
normalization constant A, an optional fixed endpoint node with its
closed-form weight, the extra denominator factor f (a function of x),
and the number of free nodes.  The weights of the free nodes are
A / (R'(x) S(x) f(x)).  The C1 even spec lists
its first interval only: the second is the first's free part reflected
at 0.  That is all :func:`splinequad.assembly.assemble` reads; the
degree and the period length follow from the family and the intervals.

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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath

from .gegenbauer import GegenbauerCombo, times_x

# dps of the extended-precision rules
EXTENDED_DPS = 50

# digits past EXTENDED_DPS at which the spec and the extended polish,
# weights and division run
GUARD_DIGITS = 10

# largest supported n in every family, in both precisions
MAX_N = 200


# Extra factors f(x) multiplying R'(x) * S(x) in the weight denominators.
# Products only, no powers: they also evaluate on double-double arrays.
def no_extra_factor(x):
    """f(x) = 1."""
    return 1


def c1_endpoint_factor(x):
    """f(x) = (1 - x^2)^2, the C1 odd endpoint family."""
    return (1 - x * x) * (1 - x * x)


def c1_even_factor(x):
    """f(x) = (1 + x)(1 - x)^2, the C1 even family."""
    return (1 + x) * ((1 - x) * (1 - x))


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
    """Construction data for one interval of a family's period."""

    r: GegenbauerCombo
    s: GegenbauerCombo
    a: object  # normalization constant, exact (int or Fraction)
    expected_free_nodes: int
    fixed_node: Optional[tuple] = None  # (x, w); x an int, w exact or mpf
    extra_weight_factor: Callable = no_extra_factor  # f(x) of the denominators


@dataclass(frozen=True)
class FamilySpec:
    """A fully specified family instance, ready for assembly."""

    id: Family
    n: int
    delta: object  # mpf at EXTENDED_DPS + GUARD_DIGITS; 0 when the family has no delta
    intervals: tuple
    second_interval_by_reflection: bool = False


def _sqrt(radicand: Fraction):
    """sqrt(radicand) as an mpf at the working precision.

    :func:`build_family` runs every formula at EXTENDED_DPS +
    GUARD_DIGITS, so delta and every coefficient computed from it are mpf
    values at that precision; all other coefficients are exact ints or
    Fractions.
    """
    num = mpmath.mpf(radicand.numerator)
    den = mpmath.mpf(radicand.denominator)
    return mpmath.sqrt(num / den)


def _c0_odd(n: int) -> FamilySpec:
    """C0, odd degree D = 2n - 1, periodic over two intervals.

    First interval: R_n = n^2 C_n - (n+1)^2 C_{n-2} with n free nodes;
    second interval: R_{n-1} = C_{n-1} with n - 1 free nodes.  Order 3/2.
    """
    a = 1.5
    first = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n, n * n), (n - 2, -((n + 1) ** 2))]),
        s=GegenbauerCombo.build(a, [(n - 1, n)] + times_x(a, [(n - 2, -(n + 1))])),
        a=2 * (n + 1) * (2 * n + 1) * n * n,
        expected_free_nodes=n,
    )
    second = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n - 1, 1)]),
        s=GegenbauerCombo.build(a, [(n - 2, 2 * n - 1)] + times_x(a, [(n - 3, -n)])),
        a=2 * n * (2 * n - 1),
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C0_ODD, n=n, delta=0, intervals=(first, second),
    )


def _c0_even(n: int, delta_sign: int) -> FamilySpec:
    """C0, even degree D = 2n, periodic over one interval.

    delta = sqrt((n+2)/n); both signs are admissible and give mirror-image
    rules.  The + sign matches the reference tables.
    """
    a = 1.5
    delta = delta_sign * _sqrt(Fraction(n + 2, n))
    interval = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n, 1), (n - 1, delta)]),
        s=GegenbauerCombo.build(
            a,
            [(n - 1, 2 * n + 1)] + times_x(a, [(n - 1, delta * n), (n - 2, -(n + 1))]),
        ),
        a=2 * (n + 1) * (2 * n + 1),
        expected_free_nodes=n,
    )
    return FamilySpec(
        id=Family.C0_EVEN, n=n, delta=delta, intervals=(interval,),
    )


def _c1_endpoint(n: int) -> FamilySpec:
    """C1, odd degree D = 2n + 1, one interval, with a node at x = -1.

    The free nodes are the roots of C_{n-1}^(5/2); the endpoint weight has
    its own closed form and the free-node denominators carry the extra
    factor (1 - x^2)^2.
    """
    a = 2.5
    w1 = Fraction(16 * (2 * n * n + 6 * n + 1), 3 * n * (n + 1) * (n + 2) * (n + 3))
    interval = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n - 1, 1)]),
        s=GegenbauerCombo.build(a, [(n - 2, 1)]),
        a=Fraction(2 * n * (n + 1) * (n + 2), 9),
        expected_free_nodes=n - 1,
        fixed_node=(-1, w1),
        extra_weight_factor=c1_endpoint_factor,
    )
    return FamilySpec(
        id=Family.C1_ODD_ENDPOINT, n=n, delta=0, intervals=(interval,),
    )


def _c1_interior(n: int, delta_sign: int) -> FamilySpec:
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
        interval = IntervalSpec(
            r=GegenbauerCombo.build(a, []),
            s=GegenbauerCombo.build(a, []),
            a=1,
            expected_free_nodes=0,
            fixed_node=(0, 2),
        )
        return FamilySpec(
            id=Family.C1_ODD_INTERIOR, n=1, delta=0, intervals=(interval,),
        )
    delta = delta_sign * _sqrt(Fraction(3 * (n * n + 3 * n - 1), n * (n + 3)))
    q1 = 2 * n * n + 6 * n + 1
    # the terms the paper multiplies by (1 + x^2)
    outer = [(n - 1, n * (6 * n * n + 6 * n - 3 + 2 * (2 * n + 1) * delta)), (n - 3, (n + 2) * q1)]
    interval = IntervalSpec(
        r=GegenbauerCombo.build(
            a,
            [
                (n, (n - 1) * (2 * n * n + 2 * n - 3)),
                (n - 2, -(n + 3) * (2 * n * n + 6 * n + 7 - 2 * (2 * n + 3) * delta)),
            ],
        ),
        # (1 + x^2) outer + x middle = outer + x (middle + x outer)
        s=GegenbauerCombo.build(
            a, outer + times_x(a, [(n - 2, -4 * (2 * n + 1) * q1)] + times_x(a, outer)),
        ),
        a=Fraction(
            2 * (n - 1) * (n + 1) * (n + 2) * (2 * n + 1) * (2 * n + 3)
            * (2 * n * n + 2 * n - 3) * q1,
            9,
        ),
        expected_free_nodes=n,
    )
    return FamilySpec(
        id=Family.C1_ODD_INTERIOR, n=n, delta=delta, intervals=(interval,),
    )


def _c1_even(n: int) -> FamilySpec:
    """C1, even degree D = 2n, periodic over two intervals ("1/2 rule").

    First interval: node at -1 with a closed-form weight plus the n - 1
    roots of R_{n-1}, denominators carrying (1 + x)(1 - x)^2.  The second
    interval is the first's free nodes reflected at 0, same weights.
    """
    a = 2.5
    delta = _sqrt(Fraction(3 * n * (n + 2) * (n * n + 2 * n - 2)))
    q = 2 * n * n + 2 * n - 3
    w1 = (
        8 * (2 * n * n + 4 * n - 3)
        * (2 * n ** 4 + 8 * n ** 3 + 4 * n * n - 8 * n - 3 - delta)
        / (3 * (n - 1) * n * (n + 2) * (n + 3) * (n * n + 2 * n - 2) * (n + 1) ** 2)
    )
    first = IntervalSpec(
        r=GegenbauerCombo.build(
            a,
            [
                (n - 1, (n - 1) * q),
                (n - 2, 2 * delta + 3 - n - 6 * n * n - 2 * n ** 3),
            ],
        ),
        s=GegenbauerCombo.build(
            a,
            [
                (n - 2, 3 * (n + 2) * (2 * n * n - 1) - 2 * delta),
                (n - 3, (n + 2) * q),
            ],
        ),
        a=Fraction(2 * (n - 1) * n * (n + 1) * (n + 2) * (2 * n + 1) * q * q, 9),
        expected_free_nodes=n - 1,
        fixed_node=(-1, w1),
        extra_weight_factor=c1_even_factor,
    )
    return FamilySpec(
        id=Family.C1_EVEN, n=n, delta=delta, intervals=(first,),
        second_interval_by_reflection=True,
    )


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
    """The spec of ``family`` at index n, its formulas run at EXTENDED_DPS +
    GUARD_DIGITS.

    Raises a ValueError naming the family and n when family is not a
    :class:`Family`, when n is not an integer in the family's range
    (:meth:`Family.check_n`), or when delta_sign is not allowed: +1 or
    -1 for C0 even and C1 odd interior, +1 for the families without a
    sign choice.
    """
    if not isinstance(family, Family):
        raise ValueError(f"{family!r} n={n!r}: not a Family")
    family.check_n(n)
    n = int(n)  # any Integral passes check_n; mpmath and Fraction take int
    signed = family in _SIGN_CHOICE
    if delta_sign not in ((+1, -1) if signed else (+1,)):
        raise ValueError(f"{family.name} n={n}: delta_sign must be "
                         f"{'+1 or -1' if signed else '+1'}, not {delta_sign!r}")
    formula = _FORMULAS[family]
    with mpmath.workdps(EXTENDED_DPS + GUARD_DIGITS):
        return formula(n, delta_sign) if signed else formula(n)
