"""Closed-form construction data for the five spline quadrature families.

Each builder returns a :class:`FamilySpec`: the family, n, delta, and
per interval of the period an :class:`IntervalSpec` holding the
polynomial R whose roots are the free nodes, the companion polynomial S
of the weight denominator, the normalization constant A, an optional
fixed endpoint node with its closed-form weight, the extra denominator
factor f (a function of x), and the number of free nodes.  The weights
of the free nodes are A / (R'(x) S(x) f(x)).  The C1 even spec lists
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath

from .gegenbauer import GegenbauerCombo

# dps of every coefficient that involves delta, and of the whole
# extended-precision path
EXTENDED_DPS = 50

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
        """Raise a ValueError naming the family and n outside min_n..MAX_N."""
        if not self.min_n <= n <= MAX_N:
            raise ValueError(f"{self.name} n={n}: outside {self.min_n} <= n <= {MAX_N}")


@dataclass(frozen=True)
class IntervalSpec:
    """Construction data for one interval of a family's period."""

    r: GegenbauerCombo
    s: GegenbauerCombo
    a: object  # normalization constant, exact (int or Fraction)
    fixed_node: Optional[tuple]  # (x, w) or None; x an int, w exact or mpf
    extra_weight_factor: Callable  # f(x) of the weight denominators
    expected_free_nodes: int


@dataclass(frozen=True)
class FamilySpec:
    """A fully specified family instance, ready for assembly."""

    id: Family
    n: int
    delta: object  # mpf at EXTENDED_DPS; 0 when the family has no delta
    intervals: tuple
    second_interval_by_reflection: bool = False


def _sqrt(radicand: Fraction, sign: int):
    """sign * sqrt(radicand) at the working precision.

    The builders that call this run at EXTENDED_DPS, so delta and every
    coefficient computed from it are mpf values at that precision; all
    other coefficients are exact ints or Fractions.  A sign other than
    +1 or -1 raises a ValueError.
    """
    if sign not in (+1, -1):
        raise ValueError("delta_sign must be +1 or -1")
    num = mpmath.mpf(radicand.numerator)
    den = mpmath.mpf(radicand.denominator)
    return sign * mpmath.sqrt(num / den)


def build_c0_odd(n: int) -> FamilySpec:
    """C0, odd degree D = 2n - 1, periodic over two intervals.

    First interval: R_n = n^2 C_n - (n+1)^2 C_{n-2} with n free nodes;
    second interval: R_{n-1} = C_{n-1} with n - 1 free nodes.  Order 3/2.
    """
    Family.C0_ODD.check_n(n)
    a = 1.5
    first = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n, n * n), (n - 2, -((n + 1) ** 2))]),
        s=GegenbauerCombo.build(a, [(n - 1, n), (n - 2, (0, -(n + 1), 0))]),
        a=2 * (n + 1) * (2 * n + 1) * n * n,
        fixed_node=None,
        extra_weight_factor=no_extra_factor,
        expected_free_nodes=n,
    )
    second = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n - 1, 1)]),
        s=GegenbauerCombo.build(a, [(n - 2, 2 * n - 1), (n - 3, (0, -n, 0))]),
        a=2 * n * (2 * n - 1),
        fixed_node=None,
        extra_weight_factor=no_extra_factor,
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C0_ODD, n=n, delta=0, intervals=(first, second),
    )


@mpmath.workdps(EXTENDED_DPS)
def build_c0_even(n: int, delta_sign: int = +1) -> FamilySpec:
    """C0, even degree D = 2n, periodic over one interval.

    delta = sqrt((n+2)/n); both signs are admissible and give mirror-image
    rules.  The default + sign matches the reference tables.
    """
    Family.C0_EVEN.check_n(n)
    a = 1.5
    delta = _sqrt(Fraction(n + 2, n), delta_sign)
    interval = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n, 1), (n - 1, delta)]),
        s=GegenbauerCombo.build(
            a,
            [(n - 1, (2 * n + 1, delta * n, 0)), (n - 2, (0, -(n + 1), 0))],
        ),
        a=2 * (n + 1) * (2 * n + 1),
        fixed_node=None,
        extra_weight_factor=no_extra_factor,
        expected_free_nodes=n,
    )
    return FamilySpec(
        id=Family.C0_EVEN, n=n, delta=delta, intervals=(interval,),
    )


def build_c1_endpoint(n: int) -> FamilySpec:
    """C1, odd degree D = 2n + 1, one interval, with a node at x = -1.

    The free nodes are the roots of C_{n-1}^(5/2); the endpoint weight has
    its own closed form and the free-node denominators carry the extra
    factor (1 - x^2)^2.
    """
    Family.C1_ODD_ENDPOINT.check_n(n)
    a = 2.5
    w1 = Fraction(16 * (2 * n * n + 6 * n + 1), 3 * n * (n + 1) * (n + 2) * (n + 3))
    interval = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n - 1, 1)]),
        s=GegenbauerCombo.build(a, [(n - 2, 1)]),
        a=Fraction(2 * n * (n + 1) * (n + 2), 9),
        fixed_node=(-1, w1),
        extra_weight_factor=c1_endpoint_factor,
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C1_ODD_ENDPOINT, n=n, delta=0, intervals=(interval,),
    )


@mpmath.workdps(EXTENDED_DPS)
def build_c1_interior(n: int, delta_sign: int = +1) -> FamilySpec:
    """C1, odd degree D = 2n + 1, one interval, all nodes interior.

    delta = sqrt(3(n^2 + 3n - 1) / (n (n+3))), positive root only: the
    negative root pushes roots of R outside [-1, 1] and yields no rule.
    delta_sign = -1 is accepted purely as a diagnostic mode so callers can
    observe that failure.

    The formulas degenerate at n = 1 (the C_n coefficient vanishes), but
    the limiting rule is the midpoint rule: single node 0 with weight 2 on
    [-1, 1].  That case is hard-coded, with delta 0; delta_sign is
    checked all the same.
    """
    Family.C1_ODD_INTERIOR.check_n(n)
    a = 2.5
    delta = _sqrt(Fraction(3 * (n * n + 3 * n - 1), n * (n + 3)), delta_sign)
    if n == 1:
        interval = IntervalSpec(
            r=GegenbauerCombo.build(a, []),
            s=GegenbauerCombo.build(a, []),
            a=1,
            fixed_node=(0, 2),
            extra_weight_factor=no_extra_factor,
            expected_free_nodes=0,
        )
        return FamilySpec(
            id=Family.C1_ODD_INTERIOR, n=1, delta=0, intervals=(interval,),
        )
    q1 = 2 * n * n + 6 * n + 1
    interval = IntervalSpec(
        r=GegenbauerCombo.build(
            a,
            [
                (n, (n - 1) * (2 * n * n + 2 * n - 3)),
                (n - 2, -(n + 3) * (2 * n * n + 6 * n + 7 - 2 * (2 * n + 3) * delta)),
            ],
        ),
        s=GegenbauerCombo.build(
            a,
            [
                (n - 1, _one_plus_x2(n * (6 * n * n + 6 * n - 3 + 2 * (2 * n + 1) * delta))),
                (n - 2, (0, -4 * (2 * n + 1) * q1, 0)),
                (n - 3, _one_plus_x2((n + 2) * q1)),
            ],
        ),
        a=Fraction(
            2 * (n - 1) * (n + 1) * (n + 2) * (2 * n + 1) * (2 * n + 3)
            * (2 * n * n + 2 * n - 3) * q1,
            9,
        ),
        fixed_node=None,
        extra_weight_factor=no_extra_factor,
        expected_free_nodes=n,
    )
    return FamilySpec(
        id=Family.C1_ODD_INTERIOR, n=n, delta=delta, intervals=(interval,),
    )


def _one_plus_x2(c):
    """Coefficient tuple for c * (1 + x^2)."""
    return (c, 0, c)


@mpmath.workdps(EXTENDED_DPS)
def build_c1_even(n: int) -> FamilySpec:
    """C1, even degree D = 2n, periodic over two intervals ("1/2 rule").

    First interval: node at -1 with a closed-form weight plus the n - 1
    roots of R_{n-1}, denominators carrying (1 + x)(1 - x)^2.  The second
    interval is the first's free nodes reflected at 0, same weights.
    """
    Family.C1_EVEN.check_n(n)
    a = 2.5
    delta = _sqrt(Fraction(3 * n * (n + 2) * (n * n + 2 * n - 2)), +1)
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
        fixed_node=(-1, w1),
        extra_weight_factor=c1_even_factor,
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C1_EVEN, n=n, delta=delta, intervals=(first,),
        second_interval_by_reflection=True,
    )


_BUILDERS = {
    Family.C0_ODD: build_c0_odd,
    Family.C0_EVEN: build_c0_even,
    Family.C1_ODD_ENDPOINT: build_c1_endpoint,
    Family.C1_ODD_INTERIOR: build_c1_interior,
    Family.C1_EVEN: build_c1_even,
}


def build_family(family: Family, n: int, delta_sign: int = +1) -> FamilySpec:
    """Dispatch to the family's builder, forwarding delta_sign where it applies.

    Only C0 even and C1 odd interior have a sign choice; the other
    families raise a ValueError naming the family and n for any
    delta_sign other than +1.
    """
    builder = _BUILDERS[family]
    if family in (Family.C0_EVEN, Family.C1_ODD_INTERIOR):
        return builder(n, delta_sign=delta_sign)
    if delta_sign != +1:
        raise ValueError(f"{family.name} n={n}: delta_sign {delta_sign!r} given, "
                         "but the family has no sign choice")
    return builder(n)
