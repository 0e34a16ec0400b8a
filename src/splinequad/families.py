"""Closed-form construction data for the five spline quadrature families.

Each builder returns a :class:`FamilySpec` holding, per interval of the
period, the polynomial R whose roots are the free nodes, the companion
polynomial S appearing in the weight denominator, the normalization
constant A, an optional fixed endpoint node with its closed-form weight,
and the extra denominator factor used by the C1 families.

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
from typing import Optional

import mpmath

from .gegenbauer import GegenbauerCombo

# dps of every coefficient that involves delta, and of the whole
# extended-precision path
EXTENDED_DPS = 50

# largest supported n in every family, in both precisions
MAX_N = 200

# extra factors multiplying R'(x) * S(x) in the weight denominators
FACTOR_ONE = "one"
FACTOR_C1_ENDPOINT = "(1-x^2)^2"
FACTOR_C1_EVEN = "(1+x)(1-x)^2"


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
    extra_weight_factor: str
    expected_free_nodes: int


@dataclass(frozen=True)
class FamilySpec:
    """A fully specified family instance, ready for assembly."""

    id: Family
    n: int
    degree: int
    delta: object  # mpf at EXTENDED_DPS; 0 when the family has no delta
    delta_radicand: Optional[Fraction]
    delta_sign: int
    period_intervals: int
    intervals: tuple
    second_interval_by_reflection: bool = False


def _sqrt(radicand: Fraction, sign: int):
    """sign * sqrt(radicand) at the working precision.

    The builders that call this run at EXTENDED_DPS, so delta and every
    coefficient computed from it are mpf values at that precision; all
    other coefficients are exact ints or Fractions.
    """
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
        extra_weight_factor=FACTOR_ONE,
        expected_free_nodes=n,
    )
    second = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n - 1, 1)]),
        s=GegenbauerCombo.build(a, [(n - 2, 2 * n - 1), (n - 3, (0, -n, 0))]),
        a=2 * n * (2 * n - 1),
        fixed_node=None,
        extra_weight_factor=FACTOR_ONE,
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C0_ODD, n=n, degree=Family.C0_ODD.degree(n),
        delta=0, delta_radicand=None, delta_sign=0,
        period_intervals=2, intervals=(first, second),
    )


@mpmath.workdps(EXTENDED_DPS)
def build_c0_even(n: int, delta_sign: int = +1) -> FamilySpec:
    """C0, even degree D = 2n, periodic over one interval.

    delta = sqrt((n+2)/n); both signs are admissible and give mirror-image
    rules.  The default + sign matches the reference tables.
    """
    Family.C0_EVEN.check_n(n)
    if delta_sign not in (+1, -1):
        raise ValueError("delta_sign must be +1 or -1")
    a = 1.5
    radicand = Fraction(n + 2, n)
    delta = _sqrt(radicand, delta_sign)
    interval = IntervalSpec(
        r=GegenbauerCombo.build(a, [(n, 1), (n - 1, delta)]),
        s=GegenbauerCombo.build(
            a,
            [(n - 1, (2 * n + 1, delta * n, 0)), (n - 2, (0, -(n + 1), 0))],
        ),
        a=2 * (n + 1) * (2 * n + 1),
        fixed_node=None,
        extra_weight_factor=FACTOR_ONE,
        expected_free_nodes=n,
    )
    return FamilySpec(
        id=Family.C0_EVEN, n=n, degree=Family.C0_EVEN.degree(n),
        delta=delta, delta_radicand=radicand, delta_sign=delta_sign,
        period_intervals=1, intervals=(interval,),
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
        extra_weight_factor=FACTOR_C1_ENDPOINT,
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C1_ODD_ENDPOINT, n=n, degree=Family.C1_ODD_ENDPOINT.degree(n),
        delta=0, delta_radicand=None, delta_sign=0,
        period_intervals=1, intervals=(interval,),
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
    [-1, 1].  That case is hard-coded.
    """
    Family.C1_ODD_INTERIOR.check_n(n)
    if delta_sign not in (+1, -1):
        raise ValueError("delta_sign must be +1 or -1")
    a = 2.5
    if n == 1:
        interval = IntervalSpec(
            r=GegenbauerCombo.build(a, []),
            s=GegenbauerCombo.build(a, []),
            a=1,
            fixed_node=(0, 2),
            extra_weight_factor=FACTOR_ONE,
            expected_free_nodes=0,
        )
        return FamilySpec(
            id=Family.C1_ODD_INTERIOR, n=1, degree=Family.C1_ODD_INTERIOR.degree(1),
            delta=0, delta_radicand=None, delta_sign=delta_sign,
            period_intervals=1, intervals=(interval,),
        )
    radicand = Fraction(3 * (n * n + 3 * n - 1), n * (n + 3))
    delta = _sqrt(radicand, delta_sign)
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
        extra_weight_factor=FACTOR_ONE,
        expected_free_nodes=n,
    )
    return FamilySpec(
        id=Family.C1_ODD_INTERIOR, n=n, degree=Family.C1_ODD_INTERIOR.degree(n),
        delta=delta, delta_radicand=radicand, delta_sign=delta_sign,
        period_intervals=1, intervals=(interval,),
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
    radicand = Fraction(3 * n * (n + 2) * (n * n + 2 * n - 2))
    delta = _sqrt(radicand, +1)
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
        extra_weight_factor=FACTOR_C1_EVEN,
        expected_free_nodes=n - 1,
    )
    return FamilySpec(
        id=Family.C1_EVEN, n=n, degree=Family.C1_EVEN.degree(n),
        delta=delta, delta_radicand=radicand, delta_sign=+1,
        period_intervals=2, intervals=(first,),
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
    """Dispatch to the family's builder, forwarding delta_sign where it applies."""
    builder = _BUILDERS[family]
    if family in (Family.C0_EVEN, Family.C1_ODD_INTERIOR):
        return builder(n, delta_sign=delta_sign)
    return builder(n)
