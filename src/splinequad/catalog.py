"""Degree-based catalog of the five families.

Users select rules by smoothness class and polynomial degree (the way
the reference tables are named: C0xD7, C1xD9x2, ...); this module maps
that to the family index n and runs the whole pipeline, including the
extended-precision path.
"""

from __future__ import annotations

import mpmath

from .assembly import ScaledRule, assemble, scale_to_unit_intervals
from .families import EXTENDED_DPS, Family, build_family


def family_for(smoothness: int, degree: int, variant: str | None = None):
    """Resolve (smoothness class, degree, variant) to (Family, n).

    Raises ValueError for combinations outside the catalog: degrees below
    the family minimum, or a variant request where none exists (variants
    only apply to C1 odd degrees).
    """
    if smoothness not in (0, 1):
        raise ValueError("smoothness class must be 0 or 1")
    odd = degree % 2 == 1
    if smoothness == 0:
        if variant is not None:
            raise ValueError("variants exist only for C1 odd degrees")
        if odd:
            if degree < 1:
                raise ValueError("C0 odd degree must be >= 1")
            return Family.C0_ODD, (degree + 1) // 2
        if degree < 2:
            raise ValueError("C0 even degree must be >= 2")
        return Family.C0_EVEN, degree // 2
    if odd:
        if degree < 3:
            raise ValueError("C1 odd degree must be >= 3")
        n = (degree - 1) // 2
        if variant in (None, "endpoint"):
            return Family.C1_ODD_ENDPOINT, n
        if variant == "interior":
            return Family.C1_ODD_INTERIOR, n
        raise ValueError(f"unknown variant {variant!r}")
    if variant is not None:
        raise ValueError("variants exist only for C1 odd degrees")
    if degree < 4:
        raise ValueError("C1 even degree must be >= 4")
    return Family.C1_EVEN, degree // 2


def rule_id(family: Family, n: int) -> str:
    """Catalog name, e.g. C0xD5, C1xD7x2."""
    degree = {
        Family.C0_ODD: 2 * n - 1,
        Family.C0_EVEN: 2 * n,
        Family.C1_ODD_ENDPOINT: 2 * n + 1,
        Family.C1_ODD_INTERIOR: 2 * n + 1,
        Family.C1_EVEN: 2 * n,
    }[family]
    suffix = "x2" if family is Family.C1_ODD_INTERIOR else ""
    return f"C{family.smoothness}xD{degree}{suffix}"


def build_rule(family: Family, n: int, delta_sign: int = +1,
               precision: str = "double") -> ScaledRule:
    """Build, assemble and scale a rule in one step.

    precision "double" gives floats, the extended rule rounded to double;
    "extended" runs the whole pipeline under mpmath at EXTENDED_DPS
    digits (the reference tables carry 25 significant digits).
    """
    if precision not in ("double", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    spec = build_family(family, n, delta_sign=delta_sign)
    if precision == "double":
        return scale_to_unit_intervals(assemble(spec))
    with mpmath.workdps(EXTENDED_DPS):
        return scale_to_unit_intervals(assemble(spec, extended=True))


def build_rule_by_degree(smoothness: int, degree: int, variant: str | None = None,
                         delta_sign: int = +1, precision: str = "double") -> ScaledRule:
    family, n = family_for(smoothness, degree, variant)
    return build_rule(family, n, delta_sign=delta_sign, precision=precision)
