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

    Raises ValueError for combinations outside the catalog: a class,
    parity and variant that name no family (variants only apply to C1 odd
    degrees, where the default is the endpoint rule), or n outside the
    family's supported range (:meth:`Family.check_n`).
    """
    parity = "odd" if degree % 2 else "even"
    if variant is None:
        variant = "endpoint" if (smoothness, parity) == (1, "odd") else "default"
    try:
        family = Family((f"c{smoothness}", parity, variant))
    except ValueError:
        raise ValueError(f"no family for class {smoothness}, {parity} degree, "
                         f"variant {variant!r}") from None
    n = (degree - family.degree(0)) // 2
    family.check_n(n)
    return family, n


def rule_id(family: Family, n: int) -> str:
    """Catalog name, e.g. C0xD5, C1xD7x2."""
    return f"C{family.smoothness}xD{family.degree(n)}{family.id_suffix}"


def build_rule(family: Family, n: int, delta_sign: int = +1,
               precision: str = "double") -> ScaledRule:
    """Build, assemble and scale a rule in one step.

    precision "double" gives floats, the extended rule rounded to double;
    "extended" gives mpf values computed at EXTENDED_DPS (50) digits,
    whose nodes are accurate to about 1e-51 and whose weights to about
    1e-45 relative (the reference tables carry 25 significant digits).
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
