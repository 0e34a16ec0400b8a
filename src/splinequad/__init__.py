"""Gaussian quadrature rules for C0 and C1 splines on the real line.

Five families of periodic rules (period one or two unit intervals) with
closed-form nodes and weights built from Gegenbauer polynomials, plus an
independent B-spline exactness oracle and 25-digit reference tables.

The top level exports the user-facing API: building and naming rules,
tiling them, checking them, and the exceptions a build can raise.  The
building blocks (family specs, the Gegenbauer recurrence, the root
finder, the B-spline basis) stay importable from their own modules.
"""

from .assembly import DegenerateWeight, PolishFailed, RuleInterval, ScaledRule, replicate_periodically
from .catalog import build_rule, build_rule_by_degree, family_for, rule_id
from .families import Family
from .rootfind import CountMismatch
from .splinecheck import ExactnessReport, check_exactness, compare_golden, load_golden_tables

__all__ = [
    "CountMismatch",
    "DegenerateWeight",
    "ExactnessReport",
    "Family",
    "PolishFailed",
    "RuleInterval",
    "ScaledRule",
    "build_rule",
    "build_rule_by_degree",
    "check_exactness",
    "compare_golden",
    "family_for",
    "load_golden_tables",
    "replicate_periodically",
    "rule_id",
]

__version__ = "0.1.0"
