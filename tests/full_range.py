"""The range checks over the range the package declares.

Run it by name::

    python -m pytest -q tests/full_range.py

Its name does not match ``test_*.py``, so the Tier-1 suite does not
collect it.  Criteria 4, 5 and 8 and the quasi-Gauss moments run on every
double rule with n <= MAX_N, the double rules are compared with the
extended ones at every n <= 50, and the 50-digit rules at MAX_N with a
110-digit reference.  The checks and their bounds are the Tier-1 tests'
(``checks.py``); only the ranges are wider.
"""

import mpmath
import pytest

from splinequad.assembly import assemble, scale_to_unit_intervals
from splinequad.catalog import build_rule
from splinequad.families import EXTENDED_DPS, MAX_N, Family, build_family

import checks
from conftest import family_range, report

EXTENDED_MAX_N = 50


@pytest.fixture(scope="module")
def built():
    """(spec, reference rule, scaled rule) of every double rule with n <= MAX_N."""
    triples = []
    for family, n in family_range(MAX_N):
        spec = build_family(family, n)
        rule = assemble(spec)
        triples.append((spec, rule, scale_to_unit_intervals(rule)))
    return triples


def test_criterion_4_positivity_and_containment(built):
    report(f"positivity and containment, n <= {MAX_N}",
           *checks.cells(scaled for *_, scaled in built))


def test_criterion_5_symmetries(built):
    c0_even = [scaled for *_, scaled in built if scaled.family is Family.C0_EVEN]
    report(f"symmetry suite, n <= {MAX_N}", *checks.symmetries(
        [scaled for *_, scaled in built],
        [(plus, build_rule(Family.C0_EVEN, plus.n, -1)) for plus in c0_even]))


def test_criterion_8_weight_sums(built):
    report(f"weight sums equal the period, n <= {MAX_N}",
           *checks.weight_sums(scaled for *_, scaled in built))


def test_quasi_gauss_moments(built):
    report(f"quasi-Gauss moments in double, n <= {MAX_N}",
           *checks.moments(((spec, rule) for spec, rule, _ in built),
                           checks.scipy_gegenbauer, 1e-13))


def test_double_is_extended_rounded(built):
    report(f"double rules are the extended ones rounded, n <= {EXTENDED_MAX_N}",
           *checks.double_vs_extended(
               (scaled, build_rule(scaled.family, scaled.n, precision="extended"))
               for *_, scaled in built if scaled.n <= EXTENDED_MAX_N))


@pytest.mark.parametrize("family", list(Family))
def test_extended_accuracy(family):
    with mpmath.workdps(EXTENDED_DPS):
        rule = assemble(build_family(family, MAX_N), extended=True)
    report(f"{family.name} n = {MAX_N}, 50 digits",
           *checks.extended_accuracy(family, MAX_N, rule, 110))
