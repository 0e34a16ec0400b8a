"""The range checks over the range the package declares.

Run it by name::

    python -m pytest -q tests/full_range.py

Its name does not match ``test_*.py``, so the Tier-1 suite does not
collect it.  Criteria 4, 5 and 8 and the quasi-Gauss moments run on every
double rule with n <= MAX_N, the double rules are compared with the
extended ones at every n <= 50, and the 50-digit rules at MAX_N with a
110-digit reference.  The checks and their bounds are the Tier-1 tests'
(``checks.py``); only the ranges are wider.

The rules these checks build are also hashed against pinned digests
(:data:`DIGESTS`), so a change that moves any output by one bit fails
here.  Update a digest only for a change meant to move outputs.
"""

import mpmath
import pytest

from splinequad.assembly import EXTENDED_DPS, assemble, scale_to_unit_intervals
from splinequad.catalog import build_rule
from splinequad.cli import rule_to_json
from splinequad.families import MAX_N, Family, build_family

import checks
from conftest import family_range, report

EXTENDED_MAX_N = 50

# the C0 even delta < 0 rules and the extended rules hashed, beside every
# double rule with n <= MAX_N
MINUS_HASHED = [*range(1, 81), 120, 200]
EXTENDED_HASHED = [*range(1, 41), 50, 64, 80]

# SHA-256 of the texts of the rules, rule by rule, families in Family order
# and n ascending (checks.sha256)
DIGESTS = {
    # checks.double_text of every double rule with n <= MAX_N
    "double": "3969d15a22487d5702ed9a647787a25b02be5f9e688f56813d7543c19447cbf1",
    # checks.double_text of the C0 even delta < 0 rules at MINUS_HASHED
    "c0_even_minus": "4e8722d3af9699e2c336225a36a522d171e977b740dc42c8e02f7e6fdfaa824c",
    # checks.mpf_text of the extended rules at EXTENDED_HASHED from min_n
    "extended": "646c9ae9291f2d8b8b58032a6c92ff767973752cbf4f641e6f52bb7ddb7b78e9",
    # their `splinequad generate --format json --precision extended` text
    "extended_json": "efd494f7a07298a725b912356ff15f6323ee1618463be5ff17e2126cb906511a",
}


@pytest.fixture(scope="module")
def built():
    """(spec, reference rule, scaled rule) of every double rule with n <= MAX_N."""
    triples = []
    for family, n in family_range(MAX_N):
        spec = build_family(family, n)
        rule = assemble(spec)
        triples.append((spec, rule, scale_to_unit_intervals(rule)))
    return triples


@pytest.fixture(scope="module")
def c0_even_minus():
    """The C0 even delta < 0 rule at every n <= MAX_N, by n."""
    return {n: build_rule(Family.C0_EVEN, n, -1) for n in range(1, MAX_N + 1)}


@pytest.fixture(scope="module")
def extended():
    """The extended rule of every family at n <= EXTENDED_MAX_N and at
    the larger n of EXTENDED_HASHED, by (family, n)."""
    return {(family, n): build_rule(family, n, precision="extended")
            for family in Family
            for n in [*range(family.min_n, EXTENDED_MAX_N + 1), 64, 80]}


def test_criterion_4_positivity_and_containment(built):
    report(f"positivity and containment, n <= {MAX_N}",
           *checks.cells(scaled for *_, scaled in built))


def test_criterion_5_symmetries(built, c0_even_minus):
    c0_even = [scaled for *_, scaled in built if scaled.family is Family.C0_EVEN]
    report(f"symmetry suite, n <= {MAX_N}", *checks.symmetries(
        [scaled for *_, scaled in built],
        [(plus, c0_even_minus[plus.n]) for plus in c0_even]))


def test_criterion_8_weight_sums(built):
    report(f"weight sums equal the period, n <= {MAX_N}",
           *checks.weight_sums(scaled for *_, scaled in built))


def test_quasi_gauss_moments(built):
    report(f"quasi-Gauss moments in double, n <= {MAX_N}",
           *checks.moments(((spec, rule) for spec, rule, _ in built),
                           checks.scipy_gegenbauer, 1e-13))


def test_double_is_extended_rounded(built, extended):
    report(f"double rules are the extended ones rounded, n <= {EXTENDED_MAX_N}",
           *checks.double_vs_extended(
               (scaled, extended[scaled.family, scaled.n])
               for *_, scaled in built if scaled.n <= EXTENDED_MAX_N))


@pytest.mark.parametrize("family", list(Family))
def test_extended_accuracy(family):
    with mpmath.workdps(EXTENDED_DPS):
        rule = assemble(build_family(family, MAX_N), extended=True)
    report(f"{family.name} n = {MAX_N}, 50 digits",
           *checks.extended_accuracy(family, MAX_N, rule, 110))


def test_outputs_bit_identical(built, c0_even_minus, extended):
    hashed = [rule for (_, n), rule in extended.items() if n in EXTENDED_HASHED]
    texts = {
        "double": (checks.double_text(scaled) for *_, scaled in built),
        "c0_even_minus": (checks.double_text(c0_even_minus[n]) for n in MINUS_HASHED),
        "extended": (checks.mpf_text(rule) for rule in hashed),
        "extended_json": (rule_to_json(rule) for rule in hashed),
    }
    for name, pinned in DIGESTS.items():
        report(f"{name} rules bit-identical", *checks.sha256(texts[name], pinned))
