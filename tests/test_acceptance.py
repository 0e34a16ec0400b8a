"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The criteria pin down the externally observable contract of the package:
agreement with the 25-digit reference tables, spline-space exactness with
a sharpness control, structural properties of the node/weight sets over a
wide parameter sweep, the documented symmetries, and the documented
failure mode of the rejected delta branch.
"""

import time

import pytest

from splinequad.catalog import build_rule
from splinequad.families import Family, build_family
from splinequad.rootfind import CountMismatch, isolate_and_refine
from splinequad.splinecheck import (
    check_exactness,
    compare_golden,
    load_golden_tables,
)

import checks
from conftest import cached_rule, family_range, report

GOLDEN_TOL = 1e-13
EXACTNESS_TOL = 1e-11
SWEEP_MAX_N = 50

# largest n keeping the exactness degree <= 25, per family
_MAX_N_DEG25 = {
    Family.C0_ODD: 13,
    Family.C0_EVEN: 12,
    Family.C1_ODD_ENDPOINT: 12,
    Family.C1_ODD_INTERIOR: 12,
    Family.C1_EVEN: 12,
}


def test_criterion_1_golden_regression():
    start = time.perf_counter()
    tables = load_golden_tables()
    worst = -1.0
    worst_id = None
    for rid, golden in sorted(tables.items()):
        dev = compare_golden(build_rule(golden.family, golden.n), golden)
        if dev > worst:
            worst, worst_id = dev, rid
    elapsed = time.perf_counter() - start
    ok = len(tables) == 34 and worst <= GOLDEN_TOL and elapsed < 5.0
    report(
        "golden regression",
        ok,
        f"{len(tables)} tables, worst dev {worst:.2e} at {worst_id} "
        f"(tol {GOLDEN_TOL:g}), {elapsed:.2f}s",
    )


def test_criterion_2_spline_exactness():
    start = time.perf_counter()
    worst = -1.0
    worst_at = None
    for family, max_n in _MAX_N_DEG25.items():
        for n in range(2 if family is Family.C1_EVEN else 1, max_n + 1):
            result = check_exactness(cached_rule(family, n))
            if result.max_abs_error > worst:
                worst = result.max_abs_error
                worst_at = (family.name, n)
    elapsed = time.perf_counter() - start
    ok = worst <= EXACTNESS_TOL and elapsed < 60.0
    report(
        "spline exactness through degree 25",
        ok,
        f"worst err {worst:.2e} at {worst_at} (tol {EXACTNESS_TOL:g}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_sharpness_negative_control():
    representatives = [
        (Family.C0_ODD, 3),
        (Family.C0_EVEN, 3),
        (Family.C1_ODD_ENDPOINT, 2),
        (Family.C1_ODD_INTERIOR, 2),
        (Family.C1_EVEN, 2),
    ]
    smallest = float("inf")
    for family, n in representatives:
        rule = cached_rule(family, n)
        result = check_exactness(rule, degree=rule.degree + 1)
        smallest = min(smallest, result.max_abs_error)
    ok = smallest > 1e-6
    report(
        "sharpness (degree + 1 fails)",
        ok,
        f"smallest one-degree-up error {smallest:.2e} over "
        f"{len(representatives)} families (must exceed 1e-06)",
    )


def test_criterion_4_positivity_and_containment():
    report(
        f"positivity and containment, n <= {SWEEP_MAX_N}",
        *checks.cells(cached_rule(family, n) for family, n in family_range(SWEEP_MAX_N)),
    )


def test_criterion_5_symmetries():
    # the symmetric families at n <= 20, C0 even at n <= 10
    report(
        "symmetry suite",
        *checks.symmetries(
            [cached_rule(family, n) for family, n in family_range(20)
             if family is not Family.C0_EVEN or n <= 10],
            [(cached_rule(Family.C0_EVEN, n), cached_rule(Family.C0_EVEN, n, -1))
             for n in range(1, 11)],
        ),
    )


def test_criterion_6_rejected_delta_branch():
    raised = 0
    tried = list(range(2, 11))
    for n in tried:
        spec = build_family(Family.C1_ODD_INTERIOR, n, delta_sign=-1)
        iv = spec.intervals[0]
        with pytest.raises(CountMismatch):
            isolate_and_refine(iv.r, iv.expected_free_nodes)
        raised += 1
    ok = raised == len(tried)
    report(
        "rejected delta branch",
        ok,
        f"negative-delta node polynomial failed root isolation for all "
        f"n = 2..10 ({raised}/{len(tried)})",
    )


def _hausdorff(a, b):
    return max(
        max(min(abs(x - y) for y in b) for x in a),
        max(min(abs(x - y) for y in a) for x in b),
    )


def test_criterion_7_variant_convergence():
    dists = {}
    for n in (5, 20):
        ep = cached_rule(Family.C1_ODD_ENDPOINT, n).intervals[0]
        inr = cached_rule(Family.C1_ODD_INTERIOR, n).intervals[0]
        ep_free = [float(x) for x in ep.nodes if x != 0.0]
        dists[n] = _hausdorff(ep_free, [float(x) for x in inr.nodes])
    ok = dists[20] < dists[5]
    report(
        "variant node sets converge",
        ok,
        f"interior/endpoint Hausdorff distance {dists[5]:.3e} at n=5 vs "
        f"{dists[20]:.3e} at n=20",
    )


def test_criterion_8_weight_sums():
    report(
        f"weight sums equal the period, n <= {SWEEP_MAX_N}",
        *checks.weight_sums(cached_rule(family, n) for family, n in family_range(SWEEP_MAX_N)),
    )
