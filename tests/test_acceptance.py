"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The criteria pin down the externally observable contract of the package:
agreement with the 25-digit reference tables, spline-space exactness with
a sharpness control, structural properties of the node/weight sets over a
wide parameter sweep, the documented symmetries, and the documented
failure mode of the rejected delta branch.
"""

import time

import pytest

from splinequad.catalog import build_rule, family_for
from splinequad.families import Family, build_family
from splinequad.rootfind import CountMismatch, isolate_and_refine
from splinequad.splinecheck import (
    check_exactness,
    compare_golden,
    load_golden_tables,
)

from conftest import ACCEPTANCE_LINES, cached_rule, family_range

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


def _report(criterion: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _flat(rule):
    return [(float(x), float(w))
            for iv in rule.intervals for x, w in zip(iv.nodes, iv.weights)]


def test_criterion_1_golden_regression():
    start = time.perf_counter()
    tables = load_golden_tables()
    worst = -1.0
    worst_id = None
    for rid, golden in sorted(tables.items()):
        variant = None if golden.variant == "default" else golden.variant
        family, n = family_for(golden.smoothness, golden.degree, variant)
        dev = compare_golden(build_rule(family, n), golden)
        if dev > worst:
            worst, worst_id = dev, rid
    elapsed = time.perf_counter() - start
    ok = len(tables) == 34 and worst <= GOLDEN_TOL and elapsed < 5.0
    _report(
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
            report = check_exactness(cached_rule(family, n))
            if report.max_abs_error > worst:
                worst = report.max_abs_error
                worst_at = (family.name, n)
    elapsed = time.perf_counter() - start
    ok = worst <= EXACTNESS_TOL and elapsed < 60.0
    _report(
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
        report = check_exactness(rule, degree=rule.degree + 1)
        smallest = min(smallest, report.max_abs_error)
    ok = smallest > 1e-6
    _report(
        "sharpness (degree + 1 fails)",
        ok,
        f"smallest one-degree-up error {smallest:.2e} over "
        f"{len(representatives)} families (must exceed 1e-06)",
    )


def test_criterion_4_positivity_and_containment():
    ok = True
    checked = 0
    for family, n in family_range(SWEEP_MAX_N):
        rule = cached_rule(family, n)
        for k, iv in enumerate(rule.intervals):
            for x, w in zip(iv.nodes, iv.weights):
                checked += 1
                if not float(w) > 0:
                    ok = False
                if not k <= float(x) <= k + 1:
                    ok = False
        if family in (Family.C1_ODD_ENDPOINT, Family.C1_EVEN):
            # the fixed node sits exactly on the interval boundary
            if rule.intervals[0].nodes[0] != 0.0:
                ok = False
    _report(
        f"positivity and containment, n <= {SWEEP_MAX_N}",
        ok,
        f"{checked} node/weight pairs, all weights > 0, all nodes inside "
        "their interval",
    )


def _symmetry_c0_odd(max_dev):
    for n in range(1, 21):
        rule = cached_rule(Family.C0_ODD, n)
        for k, iv in enumerate(rule.intervals):
            center = k + 0.5
            for (x, w), (xr, wr) in zip(
                zip(iv.nodes, iv.weights),
                zip(reversed(iv.nodes), reversed(iv.weights)),
            ):
                max_dev = max(max_dev, abs((x - center) + (xr - center)),
                              abs(w - wr))
    return max_dev


def _symmetry_c1_odd(max_dev):
    for family in (Family.C1_ODD_ENDPOINT, Family.C1_ODD_INTERIOR):
        for n in range(1, 21):
            rule = cached_rule(family, n)
            iv = rule.intervals[0]
            free = [
                (x, w) for x, w in zip(iv.nodes, iv.weights) if x != 0.0
            ]
            for (x, w), (xr, wr) in zip(free, list(reversed(free))):
                max_dev = max(max_dev, abs((x - 0.5) + (xr - 0.5)),
                              abs(w - wr))
    return max_dev


def _symmetry_c1_even(max_dev):
    for n in range(2, 21):
        rule = cached_rule(Family.C1_EVEN, n)
        first, second = rule.intervals
        free = list(zip(first.nodes[1:], first.weights[1:]))
        for (x, w), (x2, w2) in zip(reversed(free),
                                    zip(second.nodes, second.weights)):
            max_dev = max(max_dev, abs(x2 - (2 - x)), abs(w2 - w))
    return max_dev


def test_criterion_5_symmetries():
    dev = 0.0
    dev = _symmetry_c0_odd(dev)
    dev = _symmetry_c1_odd(dev)
    dev = _symmetry_c1_even(dev)

    # C0 even rules are genuinely asymmetric...
    min_asym = float("inf")
    for n in range(2, 11):
        iv = cached_rule(Family.C0_EVEN, n).intervals[0]
        asym = max(
            max(abs((x - 0.5) + (xr - 0.5))
                for x, xr in zip(iv.nodes, reversed(iv.nodes))),
            max(abs(w - wr)
                for w, wr in zip(iv.weights, reversed(iv.weights))),
        )
        min_asym = min(min_asym, asym)

    # ...and the two delta signs give mirror-image rules
    mirror_dev = 0.0
    for n in range(1, 11):
        plus = cached_rule(Family.C0_EVEN, n).intervals[0]
        minus = cached_rule(Family.C0_EVEN, n, -1).intervals[0]
        for (x, w), (xm, wm) in zip(
            zip(plus.nodes, plus.weights),
            reversed(list(zip(minus.nodes, minus.weights))),
        ):
            mirror_dev = max(mirror_dev, abs(xm - (1 - x)), abs(wm - w))

    ok = dev <= 1e-12 and min_asym > 1e-6 and mirror_dev <= 1e-13
    _report(
        "symmetry suite",
        ok,
        f"symmetric families dev {dev:.2e} (tol 1e-12), smallest asymmetry "
        f"{min_asym:.2e} (> 1e-06), delta-sign mirror dev {mirror_dev:.2e} "
        "(tol 1e-13)",
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
    _report(
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
    _report(
        "variant node sets converge",
        ok,
        f"interior/endpoint Hausdorff distance {dists[5]:.3e} at n=5 vs "
        f"{dists[20]:.3e} at n=20",
    )


def test_criterion_8_weight_sums():
    worst = -1.0
    worst_at = None
    for family, n in family_range(SWEEP_MAX_N):
        rule = cached_rule(family, n)
        total = sum(float(w) for iv in rule.intervals for w in iv.weights)
        err = abs(total - rule.period_intervals)
        if err > worst:
            worst, worst_at = err, (family.name, n)
    ok = worst <= 1e-12
    _report(
        f"weight sums equal the period, n <= {SWEEP_MAX_N}",
        ok,
        f"worst deviation {worst:.2e} at {worst_at} (tol 1e-12)",
    )
