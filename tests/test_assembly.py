import itertools
import math

import mpmath
import pytest
from scipy.special import roots_gegenbauer

from splinequad import assembly
from splinequad.assembly import (
    DegenerateWeight,
    PolishFailed,
    assemble,
    replicate_periodically,
    scale_to_unit_intervals,
)
from splinequad.catalog import build_rule
from splinequad.families import (
    EXTENDED_DPS,
    Family,
    FamilySpec,
    IntervalSpec,
    build_c0_odd,
    build_c1_endpoint,
    build_c1_even,
    build_c1_interior,
    build_family,
    no_extra_factor,
)
from splinequad.gegenbauer import GegenbauerCombo, eval_combo

from conftest import cached_rule, family_range


class TestAssemble:
    def test_c0_odd_n2_closed_form(self):
        rule = assemble(build_c0_odd(2))
        first, second = rule.intervals
        r = 1 / math.sqrt(2)
        assert first.nodes == pytest.approx((-r, r), abs=1e-15)
        assert first.weights == pytest.approx((4 / 3, 4 / 3), rel=1e-14)
        assert second.nodes == pytest.approx((0.0,), abs=1e-15)
        assert second.weights == pytest.approx((4 / 3,), rel=1e-14)

    def test_c0_odd_n1_is_midpoint_every_other_interval(self):
        rule = assemble(build_c0_odd(1))
        assert rule.intervals[0].nodes == pytest.approx((0.0,), abs=1e-15)
        assert rule.intervals[0].weights == pytest.approx((4.0,), rel=1e-14)
        assert rule.intervals[1].nodes == ()

    def test_c1_endpoint_n2_closed_form(self):
        rule = assemble(build_c1_endpoint(2))
        iv = rule.intervals[0]
        assert iv.nodes == pytest.approx((-1.0, 0.0), abs=1e-15)
        assert iv.weights == pytest.approx((14 / 15, 16 / 15), rel=1e-14)

    def test_fixed_node_listed_first(self):
        for family in (Family.C1_ODD_ENDPOINT, Family.C1_EVEN):
            rule = assemble(build_family(family, 5))
            iv = rule.intervals[0]
            assert iv.nodes[0] == -1.0
            assert all(x > -1 for x in iv.nodes[1:])

    def test_c1_even_second_interval_is_reflection(self):
        rule = assemble(build_c1_even(5))
        first, second = rule.intervals
        free = list(zip(first.nodes[1:], first.weights[1:]))
        mirrored = sorted((-x, w) for x, w in free)
        assert second.nodes == tuple(x for x, _ in mirrored)
        assert second.weights == tuple(w for _, w in mirrored)

    def test_c1_interior_midpoint_limit(self):
        rule = assemble(build_c1_interior(1))
        assert rule.intervals[0].nodes == (0.0,)
        assert rule.intervals[0].weights == (2.0,)

    def test_weight_sum_is_two_per_interval(self):
        for family, n in family_range(10):
            rule = assemble(build_family(family, n))
            total = sum(w for iv in rule.intervals for w in iv.weights)
            assert total == pytest.approx(2 * len(rule.intervals), rel=1e-13), \
                (family, n)

    def test_nodes_sorted_within_interval(self):
        for family, n in family_range(10):
            rule = assemble(build_family(family, n))
            for iv in rule.intervals:
                assert list(iv.nodes) == sorted(iv.nodes), (family, n)

    def test_c1_endpoint_free_nodes_match_scipy(self):
        # independent oracle: the free nodes are the roots of C_{n-1}^(5/2)
        for n in range(2, 61):
            nodes = assemble(build_c1_endpoint(n)).intervals[0].nodes[1:]
            expected = sorted(roots_gegenbauer(n - 1, 2.5)[0])
            assert max(abs(x - y) for x, y in zip(nodes, expected)) <= 1e-14, n

    def test_deterministic(self):
        a = assemble(build_c1_even(7))
        b = assemble(build_c1_even(7))
        assert a == b

    @pytest.mark.parametrize("extended", [False, True])
    def test_vanishing_denominator_raises_with_context(self, extended):
        # R = C_1 = 3x has its root at 0, where S = x vanishes too
        interval = IntervalSpec(
            r=GegenbauerCombo.build(1.5, [(1, 1)]),
            s=GegenbauerCombo.build(1.5, [(0, (0, 1, 0))]),
            a=1, fixed_node=None, extra_weight_factor=no_extra_factor,
            expected_free_nodes=1,
        )
        spec = FamilySpec(id=Family.C0_ODD, n=1, delta=0, intervals=(interval,))
        with mpmath.workdps(EXTENDED_DPS):
            with pytest.raises(DegenerateWeight, match=r"C0_ODD n=1: .* at x=0"):
                assemble(spec, extended=extended)


class TestScaling:
    def test_unit_interval_mapping(self):
        rule = scale_to_unit_intervals(assemble(build_c0_odd(2)))
        first, second = rule.intervals
        r = 1 / math.sqrt(2)
        assert first.nodes == pytest.approx(((1 - r) / 2, (1 + r) / 2))
        assert first.weights == pytest.approx((2 / 3, 2 / 3))
        assert second.nodes == pytest.approx((1.5,))
        assert all(1 <= x <= 2 for x in second.nodes)

    def test_scaled_weight_sum_equals_period(self):
        for family, n in family_range(10):
            rule = cached_rule(family, n)
            total = sum(w for iv in rule.intervals for w in iv.weights)
            assert total == pytest.approx(rule.period_intervals, rel=1e-13)

    def test_interval_k_maps_into_k_k_plus_one(self):
        rule = cached_rule(Family.C1_EVEN, 6)
        for k, iv in enumerate(rule.intervals):
            assert all(k <= x <= k + 1 for x in iv.nodes)


class TestReplication:
    def test_tiling_counts_and_order(self):
        rule = cached_rule(Family.C0_ODD, 3)
        per_period = sum(len(iv.nodes) for iv in rule.intervals)
        pairs = replicate_periodically(rule, 4)
        assert len(pairs) == 4 * per_period
        xs = [x for x, _ in pairs]
        assert xs == sorted(xs)
        assert all(0 <= x <= 4 * rule.period_intervals for x in xs)

    def test_shift_by_period(self):
        rule = cached_rule(Family.C1_ODD_ENDPOINT, 3)
        pairs = replicate_periodically(rule, 3)
        per = sum(len(iv.nodes) for iv in rule.intervals)
        for (x0, w0), (x1, w1) in zip(pairs[:per], pairs[per:2 * per]):
            assert x1 == pytest.approx(x0 + rule.period_intervals, abs=1e-15)
            assert w1 == w0

    def test_single_copy_is_identity(self):
        rule = cached_rule(Family.C0_EVEN, 4)
        flat = [(x, w) for iv in rule.intervals for x, w in zip(iv.nodes, iv.weights)]
        assert replicate_periodically(rule, 1) == sorted(flat)

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            replicate_periodically(cached_rule(Family.C0_ODD, 1), 0)


class TestExtendedPrecision:
    def test_matches_double_build(self):
        # the double build is the extended build rounded to double: weights
        # within one ulp, nodes within one rounding of the scaled position
        for family, n in itertools.product(Family, (4, 16, 24)):
            double = cached_rule(family, n)
            extended = build_rule(family, n, precision="extended")
            for div, eiv in zip(double.intervals, extended.intervals):
                assert len(div.nodes) == len(eiv.nodes)
                for xd, xe in zip(div.nodes, eiv.nodes):
                    assert abs(xd - float(xe)) <= 2.3e-16, (family, n)
                for wd, we in zip(div.weights, eiv.weights):
                    assert abs(wd - float(we)) <= math.ulp(float(we)), (family, n)

    def test_weight_sum_to_working_precision(self):
        rule = build_rule(Family.C1_ODD_ENDPOINT, 6, precision="extended")
        total = sum(w for iv in rule.intervals for w in iv.weights)
        assert abs(total - rule.period_intervals) < mpmath.mpf(10) ** (8 - EXTENDED_DPS)

    def test_nodes_are_mpf(self):
        rule = build_rule(Family.C0_EVEN, 3, precision="extended")
        free = rule.intervals[0].nodes[0]
        assert isinstance(free, mpmath.mpf)

    @pytest.mark.parametrize("family", list(Family))
    def test_free_nodes_bracket_a_sign_change(self, family):
        # independent of Newton: R changes sign across every extended free
        # node within 1e-40, checked at 60 digits
        for n in (5, 24):
            spec = build_family(family, n)
            with mpmath.workdps(EXTENDED_DPS):
                rule = assemble(spec, extended=True)
            with mpmath.workdps(60):
                h = mpmath.mpf(10) ** -40
                for iv, riv in zip(spec.intervals, rule.intervals):
                    free = riv.nodes[iv.fixed_node is not None:]
                    assert len(free) == iv.expected_free_nodes
                    for x in free:
                        below, _ = eval_combo(iv.r, x - h)
                        above, _ = eval_combo(iv.r, x + h)
                        assert below * above < 0, (family, n, x)

    def test_polish_failure_names_family_and_n(self, monkeypatch):
        monkeypatch.setattr(assembly, "POLISH_STEPS", 0)
        for precision in ("double", "extended"):
            with pytest.raises(PolishFailed, match=r"C1_EVEN n=5: no convergence"):
                build_rule(Family.C1_EVEN, 5, precision=precision)

    @pytest.mark.parametrize("family", list(Family))
    def test_accuracy_against_90_digits(self, family):
        # the measured accuracy of the 50-digit rule: the same spec
        # assembled at 90 digits is the reference
        spec = build_family(family, 24)
        with mpmath.workdps(EXTENDED_DPS):
            rule = assemble(spec, extended=True)
        with mpmath.workdps(90):
            reference = assemble(spec, extended=True)
            for iv, ref in zip(rule.intervals, reference.intervals):
                assert len(iv.nodes) == len(ref.nodes)
                for x, y in zip(iv.nodes, ref.nodes):
                    assert abs(x - y) <= 1e-50, (x, y)
                for w, v in zip(iv.weights, ref.weights):
                    assert abs(w - v) <= 1e-45 * abs(v), (w, v)
