import math
from fractions import Fraction

import mpmath
import pytest

from splinequad.families import (
    EXTENDED_DPS,
    FACTOR_C1_ENDPOINT,
    FACTOR_C1_EVEN,
    FACTOR_ONE,
    MAX_N,
    Family,
    build_c0_even,
    build_c0_odd,
    build_c1_endpoint,
    build_c1_even,
    build_c1_interior,
    build_family,
)
from splinequad.catalog import family_for, rule_id
from splinequad.gegenbauer import eval_combo

from conftest import family_range


class TestC0Odd:
    def test_n2_first_interval(self):
        spec = build_c0_odd(2)
        iv = spec.intervals[0]
        # R = 4 C_2 - 9 C_0 = 30 x^2 - 15
        for x in (-0.7, 0.0, 0.4):
            assert eval_combo(iv.r, x)[0] == pytest.approx(30 * x * x - 15)
        assert iv.a == 120
        assert iv.expected_free_nodes == 2

    def test_n2_second_interval(self):
        spec = build_c0_odd(2)
        iv = spec.intervals[1]
        for x in (-0.5, 0.25):
            assert eval_combo(iv.r, x)[0] == pytest.approx(3 * x)
        assert iv.a == 12
        assert iv.expected_free_nodes == 1

    def test_n1_second_interval_has_no_free_nodes(self):
        spec = build_c0_odd(1)
        assert spec.intervals[1].expected_free_nodes == 0
        assert spec.intervals[1].r.degree == 0

    def test_structure(self):
        spec = build_c0_odd(4)
        assert spec.degree == 7
        assert spec.period_intervals == 2
        assert not spec.second_interval_by_reflection
        assert all(iv.fixed_node is None for iv in spec.intervals)
        assert all(iv.extra_weight_factor == FACTOR_ONE for iv in spec.intervals)

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_c0_odd(0)


class TestC0Even:
    def test_n1_plus_sign(self):
        spec = build_c0_even(1)
        assert spec.delta == pytest.approx(math.sqrt(3))
        iv = spec.intervals[0]
        # R = C_1 + sqrt(3) C_0 vanishes at -1/sqrt(3)
        assert eval_combo(iv.r, -1 / math.sqrt(3))[0] == pytest.approx(0, abs=1e-14)
        assert iv.a == 12

    def test_minus_sign_flips_delta(self):
        plus = build_c0_even(3, delta_sign=+1)
        minus = build_c0_even(3, delta_sign=-1)
        with mpmath.workdps(EXTENDED_DPS):  # delta carries 50 digits
            assert minus.delta == -plus.delta
        assert plus.delta == pytest.approx(math.sqrt(5 / 3))

    def test_delta_radicand_exact(self):
        for n in range(1, 51):
            spec = build_c0_even(n)
            assert spec.delta_radicand == Fraction(n + 2, n)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            build_c0_even(0)
        with pytest.raises(ValueError):
            build_c0_even(2, delta_sign=3)


class TestC1Endpoint:
    def test_n2(self):
        spec = build_c1_endpoint(2)
        iv = spec.intervals[0]
        assert iv.fixed_node[0] == -1
        assert iv.fixed_node[1] == pytest.approx(14 / 15)
        # free nodes are roots of C_1^(5/2) = 5x
        assert eval_combo(iv.r, 0.2)[0] == pytest.approx(1.0)
        assert iv.extra_weight_factor == FACTOR_C1_ENDPOINT
        assert iv.expected_free_nodes == 1

    def test_n1_single_endpoint_node(self):
        spec = build_c1_endpoint(1)
        iv = spec.intervals[0]
        assert iv.expected_free_nodes == 0
        assert iv.fixed_node[1] == pytest.approx(2.0)

    def test_n3_free_polynomial(self):
        spec = build_c1_endpoint(3)
        iv = spec.intervals[0]
        # C_2^(5/2) = (35 x^2 - 5) / 2
        for x in (0.1, 0.6):
            assert eval_combo(iv.r, x)[0] == pytest.approx((35 * x * x - 5) / 2)

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_c1_endpoint(0)


class TestC1Interior:
    def test_n2_delta(self):
        spec = build_c1_interior(2)
        assert spec.delta == pytest.approx(math.sqrt(27 / 10))
        assert spec.delta_radicand == Fraction(27, 10)

    def test_n2_roots_of_r(self):
        spec = build_c1_interior(2)
        root = math.sqrt(1 - 2 * math.sqrt(30) / 15)
        for x in (root, -root):
            assert eval_combo(spec.intervals[0].r, x)[0] == pytest.approx(0, abs=1e-12)

    def test_n1_is_midpoint_rule(self):
        spec = build_c1_interior(1)
        iv = spec.intervals[0]
        assert iv.expected_free_nodes == 0
        assert iv.fixed_node == (0, 2)

    def test_negative_delta_diagnostic_mode(self):
        spec = build_c1_interior(2, delta_sign=-1)
        assert spec.delta < 0

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_c1_interior(0)


class TestC1Even:
    def test_n2_exact_delta(self):
        spec = build_c1_even(2)
        assert spec.delta == 12.0
        assert spec.delta_radicand == Fraction(144)

    def test_n2_first_interval(self):
        spec = build_c1_even(2)
        iv = spec.intervals[0]
        # R = 9 C_1 - 15 C_0 = 45x - 15, root 1/3
        assert eval_combo(iv.r, 1 / 3)[0] == pytest.approx(0, abs=1e-13)
        assert iv.fixed_node[0] == -1
        assert iv.fixed_node[1] == pytest.approx(13 / 10)  # 13/20 after scaling
        assert iv.extra_weight_factor == FACTOR_C1_EVEN

    def test_reflection_flag(self):
        assert build_c1_even(3).second_interval_by_reflection
        for build, n in ((build_c0_odd, 3), (build_c0_even, 3),
                         (build_c1_endpoint, 3), (build_c1_interior, 3)):
            assert not build(n).second_interval_by_reflection

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_c1_even(1)


class TestFamilyInvariants:
    def test_degree_bookkeeping(self):
        for family, n in family_range(50):
            spec = build_family(family, n)
            for iv in spec.intervals:
                if iv.r.is_empty:
                    assert iv.expected_free_nodes == 0
                else:
                    assert iv.r.degree == iv.expected_free_nodes, (family, n)

    def test_normalization_positive(self):
        for family, n in family_range(50):
            spec = build_family(family, n)
            for iv in spec.intervals:
                assert iv.a > 0, (family, n)

    def test_degree_of_exactness(self):
        expected = {
            Family.C0_ODD: lambda n: 2 * n - 1,
            Family.C0_EVEN: lambda n: 2 * n,
            Family.C1_ODD_ENDPOINT: lambda n: 2 * n + 1,
            Family.C1_ODD_INTERIOR: lambda n: 2 * n + 1,
            Family.C1_EVEN: lambda n: 2 * n,
        }
        for family, n in family_range(12):
            assert build_family(family, n).degree == expected[family](n)

    def test_delta_radicand_exact_all_families(self):
        for n in range(2, 51):
            interior = build_c1_interior(n)
            assert interior.delta_radicand == Fraction(
                3 * (n * n + 3 * n - 1), n * (n + 3))
            even = build_c1_even(n)
            assert even.delta_radicand == Fraction(
                3 * n * (n + 2) * (n * n + 2 * n - 2))
            assert even.delta == pytest.approx(
                math.sqrt(float(even.delta_radicand)), rel=1e-15)

    def test_node_count_per_period(self):
        per_period = {
            Family.C0_ODD: lambda n: 2 * n - 1,
            Family.C0_EVEN: lambda n: n,
            Family.C1_ODD_ENDPOINT: lambda n: n,
            Family.C1_ODD_INTERIOR: lambda n: n,
            Family.C1_EVEN: lambda n: 2 * n - 1,
        }
        for family, n in family_range(8):
            spec = build_family(family, n)
            total = sum(
                iv.expected_free_nodes + (iv.fixed_node is not None)
                for iv in spec.intervals)
            if spec.second_interval_by_reflection:
                total += spec.intervals[0].expected_free_nodes
            assert total == per_period[family](n), (family, n)


class TestSupportedRange:
    @pytest.mark.parametrize("family", list(Family))
    def test_builders_reject_n_past_max(self, family):
        with pytest.raises(ValueError, match=rf"{family.name} n={MAX_N + 1}:"):
            build_family(family, MAX_N + 1)
        with pytest.raises(ValueError, match=rf"{family.name} n={family.min_n - 1}:"):
            build_family(family, family.min_n - 1)

    def test_family_for_rejects_degree_past_max(self):
        with pytest.raises(ValueError, match="C0_ODD n=50001:"):
            family_for(0, 100001)
        with pytest.raises(ValueError, match="C1_ODD_INTERIOR n=201:"):
            family_for(1, 403, "interior")
        assert family_for(1, 401, "interior") == (Family.C1_ODD_INTERIOR, MAX_N)

    def test_metadata_matches_the_catalog_ids(self):
        # degree and suffix round-trip through family_for
        for family, n in family_range(12):
            assert family.degree(n) == build_family(family, n).degree
            assert family_for(family.smoothness, family.degree(n), family.variant) \
                == (family, n)
        assert rule_id(Family.C1_ODD_INTERIOR, 3) == "C1xD7x2"
        assert rule_id(Family.C0_ODD, 1) == "C0xD1"
