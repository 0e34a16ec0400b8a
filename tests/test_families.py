import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from splinequad.assembly import EXTENDED_DPS, assemble
from splinequad.families import MAX_N, Family, build_family
from splinequad.catalog import build_rule, build_rule_by_degree, family_for, rule_id
from splinequad.gegenbauer import GegenbauerCombo, christoffel_constant, eval_combo, weight_function
from splinequad.rootfind import isolate_and_refine

from conftest import cached_rule, family_range
from paper import paper_weight


def assert_delta_squares_to(spec, radicand):
    """delta**2 is below the radicand by at most 1e-199 of it, exactly in
    Fractions: delta is the root truncated to 200 decimals."""
    assert 0 <= radicand - spec.delta ** 2 <= Fraction(1, 10 ** 199) * radicand, \
        (spec.id, spec.n)


class TestC0Odd:
    def test_n2_first_interval(self):
        spec = build_family(Family.C0_ODD, 2)
        iv = spec.intervals[0]
        # R = 4 C_2 - 9 C_0 = 30 x^2 - 15
        for x in (-0.7, 0.0, 0.4):
            assert eval_combo(iv.r, x)[0] == pytest.approx(30 * x * x - 15)
        # ||C_1||^2 = 12/5, k_2/k_1 = 5/2, a = 4 and rho = 5/2
        assert christoffel_constant(iv.r) == 60
        assert iv.expected_free_nodes == 2

    def test_n2_second_interval(self):
        spec = build_family(Family.C0_ODD, 2)
        iv = spec.intervals[1]
        for x in (-0.5, 0.25):
            assert eval_combo(iv.r, x)[0] == pytest.approx(3 * x)
        assert christoffel_constant(iv.r) == 4  # ||C_0||^2 = 4/3 times k_1/k_0 = 3
        assert iv.expected_free_nodes == 1

    def test_n1_first_interval_is_a_fixed_node(self):
        # R would be C_1, whose Christoffel weight 4/3 is not the paper's 4:
        # K = 4 over C_0 C_1'(0) omega(0) = 1 * 3 * 1
        iv = build_family(Family.C0_ODD, 1).intervals[0]
        assert iv.fixed_node == (0, 4)
        assert iv.expected_free_nodes == 0 and iv.r.is_empty
        assert christoffel_constant(GegenbauerCombo.build(1.5, [(1, 1)])) / 3 == Fraction(4, 3)
        with pytest.raises(ValueError):  # the empty R has no K
            christoffel_constant(iv.r)

    def test_n1_second_interval_has_no_free_nodes(self):
        spec = build_family(Family.C0_ODD, 1)
        assert spec.intervals[1].expected_free_nodes == 0
        assert spec.intervals[1].r.terms == ((0, 1),)  # R = C_0 = 1

    def test_structure(self):
        spec = build_family(Family.C0_ODD, 4)
        assert Family.C0_ODD.degree(4) == 7
        assert len(spec.intervals) == 2
        assert not spec.second_interval_by_reflection
        assert all(iv.fixed_node is None for iv in spec.intervals)
        # no delta in R: the weight constants are exact
        assert all(isinstance(christoffel_constant(iv.r), (int, Fraction))
                   for iv in spec.intervals)

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_family(Family.C0_ODD, 0)


class TestC0Even:
    def test_n1_plus_sign(self):
        spec = build_family(Family.C0_EVEN, 1)
        assert spec.delta == pytest.approx(math.sqrt(3))
        iv = spec.intervals[0]
        # R = C_1 + sqrt(3) C_0 vanishes at -1/sqrt(3)
        assert eval_combo(iv.r, -1 / math.sqrt(3))[0] == pytest.approx(0, abs=1e-14)
        # delta is in R's C_(m-1) term, which leaves K exact
        assert christoffel_constant(iv.r) == 4

    def test_minus_sign_flips_delta(self):
        plus = build_family(Family.C0_EVEN, 3, delta_sign=+1)
        minus = build_family(Family.C0_EVEN, 3, delta_sign=-1)
        assert minus.delta == -plus.delta
        assert plus.delta == pytest.approx(math.sqrt(5 / 3))

    def test_delta_radicand_exact(self):
        for n in range(1, MAX_N + 1):
            assert_delta_squares_to(build_family(Family.C0_EVEN, n), Fraction(n + 2, n))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            build_family(Family.C0_EVEN, 0)
        with pytest.raises(ValueError, match=r"C0_EVEN n=2: delta_sign must be \+1 or -1"):
            build_family(Family.C0_EVEN, 2, delta_sign=3)


class TestC1Endpoint:
    def test_n2(self):
        spec = build_family(Family.C1_ODD_ENDPOINT, 2)
        iv = spec.intervals[0]
        assert iv.fixed_node[0] == -1
        assert iv.fixed_node[1] == pytest.approx(14 / 15)
        # free nodes are roots of C_1^(5/2) = 5x
        assert eval_combo(iv.r, 0.2)[0] == pytest.approx(1.0)
        # ||C_0||^2 = 16/15 times k_1/k_0 = 5
        assert christoffel_constant(iv.r) == Fraction(16, 3)
        assert iv.expected_free_nodes == 1

    def test_n1_single_endpoint_node(self):
        spec = build_family(Family.C1_ODD_ENDPOINT, 1)
        iv = spec.intervals[0]
        assert iv.expected_free_nodes == 0
        assert iv.fixed_node[1] == pytest.approx(2.0)

    def test_n3_free_polynomial(self):
        spec = build_family(Family.C1_ODD_ENDPOINT, 3)
        iv = spec.intervals[0]
        # C_2^(5/2) = (35 x^2 - 5) / 2
        for x in (0.1, 0.6):
            assert eval_combo(iv.r, x)[0] == pytest.approx((35 * x * x - 5) / 2)

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_family(Family.C1_ODD_ENDPOINT, 0)


class TestC1Interior:
    def test_n2_delta(self):
        spec = build_family(Family.C1_ODD_INTERIOR, 2)
        assert spec.delta == pytest.approx(math.sqrt(27 / 10))
        assert_delta_squares_to(spec, Fraction(27, 10))

    def test_n2_roots_of_r(self):
        spec = build_family(Family.C1_ODD_INTERIOR, 2)
        root = math.sqrt(1 - 2 * math.sqrt(30) / 15)
        for x in (root, -root):
            assert eval_combo(spec.intervals[0].r, x)[0] == pytest.approx(0, abs=1e-12)

    def test_n1_is_midpoint_rule(self):
        spec = build_family(Family.C1_ODD_INTERIOR, 1)
        iv = spec.intervals[0]
        assert iv.expected_free_nodes == 0
        assert iv.fixed_node == (0, 2)

    def test_negative_delta_diagnostic_mode(self):
        spec = build_family(Family.C1_ODD_INTERIOR, 2, delta_sign=-1)
        assert spec.delta < 0

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_family(Family.C1_ODD_INTERIOR, 0)

    def test_rejects_invalid_delta_sign(self):
        # build_family checks the sign before the hard-coded midpoint limit
        for n in (1, 2):
            with pytest.raises(ValueError,
                               match=rf"C1_ODD_INTERIOR n={n}: delta_sign must be \+1 or -1"):
                build_family(Family.C1_ODD_INTERIOR, n, delta_sign=3)


class TestC1Even:
    def test_n2_exact_delta(self):
        spec = build_family(Family.C1_EVEN, 2)
        assert spec.delta == 12
        assert_delta_squares_to(spec, Fraction(144))

    def test_n2_first_interval(self):
        spec = build_family(Family.C1_EVEN, 2)
        iv = spec.intervals[0]
        # R = 9 C_1 - 15 C_0 = 45x - 15, root 1/3
        assert eval_combo(iv.r, 1 / 3)[0] == pytest.approx(0, abs=1e-13)
        assert iv.fixed_node[0] == -1
        assert iv.fixed_node[1] == pytest.approx(13 / 10)  # 13/20 after scaling
        assert christoffel_constant(iv.r) == 48  # 16/15 times k_1/k_0 = 5 times a = 9

    def test_reflection_flag(self):
        assert build_family(Family.C1_EVEN, 3).second_interval_by_reflection
        for family in (Family.C0_ODD, Family.C0_EVEN,
                       Family.C1_ODD_ENDPOINT, Family.C1_ODD_INTERIOR):
            assert not build_family(family, 3).second_interval_by_reflection

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            build_family(Family.C1_EVEN, 1)


class TestFamilyInvariants:
    def test_degree_bookkeeping(self):
        for family, n in family_range(50):
            spec = build_family(family, n)
            for iv in spec.intervals:
                if iv.r.is_empty:
                    assert iv.expected_free_nodes == 0
                else:
                    found = isolate_and_refine(iv.r, iv.expected_free_nodes)
                    assert len(found.roots) == iv.expected_free_nodes, (family, n)

    def test_normalization_positive(self):
        # the weight constant K, where the interval has free nodes
        for family, n in family_range(50):
            spec = build_family(family, n)
            for iv in spec.intervals:
                if iv.expected_free_nodes:
                    assert christoffel_constant(iv.r) > 0, (family, n)

    def test_degree_of_exactness(self):
        expected = {
            Family.C0_ODD: lambda n: 2 * n - 1,
            Family.C0_EVEN: lambda n: 2 * n,
            Family.C1_ODD_ENDPOINT: lambda n: 2 * n + 1,
            Family.C1_ODD_INTERIOR: lambda n: 2 * n + 1,
            Family.C1_EVEN: lambda n: 2 * n,
        }
        for family, n in family_range(12):
            assert family.degree(n) == expected[family](n)

    def test_delta_radicand_exact_all_families(self):
        for n in range(2, MAX_N + 1):
            assert_delta_squares_to(build_family(Family.C1_ODD_INTERIOR, n), Fraction(
                3 * (n * n + 3 * n - 1), n * (n + 3)))
            radicand = Fraction(3 * n * (n + 2) * (n * n + 2 * n - 2))
            even = build_family(Family.C1_EVEN, n)
            assert_delta_squares_to(even, radicand)
            assert even.delta == pytest.approx(math.sqrt(float(radicand)), rel=1e-15)

    @pytest.mark.parametrize("family", list(Family))
    def test_weights_equal_paper_form(self, family):
        # the free weights, Christoffel numbers over the weight function,
        # against the paper's A / (R' S f), at 110 digits: the exact spec
        # assembled at 110, the paper's form at 120 at the rounded nodes.
        # Measured within 1.3e-105 relative, the nodes' rounding moving
        # the paper's form; C0 even with both delta signs
        for delta_sign in (+1, -1) if family is Family.C0_EVEN else (+1,):
            for n in (2, 3, 24, 50):
                spec = build_family(family, n, delta_sign=delta_sign)
                with mpmath.workdps(110):
                    rule = assemble(spec, extended=True)
                with mpmath.workdps(120):
                    for k, (iv, riv) in enumerate(zip(spec.intervals, rule.intervals)):
                        free = iv.fixed_node is not None
                        assert len(riv.nodes[free:]) == iv.expected_free_nodes > 0
                        for x, w in zip(riv.nodes[free:], riv.weights[free:]):
                            v = paper_weight(spec, k, x)
                            assert abs(w - v) <= 1e-100 * v, (delta_sign, n, x)

    def test_every_constant_is_exact(self):
        # delta, R's constants, the fixed node and K: ints or Fractions,
        # with either delta sign, at every n
        signed = (Family.C0_EVEN, Family.C1_ODD_INTERIOR)
        for family, n in family_range(MAX_N):
            for delta_sign in (+1, -1) if family in signed else (+1,):
                spec = build_family(family, n, delta_sign=delta_sign)
                constants = [spec.delta]
                for iv in spec.intervals:
                    constants += [c for _, c in iv.r.terms] + list(iv.fixed_node or ())
                    if iv.expected_free_nodes:
                        constants.append(christoffel_constant(iv.r))
                assert all(type(c) in (int, Fraction) for c in constants), (family, n)

    @pytest.mark.parametrize("family", list(Family))
    def test_spec_takes_no_precision_from_mpmath(self, family):
        # built, or each interval dataclasses.replace'd, under 15, 60 and
        # 110 digits: equal specs, and equal double and 50-digit rules
        specs = []
        for dps in (15, 60, 110):
            with mpmath.workdps(dps):
                spec = build_family(family, 24)
                intervals = tuple(dataclasses.replace(iv) for iv in spec.intervals)
                specs += [spec, dataclasses.replace(spec, intervals=intervals)]
        assert all(spec == specs[0] for spec in specs)
        double = assemble(specs[0])
        assert all(assemble(spec) == double for spec in specs)
        with mpmath.workdps(EXTENDED_DPS):
            extended = assemble(specs[0], extended=True)
            assert all(assemble(spec, extended=True) == extended for spec in specs)

    def test_extra_factors(self):
        # the one factor of every free weight's denominator beside
        # C_(m-1) R': the Gegenbauer weight function of the family's order
        for family in Family:
            alpha = build_family(family, 4).intervals[0].r.alpha
            assert alpha == (1.5 if family.smoothness == 0 else 2.5)
            for x in (-0.5, 0.0, 0.3):
                assert weight_function(alpha, x) == pytest.approx((1 - x * x) ** (alpha - 0.5))

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


class TestDeltaSign:
    @pytest.mark.parametrize("delta_sign", [-1, 7])
    @pytest.mark.parametrize(
        "family", [Family.C0_ODD, Family.C1_ODD_ENDPOINT, Family.C1_EVEN])
    def test_families_without_sign_choice_reject_other_than_plus(self, family,
                                                                 delta_sign):
        with pytest.raises(ValueError, match=rf"{family.name} n=3: delta_sign"):
            build_rule(family, 3, delta_sign=delta_sign)
        with pytest.raises(ValueError, match=rf"{family.name} n=3: delta_sign"):
            build_family(family, 3, delta_sign=delta_sign)


class TestBadInputs:
    """An input no rule can be built from raises a ValueError that names
    it, whichever entry point it is passed to."""

    @pytest.mark.parametrize("family, n", [(Family.C0_EVEN, 3.0), (Family.C0_ODD, 2.5)])
    def test_non_integer_n(self, family, n):
        with pytest.raises(ValueError, match=rf"{family.name} n={n}: n must be an integer"):
            build_rule(family, n)

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_n(self, n):
        # True is an Integral equal to 1, but no rule index
        with pytest.raises(ValueError, match=rf"C0_ODD n={n}: n must be an integer"):
            build_rule(Family.C0_ODD, n)
        with pytest.raises(ValueError, match=rf"C1_EVEN n={n}: n must be an integer"):
            Family.C1_EVEN.check_n(n)

    def test_non_integer_degree(self):
        with pytest.raises(ValueError, match=r"degree 7\.0: the degree must be an integer"):
            family_for(0, 7.0)

    @pytest.mark.parametrize("degree", [True, False])
    def test_bool_degree(self, degree):
        # True would be read as degree 1, the C0 odd n = 1 rule
        with pytest.raises(ValueError, match=rf"degree {degree}: the degree must be an integer"):
            build_rule_by_degree(0, degree)

    def test_family_given_by_name(self):
        with pytest.raises(ValueError, match=r"'C0_ODD' n=3: not a Family"):
            build_rule("C0_ODD", 3)

    def test_numpy_integer_n(self):
        assert build_rule(Family.C0_EVEN, np.int64(4)) == cached_rule(Family.C0_EVEN, 4)

    def test_unknown_precision(self):
        with pytest.raises(ValueError, match="unknown precision 'Extended'"):
            build_rule(Family.C0_ODD, 3, precision="Extended")


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
            assert cached_rule(family, n).degree == family.degree(n)
            assert family_for(family.smoothness, family.degree(n), family.variant) \
                == (family, n)
        assert rule_id(Family.C1_ODD_INTERIOR, 3) == "C1xD7x2"
        assert rule_id(Family.C0_ODD, 1) == "C0xD1"
