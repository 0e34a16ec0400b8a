from fractions import Fraction

import numpy as np
import pytest

from splinequad import splinecheck
from splinequad.catalog import build_rule, family_for
from splinequad.families import Family
from splinequad.splinecheck import (
    EntryCountMismatch,
    GoldenRule,
    check_exactness,
    compare_golden,
    eval_bspline,
    exact_bspline_integral,
    load_golden_tables,
    make_knot_vector,
)

from conftest import cached_rule


class TestKnotVector:
    def test_clamped_uniform_structure(self):
        kv = make_knot_vector(degree=3, continuity=1, num_spans=4)
        assert kv.knots == (0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4)
        assert kv.num_basis == 10

    def test_smooth_case_single_multiplicity(self):
        kv = make_knot_vector(degree=2, continuity=1, num_spans=3)
        assert kv.knots == (0, 0, 0, 1, 2, 3, 3, 3)
        assert kv.num_basis == 5

    def test_rejects_bad_continuity(self):
        with pytest.raises(ValueError):
            make_knot_vector(2, 2, 4)
        with pytest.raises(ValueError):
            make_knot_vector(2, -1, 4)


class TestEvalBspline:
    def test_hat_function(self):
        kv = make_knot_vector(degree=1, continuity=0, num_spans=3)
        assert eval_bspline(kv, 1, 1.0) == pytest.approx(1.0)
        assert eval_bspline(kv, 1, 0.5) == pytest.approx(0.5)
        assert eval_bspline(kv, 1, 1.5) == pytest.approx(0.5)
        assert eval_bspline(kv, 1, 2.5) == 0.0

    def test_uniform_quadratic_peak(self):
        kv = make_knot_vector(degree=2, continuity=1, num_spans=4)
        # full-support interior basis spans breakpoints 0..3; peak 3/4
        assert eval_bspline(kv, 2, 1.5) == pytest.approx(0.75)

    def test_partition_of_unity(self):
        for degree, continuity in ((3, 0), (5, 1), (7, 1)):
            kv = make_knot_vector(degree, continuity, 5)
            for x in np.linspace(0, 5, 41):
                total = sum(eval_bspline(kv, i, float(x))
                            for i in range(kv.num_basis))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_right_endpoint(self):
        kv = make_knot_vector(3, 1, 4)
        assert eval_bspline(kv, kv.num_basis - 1, 4.0) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        kv = make_knot_vector(2, 1, 3)
        with pytest.raises(IndexError):
            eval_bspline(kv, kv.num_basis, 1.0)
        with pytest.raises(IndexError):
            eval_bspline(kv, -1, 1.0)


class TestExactIntegral:
    def test_interior_hat(self):
        kv = make_knot_vector(1, 0, 4)
        assert exact_bspline_integral(kv, 2) == Fraction(1)

    def test_returns_fraction_and_sums_to_span(self):
        kv = make_knot_vector(5, 1, 6)
        total = sum(exact_bspline_integral(kv, i) for i in range(kv.num_basis))
        assert isinstance(total, Fraction)
        assert total == 6  # integrals of a partition of unity over [0, 6]

    def test_matches_quadrature_of_bspline(self):
        kv = make_knot_vector(3, 1, 6)
        rule = cached_rule(Family.C1_ODD_ENDPOINT, 1)
        i = kv.num_basis // 2
        total = 0.0
        for k in range(6):
            for iv in rule.intervals:
                for x, w in zip(iv.nodes, iv.weights):
                    total += float(w) * eval_bspline(kv, i, float(x) + k)
        assert total == pytest.approx(float(exact_bspline_integral(kv, i)),
                                      abs=1e-13)

    def test_index_out_of_range(self):
        kv = make_knot_vector(2, 1, 3)
        with pytest.raises(IndexError):
            exact_bspline_integral(kv, kv.num_basis)


class TestCheckExactness:
    def test_rules_integrate_their_spline_space(self):
        for family in Family:
            n = 3 if family is not Family.C1_EVEN else 3
            report = check_exactness(cached_rule(family, n))
            assert report.max_abs_error <= 1e-12, family
            assert report.tested_basis_count > 0

    def test_negative_control_one_degree_up(self):
        rule = cached_rule(Family.C0_ODD, 3)
        report = check_exactness(rule, degree=rule.degree + 1)
        assert report.max_abs_error > 1e-6

    def test_report_metadata(self):
        rule = cached_rule(Family.C0_EVEN, 2)
        report = check_exactness(rule)
        assert report.family is Family.C0_EVEN
        assert report.n == 2
        assert report.degree == rule.degree
        assert 0 <= report.worst_basis_index

    def test_more_copies_do_not_hurt(self, monkeypatch):
        rule = cached_rule(Family.C1_ODD_INTERIOR, 4)
        tested = []
        for copies in (4, 8):
            monkeypatch.setattr(splinecheck, "COPIES", copies)
            report = check_exactness(rule)
            assert report.max_abs_error <= 1e-12
            tested.append(report.tested_basis_count)
        assert 0 < tested[0] < tested[1]  # the tiling follows COPIES


class TestGolden:
    def test_load_all_tables(self):
        tables = load_golden_tables()
        assert len(tables) == 34
        assert "C0xD2" in tables and "C1xD15x2" in tables
        for rid, g in tables.items():
            assert g.rule_id == rid
            assert g.smoothness in (0, 1)
            assert all(len(e) == 2 for e in g.entries)

    def test_generated_rules_match_tables(self):
        tables = load_golden_tables()
        for rid in ("C0xD5", "C1xD7", "C1xD7x2", "C1xD8"):
            g = tables[rid]
            variant = None if g.variant == "default" else g.variant
            family, n = family_for(g.smoothness, g.degree, variant)
            assert compare_golden(cached_rule(family, n), g) <= 1e-13

    def test_entry_count_mismatch(self):
        g = load_golden_tables()["C0xD5"]
        truncated = GoldenRule(
            rule_id=g.rule_id, smoothness=g.smoothness, degree=g.degree,
            variant=g.variant, intervals=g.intervals[:1],
        )
        family, n = family_for(g.smoothness, g.degree, None)
        with pytest.raises(EntryCountMismatch):
            compare_golden(cached_rule(family, n), truncated)

    def test_deviation_detects_perturbation(self):
        g = load_golden_tables()["C1xD5"]
        family, n = family_for(g.smoothness, g.degree, None)
        rule = cached_rule(family, n)
        bumped = GoldenRule(
            rule_id=g.rule_id, smoothness=g.smoothness, degree=g.degree,
            variant=g.variant,
            intervals=tuple(
                tuple((x, str(float(w) + 1e-6)) for x, w in iv)
                for iv in g.intervals
            ),
        )
        assert compare_golden(rule, bumped) >= 0.9e-6
