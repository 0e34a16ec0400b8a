import hashlib
import json
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from splinequad import splinecheck
from splinequad.catalog import rule_id
from splinequad.families import Family
from splinequad.splinecheck import (
    EntryCountMismatch,
    _find_spans,
    _span_basis,
    check_exactness,
    compare_golden,
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


def _span_values(kv, x):
    """The span index at x and the basis values nonzero on it, as the
    oracle computes them."""
    span = int(_find_spans(kv, np.array([x]))[0])
    return span, list(_span_basis(kv, span, np.array([x]))[0])


def _scalar_basis(kv, span, x):
    """Reference: the per-point triangular Cox-de Boor scheme, values for
    indices span-degree .. span."""
    knots = kv.knots
    values = [1.0]
    left = []
    right = []
    for j in range(1, kv.degree + 1):
        left.append(x - knots[span + 1 - j])
        right.append(knots[span + j] - x)
        saved = 0.0
        nxt = []
        for r in range(j):
            tmp = values[r] / (right[r] + left[j - 1 - r])
            nxt.append(saved + right[r] * tmp)
            saved = left[j - 1 - r] * tmp
        nxt.append(saved)
        values = nxt
    return values


class TestEvalBspline:
    """The basis as check_exactness evaluates it: per span, the array of
    the degree + 1 values nonzero on it at each point of the span."""

    def test_hat_function(self):
        kv = make_knot_vector(degree=1, continuity=0, num_spans=3)
        assert _find_spans(kv, np.array([0.5, 1.0, 1.5, 2.5])).tolist() == [
            1, 2, 2, 3]  # hat 1 ends at 2
        assert _span_values(kv, 0.5) == (1, pytest.approx([0.5, 0.5]))
        assert _span_values(kv, 1.0) == (2, pytest.approx([1.0, 0.0]))
        assert _span_values(kv, 1.5) == (2, pytest.approx([0.5, 0.5]))
        # both points of span 2 in one array, rows in point order
        assert _span_basis(kv, 2, np.array([1.0, 1.5])).tolist() == [
            [1.0, 0.0], [0.5, 0.5]]

    def test_uniform_quadratic_peak(self):
        kv = make_knot_vector(degree=2, continuity=1, num_spans=4)
        # span [1, 2]: the full-support interior basis 2 on breakpoints
        # 0..3 peaks at 3/4, its neighbours carry 1/8 each
        assert _span_values(kv, 1.5) == (3, pytest.approx([0.125, 0.75, 0.125]))

    def test_partition_of_unity(self):
        for degree, continuity in ((3, 0), (5, 1), (7, 1)):
            kv = make_knot_vector(degree, continuity, 5)
            x = np.linspace(0, 5, 41)
            spans = _find_spans(kv, x)
            assert all(degree <= s < kv.num_basis for s in spans)
            for span in set(spans.tolist()):
                values = _span_basis(kv, span, x[spans == span])
                assert values.shape == ((spans == span).sum(), degree + 1)
                assert values.sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_right_endpoint(self):
        num_spans = 4
        kv = make_knot_vector(3, 1, num_spans)
        span, values = _span_values(kv, float(num_spans))
        assert span == kv.num_basis - 1
        assert values[-1] == pytest.approx(1.0)

    def test_bit_identical_to_the_scalar_triangle(self):
        # the array rows against the per-point scheme they replace, and the
        # spans against bisect_right clamped to the last nonempty span; the
        # smoother spaces give Cox-de Boor denominators other than 1 and 2
        rng = np.random.default_rng(7)
        for degree, continuity in ((1, 0), (4, 0), (9, 1), (33, 1), (100, 0),
                                   (6, 4), (8, 7)):
            kv = make_knot_vector(degree, continuity, 7)
            x = np.concatenate((np.arange(8.0), rng.uniform(0, 7, 200)))
            spans = _find_spans(kv, x)
            assert spans.tolist() == [
                min(bisect_right(kv.knots, v) - 1, kv.num_basis - 1) for v in x]
            for span in set(spans.tolist()):
                at = x[spans == span]
                rows = _span_basis(kv, span, at).tolist()
                assert rows == [_scalar_basis(kv, span, v) for v in at.tolist()]


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
                    span, values = _span_values(kv, float(x) + k)
                    if span - kv.degree <= i <= span:
                        total += float(w) * values[i - span + kv.degree]
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

    @pytest.mark.parametrize("n", [50, 100])
    def test_rules_integrate_their_spline_space_at_large_n(self, n):
        # past criterion 2's degree 25, with its 1e-11 bound
        for family in Family:
            report = check_exactness(cached_rule(family, n))
            assert report.max_abs_error <= 1e-11, family
            assert report.tested_basis_count > 0

    def test_reports_bit_identical(self):
        # SHA-256 of every report's fields, at the rule's degree and one
        # above, for every family at n = min_n..32 and n = 50; computed
        # with the per-node oracle this array code replaced
        reports = []
        for family in Family:
            for n in [*range(family.min_n, 33), 50]:
                rule = cached_rule(family, n)
                a = check_exactness(rule)
                b = check_exactness(rule, degree=rule.degree + 1)
                reports.append((
                    family.name, n,
                    a.max_abs_error.hex(), a.worst_basis_index, a.tested_basis_count,
                    b.max_abs_error.hex(), b.worst_basis_index, b.tested_basis_count,
                ))
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
            "026d8baae971a5de5ab66f361aaddeb99ef18b9f9f3434a423cb1b2b0ba43dba")

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
            assert g.rule_id == rid == rule_id(g.family, g.n)
            assert g.family.smoothness in (0, 1)
            assert all(len(e) == 2 for e in g.entries)

    def test_mislabeled_record_raises(self, monkeypatch, tmp_path):
        raw = json.loads(resources.files("splinequad.data")
                         .joinpath("golden.json").read_text())
        raw["C1xD7x2"]["variant"] = "endpoint"  # the record of C1xD7
        (tmp_path / "golden.json").write_text(json.dumps(raw))
        monkeypatch.setattr(splinecheck, "resources",
                            SimpleNamespace(files=lambda package: tmp_path))
        with pytest.raises(ValueError, match="C1xD7x2 holds the rule C1xD7$"):
            load_golden_tables()

    def test_generated_rules_match_tables(self):
        tables = load_golden_tables()
        for rid in ("C0xD5", "C1xD7", "C1xD7x2", "C1xD8"):
            g = tables[rid]
            assert compare_golden(cached_rule(g.family, g.n), g) <= 1e-13

    def test_entry_count_mismatch(self):
        g = load_golden_tables()["C0xD5"]
        truncated = replace(g, intervals=g.intervals[:1])
        with pytest.raises(EntryCountMismatch):
            compare_golden(cached_rule(g.family, g.n), truncated)

    def test_deviation_detects_perturbation(self):
        g = load_golden_tables()["C1xD5"]
        rule = cached_rule(g.family, g.n)
        bumped = replace(g, intervals=tuple(
            tuple((x, str(float(w) + 1e-6)) for x, w in iv)
            for iv in g.intervals
        ))
        assert compare_golden(rule, bumped) >= 0.9e-6
