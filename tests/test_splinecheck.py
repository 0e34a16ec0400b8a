import hashlib
import json
import math
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
    _knots,
    _span_basis,
    check_exactness,
    compare_golden,
    load_golden_tables,
)

from conftest import cached_rule


def _with_first(rule, field, value):
    """The rule with its first node (field "nodes") or weight ("weights")
    replaced by value."""
    first, *rest = rule.intervals
    first = replace(first, **{field: (value, *getattr(first, field)[1:])})
    return replace(rule, intervals=(first, *rest))


class TestKnotVector:
    def test_clamped_uniform_structure(self):
        knots = _knots(degree=3, continuity=1, span_count=4)
        assert knots.tolist() == [0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4]
        assert len(knots) - 3 - 1 == 10  # basis functions

    def test_smooth_case_single_multiplicity(self):
        knots = _knots(degree=2, continuity=1, span_count=3)
        assert knots.tolist() == [0, 0, 0, 1, 2, 3, 3, 3]
        assert len(knots) - 2 - 1 == 5

    def test_span_of_each_cell(self):
        # the span check_exactness takes for unit cell t, D + t * (D - c),
        # is the last knot equal to t, followed by t + 1: the span a search
        # gives for every x in [t, t + 1)
        for degree in [*range(1, 13), 51, 201]:
            for continuity in (0, 1):
                if continuity >= degree:
                    continue
                for span_count in (6, 12):
                    knots = _knots(degree, continuity, span_count).tolist()
                    for t in range(span_count):
                        span = degree + t * (degree - continuity)
                        assert knots[span] == t and knots[span + 1] == t + 1
                        assert _spans(knots, degree, [t, t + 0.5]) == [span] * 2

    def test_rejects_bad_continuity(self):
        # the spline space needs degree > continuity: a C1 rule has no
        # space at degree 0 or 1
        rule = cached_rule(Family.C1_ODD_ENDPOINT, 2)
        for degree in (0, 1):
            with pytest.raises(ValueError, match=f"degree {degree} is not above"):
                check_exactness(rule, degree=degree)
        assert check_exactness(rule, degree=2).tested_basis_count > 0

    @pytest.mark.parametrize("degree", [2.5, 5.0, True, False, "5"])
    def test_rejects_non_integer_degree(self, degree):
        # a float degree used to fail inside numpy, and True ran the
        # oracle at degree 1 and reported degree=True
        rule = cached_rule(Family.C1_ODD_ENDPOINT, 2)
        with pytest.raises(ValueError, match=f"degree {degree!r} is not an integer"):
            check_exactness(rule, degree=degree)
        assert check_exactness(rule, degree=np.int64(5)).degree == 5


def _spans(knots, degree, x):
    """Reference: per point, the index s with knots[s] <= x < knots[s+1],
    and at the clamped right end the last nonempty span."""
    num_basis = len(knots) - degree - 1
    return [min(bisect_right(knots, v) - 1, num_basis - 1) for v in x]


def _span_values(knots, degree, x):
    """The span index at x and the basis values nonzero on it, as the
    oracle computes them."""
    span = _spans(knots.tolist(), degree, [x])[0]
    return span, list(_span_basis(knots, degree, span, np.array([x]))[0])


def _scalar_basis(knots, degree, span, x):
    """Reference: the per-point triangular Cox-de Boor scheme, values for
    indices span-degree .. span."""
    values = [1.0]
    left = []
    right = []
    for j in range(1, degree + 1):
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
        knots = _knots(degree=1, continuity=0, span_count=3)
        assert _spans(knots.tolist(), 1, [0.5, 1.0, 1.5, 2.5]) == [
            1, 2, 2, 3]  # hat 1 ends at 2
        assert _span_values(knots, 1, 0.5) == (1, pytest.approx([0.5, 0.5]))
        assert _span_values(knots, 1, 1.0) == (2, pytest.approx([1.0, 0.0]))
        assert _span_values(knots, 1, 1.5) == (2, pytest.approx([0.5, 0.5]))
        # both points of span 2 in one array, rows in point order
        assert _span_basis(knots, 1, 2, np.array([1.0, 1.5])).tolist() == [
            [1.0, 0.0], [0.5, 0.5]]

    def test_uniform_quadratic_peak(self):
        knots = _knots(degree=2, continuity=1, span_count=4)
        # span [1, 2]: the full-support interior basis 2 on breakpoints
        # 0..3 peaks at 3/4, its neighbours carry 1/8 each
        assert _span_values(knots, 2, 1.5) == (
            3, pytest.approx([0.125, 0.75, 0.125]))

    def test_partition_of_unity(self):
        for degree, continuity in ((3, 0), (5, 1), (7, 1)):
            knots = _knots(degree, continuity, 5)
            x = np.linspace(0, 5, 41)
            spans = np.array(_spans(knots.tolist(), degree, x.tolist()))
            assert all(degree <= s < len(knots) - degree - 1 for s in spans)
            for span in set(spans.tolist()):
                values = _span_basis(knots, degree, span, x[spans == span])
                assert values.shape == ((spans == span).sum(), degree + 1)
                assert values.sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_right_endpoint(self):
        span_count = 4
        knots = _knots(3, 1, span_count)
        span, values = _span_values(knots, 3, float(span_count))
        num_basis = len(knots) - 3 - 1
        assert span == num_basis - 1
        assert values[-1] == pytest.approx(1.0)

    def test_bit_identical_to_the_scalar_triangle(self):
        # the array rows against the per-point scheme they replace; the
        # smoother spaces give Cox-de Boor denominators other than 1 and 2
        rng = np.random.default_rng(7)
        for degree, continuity in ((1, 0), (4, 0), (9, 1), (33, 1), (100, 0),
                                   (6, 4), (8, 7)):
            knots = _knots(degree, continuity, 7)
            x = np.concatenate((np.arange(8.0), rng.uniform(0, 7, 200)))
            spans = np.array(_spans(knots.tolist(), degree, x.tolist()))
            for span in set(spans.tolist()):
                at = x[spans == span]
                rows = _span_basis(knots, degree, span, at).tolist()
                assert rows == [_scalar_basis(knots.tolist(), degree, span, v)
                                for v in at.tolist()]


class TestExactIntegral:
    def test_interior_hat(self):
        # with every weight 0, each error is the basis integral itself:
        # every interior hat integrates to 1, the first is basis 2
        rule = cached_rule(Family.C0_ODD, 1)
        zero = replace(rule, intervals=tuple(
            replace(iv, weights=(0.0,) * len(iv.weights))
            for iv in rule.intervals))
        report = check_exactness(zero, degree=1)
        assert report.max_abs_error == 1.0
        assert report.worst_basis_index == 2

    def test_sums_to_span(self):
        # the knot-difference integrals the oracle divides in float are the
        # exact ones rounded, and they sum to exactly the span count
        for degree, continuity in ((1, 0), (5, 1), (8, 7), (100, 0), (201, 1)):
            knots = _knots(degree, continuity, 6)
            num_basis = len(knots) - degree - 1
            exact = [Fraction(int(knots[i + degree + 1] - knots[i]), degree + 1)
                     for i in range(num_basis)]
            assert sum(exact) == 6  # integrals of a partition of unity
            integrals = (knots[degree + 1:] - knots[:num_basis]) / (degree + 1)
            assert integrals.tolist() == [float(f) for f in exact]

    def test_matches_quadrature_of_bspline(self):
        knots = _knots(3, 1, 6)
        rule = cached_rule(Family.C1_ODD_ENDPOINT, 1)
        i = (len(knots) - 3 - 1) // 2
        total = 0.0
        for k in range(6):
            for iv in rule.intervals:
                for x, w in zip(iv.nodes, iv.weights):
                    span, values = _span_values(knots, 3, float(x) + k)
                    if span - 3 <= i <= span:
                        total += float(w) * values[i - span + 3]
        assert total == pytest.approx((knots[i + 4] - knots[i]) / 4, abs=1e-13)


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

    def test_nan_weight_reports_nan(self):
        # a NaN sum is the largest error, never skipped; a NaN node is
        # evaluated as NaN, not dropped from the sums
        for family in Family:
            for field in ("weights", "nodes"):
                rule = _with_first(cached_rule(family, 3), field, math.nan)
                report = check_exactness(rule)
                assert np.isnan(report.max_abs_error), (family, field)
                assert report.tested_basis_count > 0

    def test_node_outside_its_cell_reports_nan(self):
        # interval 0 lies in [0, 1]: a node at -0.25 is not evaluated in a
        # neighbouring span but reported as NaN; the cell is closed, so a
        # node on its right end is evaluated
        for family in Family:
            rule = _with_first(cached_rule(family, 3), "nodes", -0.25)
            assert np.isnan(check_exactness(rule).max_abs_error), family
            rule = _with_first(cached_rule(family, 3), "nodes", 1.0)
            assert np.isfinite(check_exactness(rule).max_abs_error), family

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

    @pytest.mark.parametrize("field", ["weights", "nodes"])
    def test_nan_entry_reports_nan(self, field):
        g = load_golden_tables()["C0xD5"]
        rule = _with_first(cached_rule(g.family, g.n), field, math.nan)
        assert np.isnan(compare_golden(rule, g))

    def test_deviation_detects_perturbation(self):
        g = load_golden_tables()["C1xD5"]
        rule = cached_rule(g.family, g.n)
        bumped = replace(g, intervals=tuple(
            tuple((x, str(float(w) + 1e-6)) for x, w in iv)
            for iv in g.intervals
        ))
        assert compare_golden(rule, bumped) >= 0.9e-6
