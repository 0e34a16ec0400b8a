import math

import mpmath
import pytest

from splinequad import rootfind
from splinequad.families import build_c1_interior
from splinequad.gegenbauer import GegenbauerCombo, eval_combo
from splinequad.rootfind import (
    CountMismatch,
    NoSignChange,
    PolishFailed,
    isolate_and_refine,
    polish_root,
    refine_root,
)

LINEAR = GegenbauerCombo.build(1.5, [(1, 1)])              # 3x
QUADRATIC = GegenbauerCombo.build(1.5, [(2, 4), (0, -9)])  # 30x^2 - 15
SHIFTED = GegenbauerCombo.build(1.5, [(1, 1), (0, math.sqrt(3))])  # 3x + sqrt(3)
ORDER52_QUAD = GegenbauerCombo.build(2.5, [(2, 1)])        # 17.5 x^2 - 2.5


class TestRefineRoot:
    def test_linear(self):
        assert refine_root(LINEAR, (-0.4, 0.9)) == pytest.approx(0.0, abs=1e-15)

    def test_shifted_linear(self):
        root = refine_root(SHIFTED, (-1.0, 0.0))
        assert root == pytest.approx(-0.5773502691896258, abs=1e-15)

    def test_order_five_halves_quadratic(self):
        root = refine_root(ORDER52_QUAD, (0.0, 1.0))
        assert root == pytest.approx(0.3779644730092272, abs=1e-15)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChange):
            refine_root(LINEAR, (0.5, 1.0))

    def test_bracket_endpoint_already_root(self):
        assert refine_root(LINEAR, (0.0, 1.0)) == 0.0
        assert refine_root(LINEAR, (-1.0, 0.0)) == 0.0

    def test_deterministic(self):
        a = refine_root(QUADRATIC, (0.1, 1.0))
        b = refine_root(QUADRATIC, (0.1, 1.0))
        assert a == b  # bit-identical


class TestIsolateAndRefine:
    def test_quadratic_both_roots(self):
        rs = isolate_and_refine(QUADRATIC, -1, 1, expected_count=2)
        expected = 0.7071067811865476
        assert rs.roots[0] == pytest.approx(-expected, abs=1e-15)
        assert rs.roots[1] == pytest.approx(expected, abs=1e-15)
        assert list(rs.roots) == sorted(rs.roots)
        assert rs.interval == (-1, 1)

    def test_residual_bound(self):
        for combo, count in ((QUADRATIC, 2), (ORDER52_QUAD, 2),
                             (GegenbauerCombo.build(1.5, [(9, 1)]), 9)):
            rs = isolate_and_refine(combo, -1, 1, expected_count=count)
            for root, res in zip(rs.roots, rs.residuals):
                _, der = eval_combo(combo, root)
                assert res <= 1e-10 * max(1.0, abs(der))

    def test_high_degree_count(self):
        combo = GegenbauerCombo.build(1.5, [(50, 1)])
        rs = isolate_and_refine(combo, -1, 1, expected_count=50)
        assert len(rs.roots) == 50

    def test_count_mismatch_negative_delta(self):
        spec = build_c1_interior(2, delta_sign=-1)
        iv = spec.intervals[0]
        with pytest.raises(CountMismatch):
            isolate_and_refine(iv.r, -1, 1, expected_count=iv.expected_free_nodes)

    def test_empty_combo_rejected(self):
        with pytest.raises(ValueError):
            isolate_and_refine(GegenbauerCombo.build(1.5, []), -1, 1, 0)

    def test_deterministic(self):
        a = isolate_and_refine(QUADRATIC, -1, 1, 2)
        b = isolate_and_refine(QUADRATIC, -1, 1, 2)
        assert a.roots == b.roots

    def test_extended_precision(self):
        with mpmath.workdps(50):
            rs = isolate_and_refine(QUADRATIC, mpmath.mpf(-1), mpmath.mpf(1),
                                    expected_count=2, extended=True)
            target = 1 / mpmath.sqrt(2)
            assert abs(rs.roots[1] - target) < mpmath.mpf(10) ** -45
            assert isinstance(rs.roots[1], mpmath.mpf)

    def test_double_residuals_equal_scalar_evaluation(self):
        # the one array evaluation does the scalar path's arithmetic
        for combo, count in ((QUADRATIC, 2), (SHIFTED, 1),
                             (GegenbauerCombo.build(2.5, [(40, 1)]), 40)):
            rs = isolate_and_refine(combo, -1, 1, expected_count=count)
            assert rs.residuals == tuple(abs(eval_combo(combo, r)[0]) for r in rs.roots)

    def test_extended_residuals_at_working_precision(self):
        with mpmath.workdps(50):
            rs = isolate_and_refine(ORDER52_QUAD, -1, 1, expected_count=2,
                                    extended=True)
            assert all(isinstance(r, mpmath.mpf) for r in rs.residuals)
            assert max(rs.residuals) < mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("extended", [False, True])
    def test_exact_zero_on_the_grid(self, extended):
        # the grid on [0, 1] starts at 0.0 exactly, where 3x vanishes
        with mpmath.workdps(50):
            rs = isolate_and_refine(LINEAR, 0, 1, expected_count=1, extended=extended)
        assert rs.roots == (0,)


class TestPolishRoot:
    BRACKET = (0.5, 0.9)  # holds the root 1/sqrt(2) of QUADRATIC

    def test_converges_from_the_double_root(self):
        with mpmath.workdps(50):
            x, residual = polish_root(QUADRATIC, 0.7071067811865476, self.BRACKET)
            assert abs(x - 1 / mpmath.sqrt(2)) < mpmath.mpf(10) ** -48
            assert residual < mpmath.mpf(10) ** -25

    def test_wrong_root_leaves_the_bracket(self):
        with mpmath.workdps(50):
            with pytest.raises(PolishFailed, match="left the bracket"):
                polish_root(QUADRATIC, -0.7071067811865476, self.BRACKET)

    def test_vanishing_derivative(self):
        with mpmath.workdps(50):
            with pytest.raises(PolishFailed, match="R' = 0"):
                polish_root(QUADRATIC, 0.0, (-0.5, 0.5))

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(rootfind, "POLISH_STEPS", 0)
        with mpmath.workdps(50):
            with pytest.raises(PolishFailed, match="no convergence"):
                polish_root(QUADRATIC, 0.7071067811865476, self.BRACKET)
