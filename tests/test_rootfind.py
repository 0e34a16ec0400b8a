import math

import mpmath
import numpy as np
import pytest

from splinequad import assembly, rootfind
from splinequad.assembly import REFINE_TOL, PolishFailed, polish
from splinequad.doubledouble import DD
from splinequad.families import MAX_N, Family, build_family
from splinequad.gegenbauer import GegenbauerCombo, eval_combo
from splinequad.rootfind import CountMismatch, RootSet, isolate_and_refine, refine_root

LINEAR = GegenbauerCombo.build(1.5, [(1, 1)])              # 3x
QUADRATIC = GegenbauerCombo.build(1.5, [(2, 4), (0, -9)])  # 30x^2 - 15
SHIFTED = GegenbauerCombo.build(1.5, [(1, 1), (0, math.sqrt(3))])  # 3x + sqrt(3)
ORDER52_QUAD = GegenbauerCombo.build(2.5, [(2, 1)])        # 17.5 x^2 - 2.5
AT_MINUS_ONE = GegenbauerCombo.build(1.5, [(1, 1), (0, 3)])  # 3x + 3
AT_PLUS_ONE = GegenbauerCombo.build(1.5, [(1, 1), (0, -3)])  # 3x - 3


def _mpf_tol():
    """The mpf polish tolerance of a 50-digit rule, 10^(-55//2 - 3)."""
    return mpmath.mpf(10) ** -30


def _polish(combo, roots, brackets, extended):
    """The polish of assembly in one arithmetic, from given double roots,
    at 50 digits, as mpf values (a double-double x.hi + x.lo is exact as
    an mpf)."""
    found = RootSet(tuple(roots), tuple(brackets))
    with mpmath.workdps(50):
        if extended:
            x = np.array([mpmath.mpf(r) for r in roots], dtype=object)
            return list(polish(combo, x, found, _mpf_tol()))
        x = polish(combo.map(DD.of), DD(np.array(roots, dtype=float)), found, REFINE_TOL)
        return [mpmath.mpf(h) + lo for h, lo in zip(x.hi, x.lo)]


def _newton_step_60(combo, roots):
    """One Newton step of combo from each root, at 60 digits."""
    with mpmath.workdps(60):
        x = np.array([mpmath.mpf(r) for r in roots], dtype=object)
        f, df = eval_combo(combo, x)
        return x - f / df


class TestRefineRoot:
    """One Newton step in double, from an eigenvalue in its bracket."""

    def test_linear(self):
        # Newton is exact on a line, from any start
        assert refine_root(LINEAR, 0.5, (-0.4, 0.9)) == pytest.approx(0.0, abs=1e-15)

    def test_shifted_linear(self):
        root = refine_root(SHIFTED, -0.9, (-1.0, 0.0))
        assert root == pytest.approx(-0.5773502691896258, abs=1e-15)

    def test_order_five_halves_quadratic(self):
        # from 1e-12 off the root, as an eigenvalue is 2e-15 off
        root = refine_root(ORDER52_QUAD, 0.3779644730092272 + 1e-12, (0.0, 1.0))
        assert root == pytest.approx(0.3779644730092272, abs=1e-15)

    def test_deterministic(self):
        a = refine_root(QUADRATIC, 0.3, (0.1, 1.0))
        b = refine_root(QUADRATIC, 0.3, (0.1, 1.0))
        assert a == b  # bit-identical

    def test_one_evaluation_from_the_eigenvalue(self, monkeypatch):
        # the eigenvalue is within a few ulps of the root, and one Newton
        # step takes it to the root
        calls = []

        def counting(p, x):
            calls.append(x)
            return eval_combo(p, x)

        monkeypatch.setattr(rootfind, "eval_combo", counting)
        assert refine_root(QUADRATIC, 0.7071067811865477, (0.0, 1.0)) == pytest.approx(
            0.7071067811865476, abs=1e-16)
        assert calls == [0.7071067811865477]

    def test_one_evaluation_from_a_far_start(self, monkeypatch):
        # one step does not settle a root from 0.6, and no second follows
        calls = []

        def counting(p, x):
            calls.append(x)
            return eval_combo(p, x)

        monkeypatch.setattr(rootfind, "eval_combo", counting)
        x = refine_root(QUADRATIC, 0.6, (0.0, 1.0))
        assert x == pytest.approx(0.6 - (30 * 0.36 - 15) / (60 * 0.6), rel=1e-15)
        assert calls == [0.6]

    def test_step_leaving_the_bracket_keeps_x(self):
        # from 0.3 the step lands at 0.98333.., outside (0.1, 0.9)
        assert refine_root(QUADRATIC, 0.3, (0.1, 0.9)) == 0.3
        assert refine_root(QUADRATIC, 0.3, (0.1, 1.0)) > 0.9

    def test_zero_derivative_keeps_x(self):
        # R' = 60 x vanishes at 0
        assert refine_root(QUADRATIC, 0.0, (-0.5, 0.5)) == 0.0

    def test_evaluates_only_inside_the_brackets(self, monkeypatch):
        # the values at the bracket ends come from one array evaluation,
        # so no scalar evaluation of the refinement lands on a bracket end
        scalars = []

        def recording(p, x):
            if np.ndim(x) == 0:
                scalars.append(x)
            return eval_combo(p, x)

        monkeypatch.setattr(rootfind, "eval_combo", recording)
        ends = set()
        for iv in build_family(Family.C0_EVEN, 24).intervals:
            rs = isolate_and_refine(iv.r, iv.expected_free_nodes)
            ends.update(x for bracket in rs.brackets for x in bracket)
        assert scalars and len(ends) > 24
        assert ends.isdisjoint(scalars)


class TestIsolateAndRefine:
    def test_quadratic_both_roots(self):
        rs = isolate_and_refine(QUADRATIC, expected_count=2)
        expected = 0.7071067811865476
        assert rs.roots[0] == pytest.approx(-expected, abs=1e-15)
        assert rs.roots[1] == pytest.approx(expected, abs=1e-15)
        assert list(rs.roots) == sorted(rs.roots)
        assert all(lo <= x <= hi for x, (lo, hi) in zip(rs.roots, rs.brackets))

    def test_residual_bound(self):
        for combo, count in ((QUADRATIC, 2), (ORDER52_QUAD, 2),
                             (GegenbauerCombo.build(1.5, [(9, 1)]), 9)):
            rs = isolate_and_refine(combo, expected_count=count)
            for root in rs.roots:
                res, der = eval_combo(combo, root)
                assert abs(res) <= 1e-10 * max(1.0, abs(der))

    def test_high_degree_count(self):
        combo = GegenbauerCombo.build(1.5, [(50, 1)])
        rs = isolate_and_refine(combo, expected_count=50)
        assert len(rs.roots) == 50

    @pytest.mark.parametrize("n", [50, 100, 150, MAX_N])
    def test_roots_match_60_digit_newton(self, n):
        # every interval of every family: one 60-digit Newton step moves no
        # double root by more than 2.3e-16 and stays in its bracket.  Newton
        # squares the error times K = |R''/2R'| <= assembly._K_BOUND
        # (test_assembly's curvature test), so the stepped point is within
        # 1e-26 of R's root, and each double root within 2.3e-16 of it
        # (measured: 8e-17; the eigenvalues alone are within 2e-15)
        for family in Family:
            for iv in build_family(family, n).intervals:
                rs = isolate_and_refine(iv.r, iv.expected_free_nodes)
                assert len(rs.roots) == iv.expected_free_nodes, family
                exact = _newton_step_60(iv.r, rs.roots)
                for x, y, (lo, hi) in zip(rs.roots, exact, rs.brackets):
                    assert abs(x - y) <= 2.3e-16, (family, x)
                    assert lo < y < hi, (family, x)

    def test_count_mismatch_negative_delta(self):
        spec = build_family(Family.C1_ODD_INTERIOR, 2, delta_sign=-1)
        iv = spec.intervals[0]
        with pytest.raises(CountMismatch):
            isolate_and_refine(iv.r, expected_count=iv.expected_free_nodes)

    def test_count_mismatch_modified_beta_not_positive(self):
        # 7.5x^2 + 8.5 has no real root: beta_2 - gamma'' = 0.2 - 4/3
        with pytest.raises(CountMismatch, match=r"modified beta -1\.13.* <= 0"):
            isolate_and_refine(GegenbauerCombo.build(1.5, [(2, 1), (0, 10)]), 2)

    def test_count_mismatch_eigenvalue_outside(self):
        # 3x - 3.3 has its root at 1.1; 3x + 3 and 3x - 3 at -1 and +1,
        # which are not inside (-1, 1) either
        for combo in (GegenbauerCombo.build(1.5, [(1, 1), (0, -3.3)]),
                      AT_MINUS_ONE, AT_PLUS_ONE):
            with pytest.raises(CountMismatch, match="sign"):
                isolate_and_refine(combo, 1)

    def test_count_mismatch_degree(self):
        for count in (1, 3):
            with pytest.raises(CountMismatch, match="degree 2"):
                isolate_and_refine(QUADRATIC, count)

    @pytest.mark.parametrize("terms", [
        [(3, 1), (2, 1), (1, 1)],       # three terms
        [(3, 1), (0, 1)],               # a second term of degree m - 3
        [(2, 0)],                       # a lone zero coefficient
        [(2, 1), (2, -1), (1, 1)],      # terms of degree m that cancel
        [(2, 0), (1, 1)],               # a zero leading coefficient
    ])
    def test_combo_outside_the_two_forms(self, terms):
        with pytest.raises(ValueError, match="not a C_m"):
            isolate_and_refine(GegenbauerCombo.build(1.5, terms), 2)

    def test_empty_combo_rejected(self):
        with pytest.raises(ValueError):
            isolate_and_refine(GegenbauerCombo.build(1.5, []), 0)

    def test_deterministic(self):
        a = isolate_and_refine(QUADRATIC, 2)
        b = isolate_and_refine(QUADRATIC, 2)
        assert a.roots == b.roots

    def test_extended_precision(self):
        # the double roots, polished at 50 digits
        rs = isolate_and_refine(QUADRATIC, expected_count=2)
        with mpmath.workdps(50):
            x = np.array([mpmath.mpf(r) for r in rs.roots], dtype=object)
            roots = polish(QUADRATIC, x, rs, _mpf_tol())
            target = 1 / mpmath.sqrt(2)
            assert abs(roots[1] - target) < mpmath.mpf(10) ** -45
            assert isinstance(roots[1], mpmath.mpf)


class TestPolishRoot:
    """The one polish stage of assembly.  Each case runs in both
    arithmetics, double-double and 50-digit mpf, inside the test, so the
    test ids stay those of the former extended-only polish."""

    ROOT = 0.7071067811865476  # the double root 1/sqrt(2) of QUADRATIC
    BRACKET = (0.5, 0.9)

    def test_converges_from_the_double_root(self, monkeypatch):
        # within the steps the polish docstring promises per arithmetic
        for extended, steps, bound in ((False, 1, 1e-31), (True, 3, 1e-48)):
            monkeypatch.setattr(assembly, "POLISH_STEPS", steps)
            x, = _polish(QUADRATIC, [self.ROOT], [self.BRACKET], extended)
            with mpmath.workdps(50):
                assert abs(x - 1 / mpmath.sqrt(2)) < bound, extended

    def test_wrong_root_leaves_the_bracket(self):
        for extended in (False, True):
            with pytest.raises(PolishFailed, match="left the bracket"):
                _polish(QUADRATIC, [-self.ROOT], [self.BRACKET], extended)

    def test_vanishing_derivative(self):
        for extended in (False, True):
            with pytest.raises(PolishFailed, match="R' = 0 at x=0"):
                _polish(QUADRATIC, [0.0], [(-0.5, 0.5)], extended)

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(assembly, "POLISH_STEPS", 0)
        for extended in (False, True):
            with pytest.raises(PolishFailed, match="no convergence .* at x=0.7071"):
                _polish(QUADRATIC, [self.ROOT], [self.BRACKET], extended)
