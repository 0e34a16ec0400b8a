import math

import mpmath
import pytest

from splinequad import assembly
from splinequad.assembly import PolishFailed, arithmetic, polish
from splinequad.doubledouble import DD
from splinequad.families import build_c1_interior
from splinequad.gegenbauer import GegenbauerCombo, eval_combo
from splinequad.rootfind import (
    CountMismatch,
    NoSignChange,
    RootSet,
    isolate_and_refine,
    refine_root,
)

LINEAR = GegenbauerCombo.build(1.5, [(1, 1)])              # 3x
QUADRATIC = GegenbauerCombo.build(1.5, [(2, 4), (0, -9)])  # 30x^2 - 15
SHIFTED = GegenbauerCombo.build(1.5, [(1, 1), (0, math.sqrt(3))])  # 3x + sqrt(3)
ORDER52_QUAD = GegenbauerCombo.build(2.5, [(2, 1)])        # 17.5 x^2 - 2.5


def _polish(combo, roots, brackets, extended):
    """The polish stage of assembly on given double roots, at 50 digits,
    as mpf values (a double-double x.hi + x.lo is exact as an mpf)."""
    with mpmath.workdps(50):
        arith = arithmetic(extended)
        x = polish(combo.map(arith.lift), RootSet(tuple(roots), tuple(brackets)), arith)
        if isinstance(x, DD):
            return [mpmath.mpf(h) + lo for h, lo in zip(x.hi, x.lo)]
        return list(x)


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
        assert all(lo <= x <= hi for x, (lo, hi) in zip(rs.roots, rs.brackets))

    def test_residual_bound(self):
        for combo, count in ((QUADRATIC, 2), (ORDER52_QUAD, 2),
                             (GegenbauerCombo.build(1.5, [(9, 1)]), 9)):
            rs = isolate_and_refine(combo, -1, 1, expected_count=count)
            for root in rs.roots:
                res, der = eval_combo(combo, root)
                assert abs(res) <= 1e-10 * max(1.0, abs(der))

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
        # the double roots, isolated on mpf bounds, polished at 50 digits
        rs = isolate_and_refine(QUADRATIC, mpmath.mpf(-1), mpmath.mpf(1),
                                expected_count=2)
        with mpmath.workdps(50):
            arith = arithmetic(extended=True)
            roots = polish(QUADRATIC.map(arith.lift), rs, arith)
            target = 1 / mpmath.sqrt(2)
            assert abs(roots[1] - target) < mpmath.mpf(10) ** -45
            assert isinstance(roots[1], mpmath.mpf)

    @pytest.mark.parametrize("extended", [False, True])
    def test_exact_zero_on_the_grid(self, extended):
        # the grid on [0, 1] starts at 0.0 exactly, where 3x vanishes;
        # the root gets a bracket and the polish leaves it exact
        rs = isolate_and_refine(LINEAR, 0, 1, expected_count=1)
        assert rs.roots == (0,)
        assert rs.brackets[0][0] <= 0 < rs.brackets[0][1]
        assert _polish(LINEAR, rs.roots, rs.brackets, extended) == [0]


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
