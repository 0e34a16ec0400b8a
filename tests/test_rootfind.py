import math

import mpmath
import numpy as np
import pytest

from splinequad import assembly, rootfind
from splinequad.assembly import PolishFailed, polish
from splinequad.doubledouble import DD
from splinequad.families import MAX_N, Family, build_family
from splinequad.gegenbauer import GegenbauerCombo, eval_combo
from splinequad.rootfind import (
    REFINE_TOL,
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


def _refine(combo, bracket):
    """refine_root with the combo's values at the bracket ends, which the
    scan passes in."""
    return refine_root(combo, bracket, [eval_combo(combo, x)[0] for x in bracket])


class TestRefineRoot:
    def test_linear(self):
        assert _refine(LINEAR, (-0.4, 0.9)) == pytest.approx(0.0, abs=1e-15)

    def test_shifted_linear(self):
        root = _refine(SHIFTED, (-1.0, 0.0))
        assert root == pytest.approx(-0.5773502691896258, abs=1e-15)

    def test_order_five_halves_quadratic(self):
        root = _refine(ORDER52_QUAD, (0.0, 1.0))
        assert root == pytest.approx(0.3779644730092272, abs=1e-15)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChange):
            _refine(LINEAR, (0.5, 1.0))

    def test_bracket_endpoint_already_root(self):
        assert _refine(LINEAR, (0.0, 1.0)) == 0.0
        assert _refine(LINEAR, (-1.0, 0.0)) == 0.0

    def test_deterministic(self):
        a = _refine(QUADRATIC, (0.1, 1.0))
        b = _refine(QUADRATIC, (0.1, 1.0))
        assert a == b  # bit-identical

    def test_evaluates_only_inside_the_brackets(self, monkeypatch):
        # the values at the bracket ends come from the scan, so no scalar
        # evaluation of the refinement lands on a bracket end
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

    def test_count_mismatch_negative_delta(self):
        spec = build_family(Family.C1_ODD_INTERIOR, 2, delta_sign=-1)
        iv = spec.intervals[0]
        with pytest.raises(CountMismatch):
            isolate_and_refine(iv.r, expected_count=iv.expected_free_nodes)

    def test_one_scan_before_a_count_mismatch(self, monkeypatch):
        # the rejected delta branch raises after one scan, not a denser retry
        scans = []
        scan = rootfind._scan

        def counting(p, grid):
            scans.append(len(grid))
            return scan(p, grid)

        monkeypatch.setattr(rootfind, "_scan", counting)
        iv = build_family(Family.C1_ODD_INTERIOR, 5, delta_sign=-1).intervals[0]
        with pytest.raises(CountMismatch):
            isolate_and_refine(iv.r, iv.expected_free_nodes)
        assert scans == [max(64, 8 * iv.expected_free_nodes)]

    @pytest.mark.parametrize("n", [50, 100, 150, MAX_N])
    def test_half_density_scan_finds_every_root(self, n):
        # the margin behind the single scan: every family's intervals keep
        # their full root count at half the scan density
        for family in Family:
            for iv in build_family(family, n).intervals:
                count = iv.expected_free_nodes
                grid = rootfind._chebyshev_grid(max(32, 4 * count))
                assert len(rootfind._scan(iv.r.map(float), grid)) == count, family

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

    @pytest.mark.parametrize("extended", [False, True])
    def test_exact_zero_on_the_grid(self, extended):
        # the grid starts at -1.0 exactly, where 3x + 3 vanishes, and ends
        # at +1.0, where 3x - 3 does; the root gets a bracket and the
        # polish leaves it exact
        for combo, root in ((AT_MINUS_ONE, -1), (AT_PLUS_ONE, 1)):
            rs = isolate_and_refine(combo, expected_count=1)
            assert rs.roots == (root,)
            lo, hi = rs.brackets[0]
            assert lo <= root <= hi and lo < hi
            assert _polish(combo, rs.roots, rs.brackets, extended) == [root]
        # an interior grid point g, where 3x - 3g vanishes in double: its
        # bracket spans both neighbours, and the polish reaches the exact
        # root fl(3g)/3 of the combo
        g = rootfind._chebyshev_grid(64)[20]  # the scan grid for one root
        combo = GegenbauerCombo.build(1.5, [(1, 1), (0, -3 * g)])
        assert eval_combo(combo, g)[0] == 0
        rs = isolate_and_refine(combo, expected_count=1)
        lo, hi = rs.brackets[0]
        assert lo < g < hi
        assert rs.roots[0] == pytest.approx(g, abs=1e-15)
        x, = _polish(combo, rs.roots, rs.brackets, extended)
        with mpmath.workdps(50):
            assert abs(x - mpmath.mpf(3 * g) / 3) < (1e-48 if extended else 1e-31)


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
