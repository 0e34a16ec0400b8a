import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_gegenbauer as scipy_gegenbauer

from splinequad.doubledouble import DD
from splinequad.families import EXTENDED_DPS, Family, build_family
from splinequad.gegenbauer import GegenbauerCombo, eval_combo

ORDERS = [1.5, 2.5, 3.5]


def gegenbauer(alpha, n, x):
    """C_n^(alpha)(x) and its derivative, from the one-term combo."""
    return eval_combo(GegenbauerCombo.build(alpha, [(n, 1)]), x)


def explicit_low_degree(alpha, n, x):
    # closed forms for n <= 3
    if n == 0:
        return 1.0
    if n == 1:
        return 2 * alpha * x
    if n == 2:
        return 2 * alpha * (alpha + 1) * x * x - alpha
    if n == 3:
        return (4 / 3) * alpha * (alpha + 1) * (alpha + 2) * x ** 3 \
            - 2 * alpha * (alpha + 1) * x
    raise ValueError(n)


class TestEvalGegenbauer:
    """Single Gegenbauer polynomials through one-term combos."""

    def test_degree_one(self):
        assert gegenbauer(1.5, 1, 0.5)[0] == pytest.approx(1.5)

    def test_value_at_one(self):
        assert gegenbauer(1.5, 2, 1.0)[0] == pytest.approx(6.0)

    def test_negative_degree_is_zero(self):
        combo = GegenbauerCombo.build(2.5, [(-1, 1)])
        assert combo.is_empty
        assert eval_combo(combo, 0.3) == (0, 0)

    def test_degree_two_at_zero(self):
        assert gegenbauer(2.5, 2, 0.0)[0] == pytest.approx(-2.5)

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_recurrence_matches_explicit_forms(self, alpha, n):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-1, 1, size=25):
            expected = explicit_low_degree(alpha, n, x)
            got = gegenbauer(alpha, n, x)[0]
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_endpoint_identity(self, alpha):
        # C_n(1) = binomial(n + 2*alpha - 1, n)
        for n in range(31):
            expected = math.gamma(n + 2 * alpha) / (
                math.gamma(2 * alpha) * math.factorial(n))
            assert gegenbauer(alpha, n, 1.0)[0] == pytest.approx(
                expected, rel=1e-13)

    def test_vectorized_over_numpy_array(self):
        x = np.linspace(-1, 1, 7)
        vals = gegenbauer(1.5, 4, x)[0]
        for xi, vi in zip(x, vals):
            assert vi == pytest.approx(gegenbauer(1.5, 4, float(xi))[0])

    def test_orthogonality_weight_one_minus_x2(self):
        # order 3/2 is orthogonal under the weight (1 - x^2)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for m in range(11):
            for n in range(m + 1, 11):
                vals = (1 - nodes ** 2) * gegenbauer(1.5, m, nodes)[0] \
                    * gegenbauer(1.5, n, nodes)[0]
                assert abs(float(weights @ vals)) <= 1e-12


class TestDerivative:
    """Derivatives of single Gegenbauer polynomials through one-term combos."""

    def test_linear(self):
        for x in (-0.8, 0.0, 0.3):
            assert gegenbauer(1.5, 1, x)[1] == pytest.approx(3.0)

    def test_quadratic_at_one(self):
        assert gegenbauer(1.5, 2, 1.0)[1] == pytest.approx(15.0)

    def test_constant_is_zero(self):
        assert gegenbauer(2.5, 0, 0.7)[1] == 0

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_against_central_differences(self, alpha):
        h = 1e-6
        rng = np.random.default_rng(7)
        for n in [1, 2, 5, 10, 20, 30]:
            for x in rng.uniform(-0.9, 0.9, size=5):
                fd = (gegenbauer(alpha, n, x + h)[0]
                      - gegenbauer(alpha, n, x - h)[0]) / (2 * h)
                got = gegenbauer(alpha, n, x)[1]
                assert got == pytest.approx(fd, rel=1e-7, abs=1e-7)


class TestSinglePassCombo:
    """eval_combo's one differentiated recurrence against references that
    share none of its code: scipy for doubles, mpmath for mpf, and the
    order-raising identity d/dx C_n^(alpha) = 2 alpha C_{n-1}^(alpha+1)
    for the derivative."""

    DEGREES = [0, 1, 2, 3, 9, 30, 50, 81, 140, 200]

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_float_and_array_match_scipy(self, alpha):
        x = np.linspace(-1, 1, 101)
        for n in self.DEGREES:
            p = GegenbauerCombo.build(alpha, [(n, 1)])
            val, der = eval_combo(p, x)
            ref_val = scipy_gegenbauer(n, alpha, x)
            ref_der = 2 * alpha * scipy_gegenbauer(n - 1, alpha + 1, x) if n else 0 * x
            # forward recurrence: error within 4 (n + 1) ulps of the largest value
            tol = 4 * (n + 1) * np.finfo(float).eps
            assert np.max(np.abs(val - ref_val)) <= tol * np.max(np.abs(ref_val)), n
            assert np.max(np.abs(der - ref_der)) <= tol * max(1.0, np.max(np.abs(ref_der))), n
            for i in (0, 17, 50, 88, 100):  # the scalar path does the same arithmetic
                assert eval_combo(p, float(x[i])) == (val[i], der[i])

    # 0.75: 2 alpha is no integer, so the recurrence keeps float constants
    @pytest.mark.parametrize("alpha", [0.75, 1.5, 2.5])
    def test_mpf_matches_mpmath(self, alpha):
        with mpmath.workdps(30):
            for n in self.DEGREES:
                p = GegenbauerCombo.build(alpha, [(n, 1)])
                scale = mpmath.gegenbauer(n, alpha, 1)  # the largest value
                for x in ("-1", "-0.93", "0.1", "0.77", "1"):
                    x = mpmath.mpf(x)
                    val, der = eval_combo(p, x)
                    assert isinstance(val, mpmath.mpf) and isinstance(der, mpmath.mpf)
                    assert abs(val - mpmath.gegenbauer(n, alpha, x)) <= 1e-27 * scale
                    ref_der = 2 * alpha * mpmath.gegenbauer(n - 1, alpha + 1, x) if n else 0
                    assert abs(der - ref_der) <= 1e-27 * scale * (n * n + 1)

    @pytest.mark.parametrize("family", list(Family))
    def test_int_constants_change_no_result(self, family):
        # the recurrence with float constants, as before the int constants
        def reference(p, x):
            val = der = c_prev = dc = dc_prev = 0 * x
            c = 1 + val
            wanted = dict(p.terms)
            for k in range(max(d for d, _ in p.terms) + 1):
                if k:
                    a, b = 2 * (k + p.alpha - 1), k + 2 * p.alpha - 2
                    c, c_prev, dc, dc_prev = (
                        (a * x * c - b * c_prev) / k, c,
                        (a * (c + x * dc) - b * dc_prev) / k, dc,
                    )
                if k in wanted:
                    c0, c1, c2 = wanted[k]
                    coeff = c0 + (c1 + c2 * x) * x
                    val = val + coeff * c
                    der = der + (c1 + 2 * c2 * x) * c + coeff * dc
            return val, der

        spec = build_family(family, 40)
        xs = np.linspace(-1, 1, 9)
        for iv in spec.intervals:
            for combo in (iv.r, iv.s):
                pf, pd = combo.map(float), combo.map(DD.of)
                assert np.array_equal(eval_combo(pf, xs), reference(pf, xs))
                got, ref = eval_combo(pd, DD(xs)), reference(pd, DD(xs))
                for g, r in zip(got, ref):
                    assert np.array_equal(g.hi, r.hi) and np.array_equal(g.lo, r.lo)
                with mpmath.workdps(EXTENDED_DPS):
                    for x in ("-1", "-0.31", "0.87"):
                        x = mpmath.mpf(x)
                        assert eval_combo(combo, x) == reference(combo, x)


class TestCombo:
    def test_c0_odd_first_interval_n2(self):
        # 4*C_2 - 9*C_0 at order 3/2 expands to 30 x^2 - 15
        p = GegenbauerCombo.build(1.5, [(2, 4), (0, -9)])
        val, der = eval_combo(p, 0.0)
        assert val == pytest.approx(-15.0)
        assert der == pytest.approx(0.0, abs=1e-14)
        val, der = eval_combo(p, 0.5)
        assert val == pytest.approx(30 * 0.25 - 15)
        assert der == pytest.approx(60 * 0.5)

    def test_empty_combo(self):
        p = GegenbauerCombo.build(1.5, [])
        assert eval_combo(p, 0.37) == (0, 0)
        assert p.is_empty
        assert p.degree == -1

    def test_c0_even_root_check(self):
        # C_1 + sqrt(3) C_0 = 3x + sqrt(3) vanishes at -1/sqrt(3)
        p = GegenbauerCombo.build(1.5, [(1, 1), (0, math.sqrt(3))])
        val, der = eval_combo(p, -1 / math.sqrt(3))
        assert val == pytest.approx(0.0, abs=1e-14)
        assert der == pytest.approx(3.0)

    def test_negative_degree_terms_dropped(self):
        p = GegenbauerCombo.build(2.5, [(-1, 99), (-3, (0, 1, 0)), (0, 2)])
        assert p.terms == ((0, (2, 0, 0)),)

    def test_coefficient_functions_use_product_rule(self):
        # x * C_1 at order 3/2 is 3 x^2; derivative 6x
        p = GegenbauerCombo.build(1.5, [(1, (0, 1, 0))])
        val, der = eval_combo(p, 0.4)
        assert val == pytest.approx(3 * 0.16)
        assert der == pytest.approx(6 * 0.4)

    def test_one_plus_x2_coefficient(self):
        # (1 + x^2) * C_0 -> value 1 + x^2, derivative 2x
        p = GegenbauerCombo.build(2.5, [(0, (1, 0, 1))])
        val, der = eval_combo(p, -0.3)
        assert val == pytest.approx(1.09)
        assert der == pytest.approx(-0.6)

    def test_combo_degree(self):
        assert GegenbauerCombo.build(1.5, [(4, 2), (2, -1)]).degree == 4
        assert GegenbauerCombo.build(1.5, [(3, (0, 5, 0))]).degree == 4
        assert GegenbauerCombo.build(2.5, [(2, (1, 0, 1))]).degree == 4
