import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import eval_gegenbauer as scipy_gegenbauer

from splinequad.assembly import EXTENDED_DPS
from splinequad.doubledouble import DD
from splinequad.families import Family, build_family
from splinequad.gegenbauer import (
    GegenbauerCombo,
    eval_combo,
    last_row,
    squared_norm,
    weight_function,
)

from paper import gegenbauer_values

ORDERS = [1.5, 2.5, 3.5]


def weighed_combos(iv):
    """R and C_(m-1) of an interval, the combos its weights evaluate."""
    m = max(d for d, _ in iv.r.terms)
    return iv.r, GegenbauerCombo.build(iv.r.alpha, [(m - 1, 1)])


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
                    val = val + wanted[k] * c
                    der = der + wanted[k] * dc
            return val, der

        spec = build_family(family, 40)
        xs = np.linspace(-1, 1, 9)
        for iv in spec.intervals:
            for combo in weighed_combos(iv):
                pf, pd = combo.map(float), combo.map(DD.of)
                assert np.array_equal(eval_combo(pf, xs), reference(pf, xs))
                got, ref = eval_combo(pd, DD(xs)), reference(pd, DD(xs))
                for g, r in zip(got, ref):
                    assert np.array_equal(g.hi, r.hi) and np.array_equal(g.lo, r.lo)
                with mpmath.workdps(EXTENDED_DPS):
                    for x in ("-1", "-0.31", "0.87"):
                        x = mpmath.mpf(x)
                        assert eval_combo(combo, x) == reference(combo, x)


class TestFusedCombos:
    """Several combos of one alpha from one recurrence, as assembly
    evaluates R' and C_(m-1)."""

    @pytest.mark.parametrize("family", list(Family))
    def test_bit_equal_to_separate_calls(self, family):
        xs = np.linspace(-1, 1, 9)
        for iv in build_family(family, 40).intervals:
            combos = weighed_combos(iv)
            pf = tuple(q.map(float) for q in combos)
            for x in (-0.77, 0.31):
                assert eval_combo(pf, x) == tuple(eval_combo(q, x) for q in pf)
            for (val, der), q in zip(eval_combo(pf, xs), pf):
                ref_val, ref_der = eval_combo(q, xs)
                assert np.array_equal(val, ref_val) and np.array_equal(der, ref_der)
            pd = tuple(q.map(DD.of) for q in combos)
            for pair, q in zip(eval_combo(pd, DD(xs)), pd):
                for g, r in zip(pair, eval_combo(q, DD(xs))):
                    assert np.array_equal(g.hi, r.hi) and np.array_equal(g.lo, r.lo)
            with mpmath.workdps(EXTENDED_DPS):
                for x in ("-0.31", "0.87"):
                    x = mpmath.mpf(x)
                    assert eval_combo(combos, x) == tuple(eval_combo(q, x) for q in combos)

    def test_one_combo_in_a_tuple(self):
        p = GegenbauerCombo.build(1.5, [(3, 2), (1, Fraction(1, 3))])
        assert eval_combo((p,), 0.4) == (eval_combo(p, 0.4),)

    def test_mixed_alphas_rejected(self):
        c0 = GegenbauerCombo.build(1.5, [(2, 1)])
        c1 = GegenbauerCombo.build(2.5, [(2, 1)])
        with pytest.raises(ValueError, match="one alpha"):
            eval_combo((c0, c1), 0.3)


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

    def test_c0_even_root_check(self):
        # C_1 + sqrt(3) C_0 = 3x + sqrt(3) vanishes at -1/sqrt(3)
        p = GegenbauerCombo.build(1.5, [(1, 1), (0, math.sqrt(3))])
        val, der = eval_combo(p, -1 / math.sqrt(3))
        assert val == pytest.approx(0.0, abs=1e-14)
        assert der == pytest.approx(3.0)

    def test_negative_degree_terms_dropped(self):
        p = GegenbauerCombo.build(2.5, [(-1, 99), (-3, 1), (0, 2)])
        assert p.terms == ((0, 2),)

    def test_terms_of_one_degree_summed(self):
        p = GegenbauerCombo.build(1.5, [(2, 4), (0, -9), (2, Fraction(1, 2))])
        assert p.terms == ((2, Fraction(9, 2)), (0, -9))


class TestLastRow:
    """last_row against the monic recurrences of R's polynomials."""

    @pytest.mark.parametrize("family", list(Family))
    def test_monic_r_from_the_last_row(self, family):
        # R / (a k_m) is (x - diag) p_(m-1) - (beta_m - shift) p_(m-2), with
        # p_j = C_j / k_j monic and k_j = 2^j (alpha)_j / j!
        for n in (2, 3, 24):
            for iv in build_family(family, n).intervals:
                if not iv.expected_free_nodes:
                    continue
                alpha = iv.r.alpha
                with mpmath.workdps(EXTENDED_DPS):
                    m, a, diag, shift = last_row(iv.r)
                    lead = [mpmath.rf(alpha, j) * 2 ** j / mpmath.factorial(j)
                            for j in range(m + 1)]
                    beta = (mpmath.mpf((m + 2 * alpha - 2) * (m - 1))
                            / (4 * (m + alpha - 2) * (m + alpha - 1)))
                    for x in ("-0.83", "0.12", "0.61"):
                        x = mpmath.mpf(x)
                        # p[-1] = 0 stands for p_(-1) at m = 1
                        p = [c / k for c, k in zip(gegenbauer_values(alpha, x, m), lead)] + [0]
                        built = (x - diag) * p[m - 1] - (beta - shift) * p[m - 2]
                        ref = eval_combo(iv.r, x)[0] / (a * lead[m])
                        assert abs(built - ref) <= 1e-45 * max(1, abs(ref)), (n, x)

    def test_number_type_follows_the_constants(self):
        exact = GegenbauerCombo.build(2.5, [(4, 3), (2, -7)])
        # b/a (4/11) (3/9)
        assert last_row(exact) == (4, 3, 0, Fraction(-28, 99))
        assert isinstance(last_row(exact.map(float))[3], float)
        with mpmath.workdps(30):
            inexact = GegenbauerCombo.build(2.5, [(4, 3), (3, mpmath.mpf(-7))])
            assert isinstance(last_row(inexact)[2], mpmath.mpf)

    @pytest.mark.parametrize("terms", [[(3, 1), (0, 1)], [(3, 0)], [(3, 1), (2, 1), (1, 1)]])
    def test_other_forms_rejected(self, terms):
        with pytest.raises(ValueError, match="not a C_m"):
            last_row(GegenbauerCombo.build(1.5, terms))


class TestWeightFunction:
    @pytest.mark.parametrize("alpha", ORDERS)
    def test_squared_norm_matches_quadrature(self, alpha):
        # the closed forms of 3/2 and 5/2, and mpmath's quadrature
        closed = {
            1.5: lambda j: Fraction(2 * (j + 1) * (j + 2), 2 * j + 3),
            2.5: lambda j: Fraction(2 * (j + 1) * (j + 2) * (j + 3) * (j + 4), 9 * (2 * j + 5)),
        }
        with mpmath.workdps(30):
            for j in (0, 1, 2, 7, 12):
                norm = squared_norm(alpha, j)
                if alpha in closed:
                    assert norm == closed[alpha](j)
                ref = mpmath.quad(lambda x: mpmath.gegenbauer(j, alpha, x) ** 2
                                  * (1 - x * x) ** (alpha - 0.5), [-1, 0, 1])
                assert abs(norm.numerator / mpmath.mpf(norm.denominator) - ref) <= 1e-25 * ref

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_weight_function_in_every_arithmetic(self, alpha):
        x = np.linspace(-1, 1, 9)
        expected = (1 - x * x) ** (alpha - 0.5)
        assert np.allclose(weight_function(alpha, x), expected, rtol=1e-15, atol=0)
        dd = weight_function(alpha, DD(x))
        assert np.allclose(dd.hi, expected, rtol=1e-15, atol=0)
        with mpmath.workdps(40):
            y = mpmath.mpf("0.999")
            assert abs(weight_function(alpha, y) - (1 - y * y) ** (alpha - 0.5)) <= 1e-40

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError, match="half-integer"):
            weight_function(0.75, 0.5)
