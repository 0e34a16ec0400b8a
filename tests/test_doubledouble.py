from fractions import Fraction

import mpmath
import numpy as np
import pytest

from splinequad import doubledouble
from splinequad.doubledouble import DD, two_prod, two_sum
from splinequad.families import EXTENDED_DPS, Family, build_family
from splinequad.gegenbauer import eval_combo
from splinequad.rootfind import isolate_and_refine


def _random_doubles(rng, size):
    """Doubles of both signs spread over 2**-40 .. 2**40."""
    return rng.standard_normal(size) * 2.0 ** rng.integers(-40, 40, size)


def _exact(*arrays):
    return [[Fraction(float(v)) for v in a] for a in arrays]


class TestErrorFreeTransformations:
    def test_two_sum_is_exact(self):
        rng = np.random.default_rng(11)
        a = _random_doubles(rng, 2000)
        b = np.concatenate([_random_doubles(rng, 1000),
                            -a[1000:] * (1 + rng.uniform(-1e-12, 1e-12, 1000))])
        s, e = two_sum(a, b)
        for ai, bi, si, ei in zip(*_exact(a, b, s, e)):
            assert si + ei == ai + bi
            assert si == Fraction(float(ai + bi))  # s is the rounded sum

    def test_two_prod_is_exact(self):
        rng = np.random.default_rng(12)
        a, b = _random_doubles(rng, 2000), _random_doubles(rng, 2000)
        p, e = two_prod(a, b)
        for ai, bi, pi, ei in zip(*_exact(a, b, p, e)):
            assert pi + ei == ai * bi
            assert pi == Fraction(float(ai * bi))

    def test_of_rounds_exact_and_extended_values(self):
        third = DD.of(Fraction(1, 3))
        error = Fraction(third.hi) + Fraction(third.lo) - Fraction(1, 3)
        assert abs(error) <= Fraction(1, 3) * Fraction(1, 2 ** 105)
        with mpmath.workdps(EXTENDED_DPS):
            root2 = mpmath.sqrt(2)
            root2_dd = DD.of(root2)
            error = mpmath.mpf(root2_dd.hi) + root2_dd.lo - root2
        assert abs(error) <= root2 * mpmath.mpf(2) ** -105
        big = DD.of(3 ** 40)
        assert Fraction(big.hi) + Fraction(big.lo) == 3 ** 40


class TestArithmetic:
    def test_operations_match_exact_rationals(self):
        # Each result within a few units of 2**-106 of the exact one:
        # relative to the result for * and /, to the operands for + and -
        # (the sloppy sum, like any sum, keeps only absolute accuracy).
        rng = np.random.default_rng(14)
        hi = _random_doubles(rng, 800)
        a = DD(hi[:400], hi[:400] * rng.uniform(-1, 1, 400) * 2.0 ** -54)
        b = DD(hi[400:], hi[400:] * rng.uniform(-1, 1, 400) * 2.0 ** -54)
        ops = [
            (a + b, lambda x, y: x + y, lambda x, y: abs(x) + abs(y)),
            (a - b, lambda x, y: x - y, lambda x, y: abs(x) + abs(y)),
            (a * b, lambda x, y: x * y, lambda x, y: abs(x * y)),
            (a / b, lambda x, y: x / y, lambda x, y: abs(x / y)),
            (a * 3.0 - 7, lambda x, y: 3 * x - 7, lambda x, y: 3 * abs(x) + 7),
        ]
        bound = Fraction(1, 2 ** 103)
        for got, exact, scale in ops:
            for i in range(400):
                x = Fraction(float(a.hi[i])) + Fraction(float(a.lo[i]))
                y = Fraction(float(b.hi[i])) + Fraction(float(b.lo[i]))
                value = Fraction(float(got.hi[i])) + Fraction(float(got.lo[i]))
                assert abs(value - exact(x, y)) <= bound * scale(x, y)


    @staticmethod
    def _operand():
        rng = np.random.default_rng(15)
        hi = _random_doubles(rng, 400)
        return DD(hi, hi * rng.uniform(-1, 1, 400) * 2.0 ** -54)

    @staticmethod
    def _values(x):
        return [Fraction(float(h)) + Fraction(float(lo)) for h, lo in zip(x.hi, x.lo)]

    @pytest.fixture
    def two_prod_calls(self, monkeypatch):
        """The second operand of every two_prod call, recorded by a spy."""
        calls = []

        def spy(x, y):
            calls.append(y)
            return two_prod(x, y)

        monkeypatch.setattr(doubledouble, "two_prod", spy)
        return calls

    @pytest.mark.parametrize("k", [1, 7, -13, 2 ** 26 - 1])
    def test_small_int_operands(self, k, two_prod_calls):
        # an int of at most 26 bits skips the split and two_prod: its
        # products and quotients keep the exact-rational bound of the other
        # operations, and equal those by a DD of the same value in value
        a = self._operand()
        products, quotients = a * k, a / k
        assert two_prod_calls == []
        bound = Fraction(1, 2 ** 103)
        for x, p, q in zip(self._values(a), self._values(products), self._values(quotients)):
            assert abs(p - x * k) <= bound * abs(x * k)
            assert abs(q - x / k) <= bound * abs(x / k)
        assert self._values(products) == self._values(a * DD(float(k)))
        assert self._values(quotients) == self._values(a / DD(float(k)))

    @pytest.mark.parametrize("k", [2 ** 26, np.int64(7), True], ids=["2**26", "int64", "bool"])
    def test_other_numbers_take_the_general_path(self, k, two_prod_calls):
        a = self._operand()
        a * k, a / k
        assert two_prod_calls == [k, k]


class TestComboEvaluation:
    @pytest.mark.parametrize("family", list(Family))
    def test_matches_mpmath_at_40_digits(self, family):
        # R and S of every interval, value and derivative, at random points,
        # at the roots of R and at +-1, with a non-zero low part on every x.
        # Errors are relative to the largest magnitude over the points,
        # which +-1 brings to the size of the terms: a value that cancels
        # to near zero keeps only that absolute accuracy.
        rng = np.random.default_rng(13)
        spec = build_family(family, 80)
        for iv in spec.intervals:
            roots = isolate_and_refine(iv.r.map(float), iv.expected_free_nodes).roots
            hi = np.concatenate([rng.uniform(-1, 1, 6), rng.choice(roots, 6),
                                 [-1.0, 1.0]])
            lo = hi * rng.uniform(-1, 1, hi.size) * 2.0 ** -60
            x = DD(hi, lo)
            for combo in (iv.r, iv.s):
                got = eval_combo(combo.map(DD.of), x)
                with mpmath.workdps(40):
                    refs = [eval_combo(combo, mpmath.mpf(h) + l)
                            for h, l in zip(hi, lo)]
                    for part, dd_part in enumerate(got):
                        ref = [r[part] for r in refs]
                        scale = max(abs(r) for r in ref)
                        for i, r in enumerate(ref):
                            value = mpmath.mpf(dd_part.hi[i]) + dd_part.lo[i]
                            assert abs(value - r) <= 1e-28 * scale, (family, i)
