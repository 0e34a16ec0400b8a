import collections
import dataclasses
import gc
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import roots_gegenbauer

from splinequad import assembly, families
from splinequad.assembly import (
    REFINE_TOL,
    AsymmetricSpec,
    DegenerateWeight,
    PolishFailed,
    assemble,
    polish,
    replicate_periodically,
    scale_to_unit_intervals,
)
from splinequad.catalog import build_rule
from splinequad.doubledouble import DD
from splinequad.families import (
    EXTENDED_DPS,
    GUARD_DIGITS,
    MAX_N,
    Family,
    FamilySpec,
    IntervalSpec,
    build_family,
)
from splinequad.gegenbauer import GegenbauerCombo, eval_combo
from splinequad.rootfind import isolate_and_refine

from conftest import cached_rule, family_range


class TestAssemble:
    def test_c0_odd_n2_closed_form(self):
        rule = assemble(build_family(Family.C0_ODD, 2))
        first, second = rule.intervals
        r = 1 / math.sqrt(2)
        assert first.nodes == pytest.approx((-r, r), abs=1e-15)
        assert first.weights == pytest.approx((4 / 3, 4 / 3), rel=1e-14)
        assert second.nodes == pytest.approx((0.0,), abs=1e-15)
        assert second.weights == pytest.approx((4 / 3,), rel=1e-14)

    def test_c0_odd_n1_is_midpoint_every_other_interval(self):
        rule = assemble(build_family(Family.C0_ODD, 1))
        assert rule.intervals[0].nodes == pytest.approx((0.0,), abs=1e-15)
        assert rule.intervals[0].weights == pytest.approx((4.0,), rel=1e-14)
        assert rule.intervals[1].nodes.tolist() == []

    def test_c1_endpoint_n2_closed_form(self):
        rule = assemble(build_family(Family.C1_ODD_ENDPOINT, 2))
        iv = rule.intervals[0]
        assert iv.nodes == pytest.approx((-1.0, 0.0), abs=1e-15)
        assert iv.weights == pytest.approx((14 / 15, 16 / 15), rel=1e-14)

    def test_fixed_node_listed_first(self):
        for family in (Family.C1_ODD_ENDPOINT, Family.C1_EVEN):
            rule = assemble(build_family(family, 5))
            iv = rule.intervals[0]
            assert iv.nodes[0] == -1.0
            assert all(x > -1 for x in iv.nodes[1:])

    def test_c1_even_second_interval_is_reflection(self):
        rule = assemble(build_family(Family.C1_EVEN, 5))
        first, second = rule.intervals
        free = list(zip(first.nodes[1:], first.weights[1:]))
        mirrored = sorted((-x, w) for x, w in free)
        assert second.nodes.tolist() == [x for x, _ in mirrored]
        assert second.weights.tolist() == [w for _, w in mirrored]

    def test_c1_interior_midpoint_limit(self):
        rule = assemble(build_family(Family.C1_ODD_INTERIOR, 1))
        assert rule.intervals[0].nodes.tolist() == [0.0]
        assert rule.intervals[0].weights.tolist() == [2.0]

    def test_weight_sum_is_two_per_interval(self):
        for family, n in family_range(10):
            rule = assemble(build_family(family, n))
            total = sum(w for iv in rule.intervals for w in iv.weights)
            assert total == pytest.approx(2 * len(rule.intervals), rel=1e-13), \
                (family, n)

    def test_nodes_sorted_within_interval(self):
        for family, n in family_range(10):
            rule = assemble(build_family(family, n))
            for iv in rule.intervals:
                assert list(iv.nodes) == sorted(iv.nodes), (family, n)

    def test_c1_endpoint_free_nodes_match_scipy(self):
        # independent oracle: the free nodes are the roots of C_{n-1}^(5/2)
        for n in range(2, 61):
            nodes = assemble(build_family(Family.C1_ODD_ENDPOINT, n)).intervals[0].nodes[1:]
            expected = sorted(roots_gegenbauer(n - 1, 2.5)[0])
            assert max(abs(x - y) for x, y in zip(nodes, expected)) <= 1e-14, n

    def test_deterministic(self):
        a = assemble(build_family(Family.C1_EVEN, 7))
        b = assemble(build_family(Family.C1_EVEN, 7))
        assert a == b

    @pytest.mark.parametrize("extended", [False, True])
    def test_vanishing_denominator_raises_with_context(self, extended):
        # R = C_1 = 3x has its root at 0, where S = C_1 / 3 = x vanishes too
        interval = IntervalSpec(
            r=GegenbauerCombo.build(1.5, [(1, 1)]),
            s=GegenbauerCombo.build(1.5, [(1, Fraction(1, 3))]),
            a=1, expected_free_nodes=1,
        )
        spec = FamilySpec(id=Family.C0_ODD, n=1, delta=0, intervals=(interval,))
        with mpmath.workdps(EXTENDED_DPS):
            with pytest.raises(DegenerateWeight, match=r"C0_ODD n=1: .* at x=0"):
                assemble(spec, extended=extended)


class TestScaling:
    def test_unit_interval_mapping(self):
        rule = scale_to_unit_intervals(assemble(build_family(Family.C0_ODD, 2)))
        first, second = rule.intervals
        r = 1 / math.sqrt(2)
        assert first.nodes == pytest.approx(((1 - r) / 2, (1 + r) / 2))
        assert first.weights == pytest.approx((2 / 3, 2 / 3))
        assert second.nodes == pytest.approx((1.5,))
        assert all(1 <= x <= 2 for x in second.nodes)

    def test_scaled_weight_sum_equals_period(self):
        for family, n in family_range(10):
            rule = cached_rule(family, n)
            total = sum(w for iv in rule.intervals for w in iv.weights)
            assert total == pytest.approx(rule.period_intervals, rel=1e-13)

    def test_interval_k_maps_into_k_k_plus_one(self):
        rule = cached_rule(Family.C1_EVEN, 6)
        for k, iv in enumerate(rule.intervals):
            assert all(k <= x <= k + 1 for x in iv.nodes)


class TestReplication:
    def test_tiling_counts_and_order(self):
        rule = cached_rule(Family.C0_ODD, 3)
        per_period = sum(len(iv.nodes) for iv in rule.intervals)
        pairs = replicate_periodically(rule, 4)
        assert len(pairs) == 4 * per_period
        xs = [x for x, _ in pairs]
        assert xs == sorted(xs)
        assert all(0 <= x <= 4 * rule.period_intervals for x in xs)

    def test_shift_by_period(self):
        rule = cached_rule(Family.C1_ODD_ENDPOINT, 3)
        pairs = replicate_periodically(rule, 3)
        per = sum(len(iv.nodes) for iv in rule.intervals)
        for (x0, w0), (x1, w1) in zip(pairs[:per], pairs[per:2 * per]):
            assert x1 == pytest.approx(x0 + rule.period_intervals, abs=1e-15)
            assert w1 == w0

    def test_single_copy_is_identity(self):
        rule = cached_rule(Family.C0_EVEN, 4)
        flat = [(x, w) for iv in rule.intervals for x, w in zip(iv.nodes, iv.weights)]
        assert replicate_periodically(rule, 1) == sorted(flat)

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            replicate_periodically(cached_rule(Family.C0_ODD, 1), 0)

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("family", list(Family))
    def test_same_pairs_as_a_loop(self, family, precision):
        # the reference: copy by copy, interval by interval, node by node,
        # then Python's stable sort by node
        rule = build_rule(family, 6, precision=precision)
        with mpmath.workdps(EXTENDED_DPS):
            expected = [(x + j * rule.period_intervals, w) for j in range(3)
                        for iv in rule.intervals for x, w in zip(iv.nodes, iv.weights)]
            expected.sort(key=lambda pair: pair[0])
            pairs = replicate_periodically(rule, 3)
        assert pairs == expected
        real = float if precision == "double" else mpmath.mpf
        assert all(type(x) is real and type(w) is real for x, w in pairs)


def _held_bytes(make):
    """What make() returns, and the bytes allocated by it that are still
    held once it returns, by tracemalloc."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = make()
        gc.collect()
        return held, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


class TestRepresentation:
    def test_dtypes(self):
        double = build_rule(Family.C0_ODD, 1)
        extended = build_rule(Family.C0_ODD, 1, precision="extended")
        # the second interval of C0 odd n = 1 holds no node
        assert [len(iv.nodes) for iv in extended.intervals] == [1, 0]
        for iv in double.intervals:
            assert iv.nodes.dtype == iv.weights.dtype == np.float64
        for iv in extended.intervals + assemble(build_family(Family.C1_EVEN, 4), extended=True).intervals:
            assert iv.nodes.dtype == iv.weights.dtype == object
            assert all(type(v) is mpmath.mpf for v in [*iv.nodes, *iv.weights])
        for iv in cached_rule(Family.C1_EVEN, 4).intervals:
            assert iv.nodes.ndim == iv.weights.ndim == 1

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_read_only(self, precision):
        iv = build_rule(Family.C1_EVEN, 4, precision=precision).intervals[0]
        for values in (iv.nodes, iv.weights):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = values[1]

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_equal_by_value(self, precision):
        a = build_rule(Family.C0_ODD, 5, precision=precision)
        b = build_rule(Family.C0_ODD, 5, precision=precision)
        assert a.intervals[0].nodes is not b.intervals[0].nodes
        assert a == b and not a != b
        # negative control: one weight one ulp up, at the rule's precision
        iv = b.intervals[1]
        weights = list(iv.weights)
        with mpmath.workdps(EXTENDED_DPS):
            w = weights[2]
            weights[2] = (np.nextafter(w, np.inf) if precision == "double"
                          else w + mpmath.ldexp(1, mpmath.mag(w) - mpmath.mp.prec))
            assert weights[2] != w
        bumped = dataclasses.replace(b, intervals=(b.intervals[0], dataclasses.replace(iv, weights=weights)))
        assert bumped != a and not bumped == a
        assert bumped.intervals[1] != iv

    def test_not_hashable(self):
        rule = cached_rule(Family.C0_ODD, 3)
        for obj in (rule, rule.intervals[0]):
            with pytest.raises(TypeError):
                hash(obj)

    def test_replace_with_a_tuple_gives_an_array(self):
        iv = cached_rule(Family.C0_ODD, 3).intervals[0]
        zero = dataclasses.replace(iv, weights=(0.0,) * len(iv.weights))
        assert isinstance(zero.weights, np.ndarray) and zero.weights.dtype == np.float64
        assert not zero.weights.flags.writeable
        assert zero.weights.tolist() == [0.0] * len(iv.weights)
        assert zero.nodes.tolist() == iv.nodes.tolist()

    def test_given_array_is_copied(self):
        values = np.array([0.25, 0.75])
        iv = assembly.RuleInterval(values, values)
        values[0] = 0.5
        assert iv.nodes.tolist() == [0.25, 0.75] and values.flags.writeable

    def test_held_size_of_a_double_rule(self):
        # a held double rule costs 8 bytes per value plus a fixed amount
        # (about 1.8 KB: the rule, its intervals and array headers); the
        # values as Python floats in tuples, about 32 bytes each, fail it
        build_rule(Family.C0_ODD, 80)  # whatever a build caches stays out
        rule, size = _held_bytes(lambda: build_rule(Family.C0_ODD, 80))
        values = sum(len(iv.nodes) + len(iv.weights) for iv in rule.intervals)
        assert values == 318
        bound = 12 * values + 3072
        assert size < bound, (size, bound)
        _, tuples = _held_bytes(lambda: tuple_view(rule.intervals))
        assert tuples > bound, (tuples, bound)


class TestExtendedPrecision:
    def test_matches_double_build(self):
        # the double build is the extended build rounded to double: weights
        # within one ulp, nodes within one rounding of the scaled position
        for family, n in itertools.product(Family, (4, 16, 24)):
            double = cached_rule(family, n)
            extended = build_rule(family, n, precision="extended")
            for div, eiv in zip(double.intervals, extended.intervals):
                assert len(div.nodes) == len(eiv.nodes)
                for xd, xe in zip(div.nodes, eiv.nodes):
                    assert abs(xd - float(xe)) <= 2.3e-16, (family, n)
                for wd, we in zip(div.weights, eiv.weights):
                    assert abs(wd - float(we)) <= math.ulp(float(we)), (family, n)

    def test_weight_sum_to_working_precision(self):
        rule = build_rule(Family.C1_ODD_ENDPOINT, 6, precision="extended")
        total = sum(w for iv in rule.intervals for w in iv.weights)
        assert abs(total - rule.period_intervals) < mpmath.mpf(10) ** (8 - EXTENDED_DPS)

    def test_nodes_are_mpf(self):
        rule = build_rule(Family.C0_EVEN, 3, precision="extended")
        free = rule.intervals[0].nodes[0]
        assert isinstance(free, mpmath.mpf)

    @pytest.mark.parametrize("family", list(Family))
    def test_free_nodes_bracket_a_sign_change(self, family):
        # independent of Newton: R changes sign across every extended free
        # node within 1e-40, checked at 60 digits
        for n in (5, 24):
            spec = build_family(family, n)
            with mpmath.workdps(EXTENDED_DPS):
                rule = assemble(spec, extended=True)
            with mpmath.workdps(60):
                h = mpmath.mpf(10) ** -40
                for iv, riv in zip(spec.intervals, rule.intervals):
                    free = riv.nodes[iv.fixed_node is not None:]
                    assert len(free) == iv.expected_free_nodes
                    for x in free:
                        below, _ = eval_combo(iv.r, x - h)
                        above, _ = eval_combo(iv.r, x + h)
                        assert below * above < 0, (family, n, x)

    def test_polish_failure_names_family_and_n(self, monkeypatch):
        monkeypatch.setattr(assembly, "POLISH_STEPS", 0)
        for precision in ("double", "extended"):
            with pytest.raises(PolishFailed, match=r"C1_EVEN n=5: no convergence"):
                build_rule(Family.C1_EVEN, 5, precision=precision)

    @pytest.mark.parametrize("family", list(Family))
    def test_accuracy_against_90_digits(self, family, monkeypatch):
        # the measured accuracy of the 50-digit rule: the spec built and
        # assembled at 90 digits is the reference
        for n in (24, 50):
            spec = build_family(family, n)
            with mpmath.workdps(EXTENDED_DPS):
                rule = assemble(spec, extended=True)
                # computed with guard digits, each value rounded to 50
                prec = mpmath.mp.prec
            for iv in rule.intervals:
                assert all(v._mpf_[3] <= prec for v in [*iv.nodes, *iv.weights])
            with monkeypatch.context() as patched:
                patched.setattr(families, "EXTENDED_DPS", 90)
                reference_spec = build_family(family, n)
            with mpmath.workdps(90):
                reference = assemble(reference_spec, extended=True)
                for iv, ref in zip(rule.intervals, reference.intervals):
                    assert len(iv.nodes) == len(ref.nodes)
                    for x, y in zip(iv.nodes, ref.nodes):
                        assert abs(x - y) <= 1e-50, (n, x, y)
                    for w, v in zip(iv.weights, ref.weights):
                        assert abs(w - v) <= 1e-50 * abs(v), (n, w, v)

    def test_mpf_polish_from_a_far_seed(self, monkeypatch):
        # seeded 1e-20 off the roots instead of at the double-double
        # nodes, the mpf polish takes more steps and still lands within 1e-50
        spec = build_family(Family.C0_EVEN, 24)
        iv, = spec.intervals
        found = isolate_and_refine(iv.r, iv.expected_free_nodes)
        with mpmath.workdps(90):
            roots = assemble(spec, extended=True).intervals[0].nodes
        steps = []

        def counting(p, x):
            steps.append(x)
            return eval_combo(p, x)

        monkeypatch.setattr(assembly, "eval_combo", counting)
        dps = EXTENDED_DPS + GUARD_DIGITS
        with mpmath.workdps(EXTENDED_DPS):
            tol = assembly.mpf_polish_tol(EXTENDED_DPS)
            with mpmath.workdps(dps):
                dd = polish(iv.r.map(DD.of), DD(np.array(found.roots)), found, REFINE_TOL)
                steps.clear()
                near = np.array([mpmath.mpf(h) + lo for h, lo in zip(dd.hi, dd.lo)],
                                dtype=object)
                polish(iv.r, near, found, tol)
                near_steps = len(steps)
                seed = np.array([y + mpmath.mpf(10) ** -20 for y in roots], dtype=object)
                steps.clear()
                x = polish(iv.r, seed, found, tol)
                assert len(steps) > near_steps == 1
                assert max(abs(a - b) for a, b in zip(x, roots)) <= 1e-50

        # the same seed through assemble, which sets its own tolerance: the
        # mpf evaluations are the polish steps and the one R'/S pass
        def far(r, x, found, tol):
            x = polish(r, x, found, tol)
            return x + 1e-20 if isinstance(x, DD) else x

        monkeypatch.setattr(assembly, "polish", far)
        steps.clear()
        with mpmath.workdps(EXTENDED_DPS):
            x = assemble(spec, extended=True).intervals[0].nodes
        assert sum(isinstance(y, np.ndarray) for y in steps) > near_steps + 1
        assert max(abs(a - b) for a, b in zip(x, roots)) <= 1e-50
        monkeypatch.setattr(assembly, "POLISH_STEPS", 1)
        with mpmath.workdps(dps), pytest.raises(PolishFailed, match="no convergence in 1 Newton"):
            polish(iv.r, seed, found, tol)

    @pytest.mark.parametrize("family", list(Family))
    def test_newton_curvature_bound(self, family):
        # the mpf polish stops once no step exceeds mpf_polish_tol(dps); the
        # next error K step^2 is then below 10^-(dps + 4) while
        # K = |R''/2R'| stays within assembly._K_BOUND at every root.  R''
        # by a central difference of R', in double
        h = 1e-7
        for iv in build_family(family, MAX_N).intervals:
            r = iv.r.map(float)
            x = np.array(isolate_and_refine(iv.r, iv.expected_free_nodes).roots)
            d2 = (eval_combo(r, x + h)[1] - eval_combo(r, x - h)[1]) / (2 * h)
            k = np.abs(d2 / (2 * eval_combo(r, x)[1]))
            assert k.max() <= assembly._K_BOUND, (family, k.max())


def _full_polish(iv, extended):
    """The free nodes and weights of one interval with all its roots
    polished and weighed, none mirrored: the steps of ``assembly._free``
    without the mirror, the reference of :class:`TestMirror`."""
    found = isolate_and_refine(iv.r, iv.expected_free_nodes)
    r, s, a = iv.r.map(DD.of), iv.s.map(DD.of), DD.of(iv.a.numerator)
    x = polish(r, DD(np.array(found.roots)), found, REFINE_TOL)
    if not extended:
        (_, rder), (sval, _) = eval_combo((r, s), x)
        weights = a / (iv.a.denominator * (rder * sval * iv.extra_weight_factor(x)))
        return x.rounded().tolist(), weights.rounded().tolist()
    with mpmath.workdps(EXTENDED_DPS + GUARD_DIGITS):
        x = np.array([mpmath.mpf(h) + lo for h, lo in zip(x.hi, x.lo)], dtype=object)
        x = polish(iv.r, x, found, assembly.mpf_polish_tol(EXTENDED_DPS))
        (_, rder), (sval, _) = eval_combo((iv.r, iv.s), x)
        weights = iv.a.numerator / (iv.a.denominator * (rder * sval * iv.extra_weight_factor(x)))
    # unary plus rounds to the caller's precision, as assemble's output is
    return [+v for v in x], [+v for v in weights]


# every interval of these families has an R of one parity
SYMMETRIC = (Family.C0_ODD, Family.C1_ODD_ENDPOINT, Family.C1_ODD_INTERIOR)


class TestMirror:
    # the mirror makes criterion 5's symmetry deviation zero by
    # construction, so these tests compare it with a polish of every root

    @pytest.mark.parametrize("family", SYMMETRIC)
    def test_double_equals_full_polish(self, family):
        for n in [*range(family.min_n, 81), 120, 200]:
            spec = build_family(family, n)
            for iv, riv in zip(spec.intervals, assemble(spec).intervals):
                if iv.expected_free_nodes:
                    free = iv.fixed_node is not None
                    assert (riv.nodes[free:].tolist(), riv.weights[free:].tolist()) == \
                        _full_polish(iv, False), n

    @pytest.mark.parametrize("family", SYMMETRIC)
    def test_extended_within_1e_50_of_full_polish(self, family):
        for n in (7, 24, 50):
            spec = build_family(family, n)
            with mpmath.workdps(EXTENDED_DPS):
                rule = assemble(spec, extended=True)
                for iv, riv in zip(spec.intervals, rule.intervals):
                    free = iv.fixed_node is not None
                    nodes, weights = _full_polish(iv, True)
                    assert len(nodes) == len(riv.nodes[free:]) == iv.expected_free_nodes
                    for x, y in zip(riv.nodes[free:], nodes):
                        assert abs(x - y) <= 1e-50, (n, x, y)
                    for w, v in zip(riv.weights[free:], weights):
                        assert abs(w - v) <= 1e-50 * abs(v), (n, w, v)

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("s_terms", [[(0, 1), (1, 1)], [(0, 1)]])
    def test_s_not_of_the_other_parity_raises(self, s_terms, extended):
        # R = C_2 is even; S must be odd, and is mixed or even here
        interval = IntervalSpec(
            r=GegenbauerCombo.build(1.5, [(2, 1)]),
            s=GegenbauerCombo.build(1.5, s_terms),
            a=1, expected_free_nodes=2,
        )
        spec = FamilySpec(id=Family.C0_ODD, n=2, delta=0, intervals=(interval,))
        with mpmath.workdps(EXTENDED_DPS):
            with pytest.raises(AsymmetricSpec, match=r"C0_ODD n=2: R has degrees \[2\] of one parity"):
                assemble(spec, extended=extended)

    def test_mirrored_factor_is_even(self):
        x = np.linspace(-1, 1, 41)
        mirrored = set()
        for family, n in itertools.chain(family_range(50), ((f, MAX_N) for f in Family)):
            for iv in build_family(family, n).intervals:
                if iv.expected_free_nodes and assembly._parity(iv.r) is not None:
                    mirrored.add(family)
                    f = iv.extra_weight_factor(x)
                    assert np.array_equal(f, iv.extra_weight_factor(-x)), (family, n)
        assert mirrored == set(SYMMETRIC)

    @pytest.mark.parametrize("family, delta_sign", [
        *((f, +1) for f in Family), (Family.C0_EVEN, -1),
    ])
    def test_polished_roots(self, family, delta_sign, monkeypatch):
        # a symmetric interval polishes its nonnegative half; C0 even, of
        # either delta sign, and C1 even polish every root
        polished = []

        def counting(r, x, found, tol):
            polished.append(len(found.roots))
            return polish(r, x, found, tol)

        monkeypatch.setattr(assembly, "polish", counting)
        for n in (5, 8):
            spec = build_family(family, n, delta_sign=delta_sign)
            polished.clear()
            assemble(spec)
            m = [iv.expected_free_nodes for iv in spec.intervals if iv.expected_free_nodes]
            half = [k - k // 2 for k in m] if family in SYMMETRIC else m
            assert polished == half, (n, polished)


# a rule's intervals as tuples of floats, whose repr is, byte for byte, the
# repr the rules had when they held their values in tuples
TupleInterval = collections.namedtuple("RuleInterval", ["nodes", "weights"])


def tuple_view(intervals):
    return tuple(TupleInterval(tuple(iv.nodes.tolist()), tuple(iv.weights.tolist()))
                 for iv in intervals)


class TestDoubleRegression:
    # SHA-256 of repr(tuple_view(rule.intervals)) for n = min_n..50,
    # concatenated per family.  A change that moves any double output by
    # one bit fails here; update the digests only for a change meant to
    # move outputs
    DIGESTS = {
        Family.C0_ODD: "7d78e267e871975a166c2dd331b2afc383af69b2e1d725bb1262443f4de8273b",
        Family.C0_EVEN: "cc8b9d2e353a477521ef8066f4a479da024bca7fc0a2eab320e969df1d925b18",
        Family.C1_ODD_ENDPOINT: "057b5d5cfe8940600518fba5adc89f1043c7f103901fc79b69f6caeb120c95eb",
        Family.C1_ODD_INTERIOR: "37fa504576708928204d0edb9ee0cef2e2af4fe883090cf5c574216399e6197b",
        Family.C1_EVEN: "413d18040982124c77afd23929be1ce9d3db961c518482a3c802fd5798b07a16",
    }

    @pytest.mark.parametrize("family", list(Family))
    def test_double_rules_bit_identical(self, family):
        digest = hashlib.sha256()
        for n in range(family.min_n, 51):
            digest.update(repr(tuple_view(cached_rule(family, n).intervals)).encode())
        assert digest.hexdigest() == self.DIGESTS[family]
