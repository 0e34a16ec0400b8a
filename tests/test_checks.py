"""Negative controls: each range check of ``checks.py`` passes one small
rule and flags the same rule with one planted fault."""

import dataclasses
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from splinequad import families
from splinequad.assembly import EXTENDED_DPS, RuleInterval, assemble
from splinequad.catalog import build_rule
from splinequad.families import Family, build_family

import checks
from conftest import cached_rule


def _planted(rule, k, i, node=lambda x: x, weight=lambda w: w):
    """rule with node i of interval k mapped through node, and its weight
    through weight."""
    nodes, weights = rule.intervals[k].nodes.copy(), rule.intervals[k].weights.copy()
    nodes[i], weights[i] = node(nodes[i]), weight(weights[i])
    intervals = list(rule.intervals)
    intervals[k] = RuleInterval(nodes, weights)
    return dataclasses.replace(rule, intervals=tuple(intervals))


def test_cells_flag_a_negated_weight():
    rule = cached_rule(Family.C1_EVEN, 4)
    planted = _planted(rule, 0, 2, weight=lambda w: -w)
    assert checks.cells([rule])[0]
    assert not checks.cells([planted])[0]


def test_cells_flag_a_node_outside_its_cell():
    rule = cached_rule(Family.C0_ODD, 3)
    planted = _planted(rule, 1, 0, node=lambda x: 0.99)
    assert checks.cells([rule])[0]
    assert not checks.cells([planted])[0]


def test_symmetries_flag_a_moved_mirror_pair():
    rule = cached_rule(Family.C1_ODD_ENDPOINT, 5)
    planted = _planted(rule, 0, 1, node=lambda x: x + 1e-10)
    c0_even = cached_rule(Family.C0_EVEN, 3), cached_rule(Family.C0_EVEN, 3, -1)
    assert checks.symmetries([rule, c0_even[0]], [c0_even])[0]
    assert not checks.symmetries([planted, c0_even[0]], [c0_even])[0]


def test_weight_sums_flag_a_sum_off_by_1e_11():
    rule = cached_rule(Family.C0_EVEN, 3)
    planted = _planted(rule, 0, 0, weight=lambda w: w + 1e-11)
    assert checks.weight_sums([rule])[0]
    assert not checks.weight_sums([planted])[0]


def test_double_vs_extended_flags_a_weight_2_ulp_away():
    rule = cached_rule(Family.C1_ODD_INTERIOR, 4)
    extended = build_rule(Family.C1_ODD_INTERIOR, 4, precision="extended")
    planted = _planted(rule, 0, 1, weight=lambda w: w + 2 * np.spacing(w))
    assert checks.double_vs_extended([(rule, extended)])[0]
    assert not checks.double_vs_extended([(planted, extended)])[0]


def test_extended_accuracy_flags_a_weight_moved_by_1e_45():
    with mpmath.workdps(EXTENDED_DPS):
        rule = assemble(build_family(Family.C0_EVEN, 5), extended=True)
        planted = _planted(rule, 0, 0, weight=lambda w: w * (1 + mpmath.mpf(10) ** -45))
    assert checks.extended_accuracy(Family.C0_EVEN, 5, rule, 70)[0]
    assert not checks.extended_accuracy(Family.C0_EVEN, 5, planted, 70)[0]


def test_extended_accuracy_flags_delta_cut_to_40_decimals():
    # the rule built from a delta 1e-40 short; the reference spec, built
    # by the check itself, has the full 200 decimals
    def cut(radicand, exact=families._sqrt):
        root = exact(radicand)
        return Fraction(root.numerator * 10 ** 40 // root.denominator, 10 ** 40)

    with mpmath.workdps(EXTENDED_DPS):
        rule = assemble(build_family(Family.C0_EVEN, 5), extended=True)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(families, "_sqrt", cut)
            planted = assemble(build_family(Family.C0_EVEN, 5), extended=True)
    assert checks.extended_accuracy(Family.C0_EVEN, 5, rule, 90)[0]
    assert not checks.extended_accuracy(Family.C0_EVEN, 5, planted, 90)[0]
