"""Property tests over random (family, n) in the supported range.

The draw is derandomized, so every run checks the same rules; n is
mostly at most 60 and sometimes up to MAX_N, where a double build takes
up to about a second.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinequad.catalog import build_rule
from splinequad.families import MAX_N, Family


@st.composite
def family_and_n(draw):
    family = draw(st.sampled_from(list(Family)))
    if draw(st.integers(0, 9)) == 9:  # now and then past n = 60
        return family, draw(st.integers(61, MAX_N))
    return family, draw(st.integers(family.min_n, 60))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(family_and_n())
def test_double_rule_properties(drawn):
    family, n = drawn
    rule = build_rule(family, n)
    assert rule == build_rule(family, n)
    for k, iv in enumerate(rule.intervals):
        assert all(w > 0 for w in iv.weights)
        assert all(k <= x < k + 1 for x in iv.nodes)
    total = sum(w for iv in rule.intervals for w in iv.weights)
    assert abs(total - rule.period_intervals) <= 1e-12
    first = rule.intervals[0]
    if family in (Family.C1_ODD_ENDPOINT, Family.C1_EVEN):
        # the fixed node sits on the breakpoint, free nodes strictly inside
        assert first.nodes[0] == 0.0
        assert all(x > 0 for x in first.nodes[1:])
    if family is Family.C1_EVEN:
        # the second interval mirrors the first's free part about x = 1
        second = rule.intervals[1]
        assert second.nodes == pytest.approx(
            [2 - x for x in reversed(first.nodes[1:])], abs=1e-15)
        assert second.weights.tolist() == first.weights[:0:-1].tolist()
