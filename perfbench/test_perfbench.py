"""Tests of the benchmark itself: tracing changes no output and leaves no
wrapper behind, the span and percentile arithmetic, and the gate's
negative control."""

import dataclasses
from itertools import islice

import pytest

import gate
import harness
import quantiles
import tracing
import workloads


def _small(workload):
    """The same request path on small n, so the test runs in about a second."""
    return dataclasses.replace(workload, n_range=(4, 8))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_identical_and_wrappers_removed(name, tmp_path):
    workload = _small(workloads.WORKLOADS[name])
    batch = list(islice(workloads.requests(workload, 7), 5))
    originals = [(ns, key, ns[key]) for ns, key, *_ in tracing.HOOKS]

    plain, _ = workloads.run(workload, batch, workloads.load_context(str(tmp_path)))
    with tracing.Tracer() as tracer:
        traced, _ = workloads.run(workload, batch, workloads.load_context(str(tmp_path)))
    for outcome in plain + traced:
        workloads.collect(workload, outcome)

    assert not tracer.missing
    assert [o.error for o in plain + traced] == [""] * 10
    assert [repr(o.value) for o in traced] == [repr(o.value) for o in plain]
    assert all(ns[key] is fn for ns, key, fn in originals)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["catalog.build_rule.calls"] == 5
    assert metrics["rootfind.refine.calls"] == metrics["assembly.free_nodes"] > 0


def test_missing_hook_fails_every_traced_request(monkeypatch, tmp_path):
    workload = _small(workloads.WORKLOADS["build-double"])
    monkeypatch.setattr(workloads, "TRACED_REQUESTS", 2)
    monkeypatch.setattr(tracing, "HOOKS",
                        tracing.HOOKS + (({}, "gone", "gone.fn", None, None),))
    outcomes, failures, _, details = harness.traced_run(workload, 7, str(tmp_path))
    assert details["missing_hooks"] == ["gone.fn"]
    assert sorted(failures) == list(range(len(outcomes))) == [0, 1]
    assert all("tracing hooks missing: gone.fn" in p for p in failures.values())


def _span(name, start, end, parent=-1, tag=None, count=0):
    return [name, tag, start, end, parent, count]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 3.0, 6.0, parent=0),  # overlaps b: [3, 4] counts once
        _span("d", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_layer_metrics_on_hand_made_spans():
    spans = [
        _span("catalog.build_rule", 0.0, 10.0, tag="C0_ODD"),
        _span("families.build_family", 0.5, 1.0, parent=0),
        _span("assembly.assemble", 1.0, 9.0, parent=0),
        _span("rootfind.isolate", 1.0, 4.0, parent=2, count=2),
        _span("gegenbauer.eval_combo", 1.0, 1.5, parent=3, tag="array"),
        _span("gegenbauer.eval_combo", 1.5, 2.0, parent=3, tag="array"),  # a rescan
        _span("rootfind.refine", 2.0, 3.0, parent=3),
        _span("gegenbauer.eval_combo", 2.0, 2.25, parent=6, tag="float"),
        _span("gegenbauer.eval_combo", 2.25, 2.5, parent=6, tag="float"),
        _span("rootfind.refine", 3.0, 3.5, parent=3),
        _span("gegenbauer.eval_combo", 3.0, 3.25, parent=9, tag="float"),
        _span("gegenbauer.eval_combo", 5.0, 8.0, parent=2, tag="mpf"),
        _span("assembly.scale", 9.0, 9.5, parent=0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["catalog.self_s"] == pytest.approx(10 - 0.5 - 8 - 0.5)
    assert m["assembly.self_s"] == pytest.approx(8 - 3 - 3)
    assert m["assembly.polish_s"] == pytest.approx(8 - 3)
    assert m["assembly.free_nodes"] == 2
    assert m["assembly.self_us_per_node"] == pytest.approx(1e6 * 2 / 2)
    assert m["rootfind.scan_self_s"] == pytest.approx(3 - 1 - 1.5)
    assert m["rootfind.evals_per_root"] == pytest.approx(3 / 2)
    assert m["rootfind.rescans"] == 1
    assert m["gegenbauer.eval_combo.calls.float"] == 3
    assert m["gegenbauer.eval_combo.s.mpf"] == pytest.approx(3.0)
    assert m["catalog.build_rule.p50_ms.C0_ODD"] == pytest.approx(10000.0)
    assert m["catalog.build_rule.p50_ms.C1_EVEN"] == 0.0


def test_harrell_davis_quantiles():
    assert quantiles.harrell_davis([5.0] * 7, 0.5) == pytest.approx(5.0)
    assert quantiles.harrell_davis([4.0, 1.0, 3.0, 5.0, 2.0], 0.5) == pytest.approx(3.0)
    assert quantiles.harrell_davis([0.0, 0.0, 0.0, 10.0], 0.5) < 2.5


def test_tail_leaves_ten_samples_above():
    samples = [float(v) for v in range(30, 0, -1)]
    value, pct, count = quantiles.tail(samples)
    assert count == 30
    assert pct == pytest.approx(100 * 20 / 30)
    assert 20.0 <= value <= 21.0  # between the order statistics around p
    assert quantiles.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_negative_control_corrupted_rules_fail_the_gate(tmp_path):
    workload = workloads.WORKLOADS["build-double"]
    ctx = workloads.load_context(str(tmp_path))
    good, _ = workloads.run(workload, [workloads.Request("C1_EVEN", 16)], ctx)
    workloads.collect(workload, good[0])
    (nodes0, weights0), second = good[0].value

    negative_weight = ((nodes0, (-weights0[0],) + weights0[1:]), second)
    moved_node = ((nodes0[:-1] + (1.25,), weights0), second)
    outcomes = [good[0]] + [
        workloads.Outcome(good[0].request, good[0].latency, value)
        for value in (negative_weight, moved_node)
    ]

    assert harness.gate_all(workload, outcomes[:1], ctx)[0] == {}
    problems, _ = harness.gate_all(workload, outcomes, ctx)
    assert sorted(problems) == [1, 2]
    assert len(problems) / len(outcomes) > 0
    assert any("non-positive weight" in p for p in problems[1])
    assert any("outside [0, 1]" in p for p in problems[2])


def test_maple_output_is_split_by_expected_counts():
    text = "C1xD8 := [ [0, .5], [.25, .5], [1.75, 1] ];\n"
    assert gate.parse_output(text, "maple", "C1_EVEN", 2) == (
        ((0.0, 0.25), (0.5, 0.5)), ((1.75,), (1.0,)))
