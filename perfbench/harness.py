"""Runs one workload end to end: set-up, the timed or traced loop, the
gate, and the two JSON lines ``run.py`` prints."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

import mpmath
import numpy

import quantiles
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
FAILURES_SHOWN = 20


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "commit": commit_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds(workload_name: str) -> tuple:
    """Set-up times of fresh processes, measured by setup_probe.py, as
    measured and at reference speed.  Each probe is scaled by the median of
    three kernel times: the run just before it, its own run right after its
    set-up, and the run just after it.  On a shared 2-vCPU host, over sets
    of ten runs of 15 probes, the quartile spread of the median was
    0.03-0.15 of it this way, against 0.05-0.11 when scaled by the kernel
    runs between probes alone and 0.09-0.34 unscaled."""
    raw = []
    kernel_s = [speed.time_kernel()]
    own_kernel_s = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        elapsed, own = map(float, done.stdout.split()[-2:])
        raw.append(elapsed)
        own_kernel_s.append(own)
        kernel_s.append(speed.time_kernel())
    scaled = [t * speed.REFERENCE_S
              / statistics.median([kernel_s[i], own_kernel_s[i], kernel_s[i + 1]])
              for i, t in enumerate(raw)]
    return raw, scaled


def gate_all(workload, outcomes, ctx) -> tuple:
    """Check every outcome; returns ({outcome index: problems}, accuracy figures)."""
    problems = {}
    figures = {}
    for i, outcome in enumerate(outcomes):
        try:
            found = workloads.check(workload, outcome, ctx)
        except Exception as exc:  # malformed output is a failed request
            found = {"problems": [f"check raised {type(exc).__name__}: {exc}"]}
        for key, value in found.items():
            if key != "problems":
                figures.setdefault(key, []).append(value)
        if found["problems"]:
            problems[i] = found["problems"]
    accuracy = {
        "golden_requests": len(figures.get("golden_dev", [])),
        "max_golden_dev": max(figures.get("golden_dev", []), default=None),
        "max_oracle_err": max(figures.get("oracle_err", []), default=None),
        "max_double_vs_ext_rel": max(figures.get("double_vs_ext_rel", []), default=None),
    }
    return problems, accuracy


def timed_run(workload, seed, seconds, scratch):
    setup_raw, setup_scaled = setup_seconds(workload.name)
    ctx = workloads.setup(workload, scratch)
    outcomes, wall = workloads.run(workload, workloads.requests(workload, seed),
                                   ctx, seconds)
    # read before the gate, whose own builds must not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for outcome in outcomes:
        workloads.collect(workload, outcome)
    failures, accuracy = gate_all(workload, outcomes, ctx)
    passed = len(outcomes) - len(failures)
    raw = [o.latency for o in outcomes]
    latencies = [o.latency * o.scale for o in outcomes]
    tail, tail_pct, count = quantiles.tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "request_p50_ms": 1000 * quantiles.harrell_davis(latencies, 0.5),
        "request_tail_ms": 1000 * tail,
        "requests_per_s": passed / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "tail_percentile": tail_pct, "latency_samples": count,
        "speed_scale_median": statistics.median(o.scale for o in outcomes),
        "raw_setup_s": setup_raw,
        "raw_request_p50_ms": 1000 * quantiles.harrell_davis(raw, 0.5),
        "raw_requests_per_s": passed / sum(raw),
        "loop_wall_s": wall,
        **accuracy,
    }
    return outcomes, failures, metrics, details


def traced_run(workload, seed, scratch):
    """Each request runs untraced and then traced, back to back, so both
    see the host at the same speed; the pairs give the tracing overhead."""
    ctx = workloads.setup(workload, scratch)
    tracer = tracing.Tracer()
    with tracer:
        traced_ctx = workloads.load_context(scratch)
    plain, traced = [], []
    for req in islice(workloads.requests(workload, seed), workloads.TRACED_REQUESTS):
        plain += workloads.run(workload, [req], ctx)[0]
        with tracer:
            traced += workloads.run(workload, [req], traced_ctx)[0]
    for outcome in plain + traced:
        workloads.collect(workload, outcome)
    failures, accuracy = gate_all(workload, plain, ctx)
    for i, (p, t) in enumerate(zip(plain, traced)):
        if repr((p.value, p.error)) != repr((t.value, t.error)):
            failures.setdefault(i, []).append("traced output differs from untraced")
        if tracer.missing:  # the per-layer figures of those hooks would read 0
            failures.setdefault(i, []).append(
                f"tracing hooks missing: {', '.join(tracer.missing)}")
    metrics = tracing.layer_metrics(tracer.spans)
    untraced_s = sum(o.latency for o in plain)
    traced_s = sum(o.latency for o in traced)
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1
    details = {"untraced_s": untraced_s, "traced_s": traced_s,
               "spans": len(tracer.spans), "missing_hooks": tracer.missing,
               **accuracy}
    return plain, failures, metrics, details


def run(workload_name: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload and print the run record and the result line."""
    if workload_name not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload_name!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    workload = workloads.WORKLOADS[workload_name]

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as scratch:
        if trace:
            outcomes, failures, metrics, details = traced_run(workload, seed, scratch)
        else:
            outcomes, failures, metrics, details = timed_run(
                workload, seed, seconds, scratch)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(failures)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, **environment(),
        "failed_frac": failed / len(outcomes),
        **details,
        "failures": [{"request": outcomes[i].request.as_list(), "problems": failures[i]}
                     for i in sorted(failures)[:FAILURES_SHOWN]],
        "inputs": [o.request.as_list() for o in outcomes],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0

