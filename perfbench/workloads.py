"""The three benchmark workloads: seeded inputs, requests and their checks.

Every workload is a closed loop with one client in one process: the next
request starts when the previous one returns.  A request is one call into
the package, timed from start to completion; its outputs are checked
afterwards by :mod:`gate`, outside the timed region.

Inputs are a randomized low-discrepancy sequence: request i is for family
i mod 5 (in a seeded order) and takes its n from the i-th point of the
base-2 van der Corput sequence, shifted by a seeded random offset modulo 1
and scaled to the workload's n range.  Over many requests n is uniform on
the range, and any prefix of the stream covers it about evenly, for every
family.  That matters because a request's cost grows about as n^2 and
differs between families by up to 4x.  Stratified random draws (one n per
family in each fifth of the range) still left the median latency of a
20 s build-double run between 360 and 550 ms over five seeds: the input
mix, not the code, set it.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
from dataclasses import dataclass
from time import perf_counter

from splinequad import catalog, cli, splinecheck
from splinequad.families import Family

import gate
import speed

FAMILIES = tuple(Family)
FORMATS = ("json", "csv", "maple")
TRACED_REQUESTS = 25  # a fixed amount of work per seed


@dataclass(frozen=True)
class Request:
    family: str
    n: int
    fmt: str = ""

    def as_list(self):
        return [self.family, self.n] + ([self.fmt] if self.fmt else [])


@dataclass
class Outcome:
    """What a request returned, kept for the gate and the trace comparison."""

    request: Request
    latency: float  # seconds, as measured
    value: object = None
    error: str = ""
    scale: float = 1.0  # latency * scale is the latency at reference speed


class Context:
    """State shared by the requests of one run: the reference tables and a
    scratch directory for the CLI's output files."""

    def __init__(self, tables, scratch: str):
        self.tables = tables
        self.scratch = scratch
        self.serial = 0

    def output_path(self, fmt: str) -> str:
        self.serial += 1
        return os.path.join(self.scratch, f"rule{self.serial}.{fmt}")


def build_double(req: Request, ctx: Context):
    return catalog.build_rule(Family[req.family], req.n)


def generate_extended(req: Request, ctx: Context):
    smoothness, parity, variant = Family[req.family].value
    argv = ["generate", "--class", smoothness,
            "--degree", str(gate.degree(req.family, req.n)),
            "--precision", "extended", "--format", req.fmt]
    if parity == "odd" and smoothness == "c1":
        argv += ["--variant", variant]
    path = ctx.output_path(req.fmt)
    code = cli.main(argv + ["-o", path])
    return code, path


def verify_oracle(req: Request, ctx: Context):
    """Build in double, compare with the reference table if there is one,
    then run the B-spline oracle at the rule's degree and one above."""
    rule = catalog.build_rule(Family[req.family], req.n)
    golden = ctx.tables.get(catalog.rule_id(rule.family, rule.n))
    dev = splinecheck.compare_golden(rule, golden) if golden else None
    exact = splinecheck.check_exactness(rule)
    sharp = splinecheck.check_exactness(rule, degree=rule.degree + 1)
    return rule, dev, exact, sharp


@dataclass(frozen=True)
class Workload:
    name: str
    n_range: tuple
    call: object


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("build-double", (16, 80), build_double),
    Workload("generate-extended", (4, 28), generate_extended),
    Workload("verify-oracle", (4, 32), verify_oracle),
)}


def van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence in [0, 1)."""
    point, scale = 0.0, 0.5
    while k:
        point += scale * (k & 1)
        k >>= 1
        scale /= 2
    return point


def requests(workload: Workload, seed: int):
    """Endless seeded request stream (see the module docstring)."""
    rng = random.Random(f"{workload.name}:{seed}")
    order = list(FAMILIES)
    rng.shuffle(order)
    shift = rng.random()
    lo, hi = workload.n_range
    width = hi - lo + 1
    with_format = workload.call is generate_extended
    for i in itertools.count():
        n = lo + int((van_der_corput(i) + shift) % 1.0 * width)
        yield Request(order[i % len(order)].name, n,
                      FORMATS[i % len(FORMATS)] if with_format else "")


def warmup_request(workload: Workload) -> Request:
    fmt = "json" if workload.call is generate_extended else ""
    return Request(Family.C0_ODD.name, workload.n_range[0], fmt)


def setup(workload: Workload, scratch: str) -> Context:
    """Everything a run needs before its first timed request: the reference
    tables loaded and one warm-up request done (its result is discarded)."""
    ctx = load_context(scratch)
    workload.call(warmup_request(workload), ctx)
    return ctx


def load_context(scratch: str) -> Context:
    return Context(splinecheck.load_golden_tables(), scratch)


def run(workload: Workload, stream, ctx: Context, seconds: float | None = None):
    """Run requests back to back.  The reference kernel of :mod:`speed` runs
    before the first request and after each one, outside the requests'
    timing; request i lies between kernel runs i and i + 1.

    With ``seconds``, new requests start until their summed time at
    reference speed reaches it (at least one request runs, and none starts
    after three times that much wall time), so the number of requests, and
    with it the tail percentile, does not follow the host's speed.
    Otherwise the whole (finite) stream runs.

    Returns the outcomes and the wall time of the loop.
    """
    outcomes = []
    kernel_s = [speed.time_kernel()]
    spent = 0.0  # reference-speed seconds, scaled by the latest kernel runs
    start = perf_counter()
    for req in stream:
        if outcomes and seconds is not None and (
                spent >= seconds or perf_counter() - start >= 3 * seconds):
            break
        t0 = perf_counter()
        try:
            value, error = workload.call(req, ctx), ""
        except (Exception, SystemExit) as exc:  # counted as failed, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(req, perf_counter() - t0, value, error))
        kernel_s.append(speed.time_kernel())
        spent += outcomes[-1].latency * speed.REFERENCE_S / statistics.median(kernel_s[-3:])
    wall = perf_counter() - start
    for i, outcome in enumerate(outcomes):
        outcome.scale = speed.REFERENCE_S / speed.local(kernel_s, i)
    return outcomes, wall


def collect(workload: Workload, outcome: Outcome):
    """Reduce a request's return value to plain data (floats, the written
    file's text) that can be compared and checked after the scratch files
    are gone.  Runs outside the timed region."""
    if outcome.error:
        return
    if workload.call is generate_extended:
        code, path = outcome.value
        with open(path) as fh:
            outcome.value = (code, fh.read())
    elif workload.call is verify_oracle:
        rule, dev, exact, sharp = outcome.value
        outcome.value = (gate.rule_intervals(rule), dev, exact.degree,
                         exact.max_abs_error, sharp.max_abs_error)
    else:
        outcome.value = gate.rule_intervals(outcome.value)


def check(workload: Workload, outcome: Outcome, ctx: Context) -> dict:
    """Gate one outcome.  Returns the problems found and the accuracy
    figures the request contributes to."""
    req = outcome.request
    found = {"problems": [outcome.error] if outcome.error else []}
    if outcome.error:
        return found
    problems = found["problems"]
    if workload.call is generate_extended:
        code, text = outcome.value
        if code != 0:
            problems.append(f"generate exited with {code}")
            return found
        intervals = gate.parse_output(text, req.fmt, req.family, req.n)
        double = gate.rule_intervals(catalog.build_rule(Family[req.family], req.n))
        dev_abs, found["double_vs_ext_rel"] = gate.relative_deviation(double, intervals)
        if not dev_abs <= gate.GOLDEN_TOL:
            problems.append(f"double build deviates from extended by {dev_abs:.3e}")
    elif workload.call is verify_oracle:
        intervals, dev, degree, exact_err, sharp_err = outcome.value
        found["oracle_err"] = exact_err
        if degree != gate.degree(req.family, req.n):
            problems.append(f"oracle checked degree {degree}")
        if not exact_err <= gate.EXACTNESS_TOL:
            problems.append(f"oracle error {exact_err:.3e}")
        if req.n <= gate.SHARPNESS_MAX_N and not sharp_err > gate.SHARPNESS_MIN:
            problems.append(f"degree + 1 error only {sharp_err:.3e}")
        if dev is not None and not dev <= gate.GOLDEN_TOL:
            problems.append(f"compare_golden deviation {dev:.3e}")
    else:
        intervals = outcome.value
    problems += gate.structural_problems(req.family, req.n, intervals)
    golden = ctx.tables.get(catalog.rule_id(Family[req.family], req.n))
    if golden:
        found["golden_dev"] = gate.golden_deviation(intervals, golden)
        if not found["golden_dev"] <= gate.GOLDEN_TOL:
            problems.append(f"golden deviation {found['golden_dev']:.3e}")
    return found
