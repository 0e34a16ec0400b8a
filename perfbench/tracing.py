"""Span tracing at the package's module boundaries, from outside the package.

A :class:`Tracer` rebinds the names each calling module imported (for
example ``assembly.isolate_and_refine`` or ``rootfind.eval_combo``) to
wrappers that record one span per call, and puts every original back on
exit.  Nothing under ``src/`` is edited, so an untraced run executes
exactly the package's own code.

Spans are kept in memory as lists ``[name, tag, start, end, parent, count]``
where ``parent`` is the index of the enclosing span (-1 at top level) and
``count`` is an optional number taken from the call's result.  The
per-layer metrics are derived from them afterwards by
:func:`layer_metrics`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import mpmath
import numpy as np

from splinequad import assembly, catalog, cli, rootfind, splinecheck
from splinequad.families import Family

FAMILY_NAMES = tuple(family.name for family in Family)
COMBO_KINDS = ("array", "float", "mpf")


def _family_tag(args):
    return args[0].name


def _combo_kind(args):
    x = args[1]
    if isinstance(x, np.ndarray):
        return "array"
    if isinstance(x, mpmath.mpf):
        return "mpf"
    return "float"


def _root_count(rootset):
    return len(rootset.roots)


# (namespace, name the caller looks up, span name, tag(args), count(result));
# a namespace is a module's dict or a dispatch table the caller indexes.
HOOKS = (
    (vars(catalog), "build_rule", "catalog.build_rule", _family_tag, None),
    (vars(cli), "build_rule", "catalog.build_rule", _family_tag, None),
    (vars(catalog), "build_family", "families.build_family", None, None),
    (vars(catalog), "assemble", "assembly.assemble", None, None),
    (vars(catalog), "scale_to_unit_intervals", "assembly.scale", None, None),
    (vars(assembly), "isolate_and_refine", "rootfind.isolate", None, _root_count),
    (vars(rootfind), "refine_root", "rootfind.refine", None, None),
    (vars(assembly), "eval_combo", "gegenbauer.eval_combo", _combo_kind, None),
    (vars(rootfind), "eval_combo", "gegenbauer.eval_combo", _combo_kind, None),
    (vars(splinecheck), "check_exactness", "splinecheck.check_exactness", None, None),
    (vars(splinecheck), "compare_golden", "splinecheck.compare_golden", None, None),
    (vars(splinecheck), "load_golden_tables", "splinecheck.load_golden", None, None),
    (vars(cli), "main", "cli.main", None, None),
    (vars(cli), "format_sig25", "cli.format_sig25", None, None),
) + tuple(
    (cli._FORMATTERS, fmt, "cli.format", None, None)
    for fmt in getattr(cli, "_FORMATTERS", {})
)


class Tracer:
    """Context manager that records spans while installed; it can be
    entered again, and the spans accumulate."""

    def __init__(self):
        self.spans = []
        self.missing = []  # hooks whose name no longer exists in the package
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, tag, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, tag(args) if tag else None, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count:
                span[5] = count(result)
            return result

        return traced

    def __enter__(self):
        self.missing = []
        for namespace, key, name, tag, count in HOOKS:
            if key not in namespace:
                self.missing.append(name)
                continue
            original = namespace[key]
            self._saved.append((namespace, key, original))
            namespace[key] = self._wrap(original, name, tag, count)
        return self

    def __exit__(self, *exc):
        while self._saved:
            namespace, key, original = self._saved.pop()
            namespace[key] = original
        return False


def self_times(spans):
    """Each span's duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for span in spans:
        if span[4] >= 0:
            children[span[4]].append((span[2], span[3]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(end - start - covered)
    return out


def layer_metrics(spans):
    """Per-layer metrics, keyed by the names in BENCHMARK.json (less
    ``trace_overhead_frac``, which compares two runs)."""
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    child_s = defaultdict(float)  # by (parent name, child name)
    per_family = defaultdict(list)
    combo_calls = defaultdict(int)
    combo_s = defaultdict(float)
    free_nodes = 0
    array_scans = defaultdict(int)  # isolate span index -> array evaluations
    refine_evals = 0
    for i, (name, tag, start, end, parent, count) in enumerate(spans):
        duration = end - start
        total[name] += duration
        calls[name] += 1
        self_s[name] += own[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        child_s[parent_name, name] += duration
        if name == "catalog.build_rule":
            per_family[tag].append(duration)
        elif name == "rootfind.isolate":
            free_nodes += count
        elif name == "gegenbauer.eval_combo":
            combo_calls[tag] += 1
            combo_s[tag] += duration
            if parent_name == "rootfind.refine":
                refine_evals += 1
            elif parent_name == "rootfind.isolate" and tag == "array":
                array_scans[parent] += 1

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "catalog.build_rule.calls": calls["catalog.build_rule"],
        "catalog.build_rule.s": total["catalog.build_rule"],
        "catalog.self_s": self_s["catalog.build_rule"],
        "families.build_family.s": total["families.build_family"],
        "assembly.assemble.s": total["assembly.assemble"],
        "assembly.self_s": self_s["assembly.assemble"],
        "assembly.polish_s": (total["assembly.assemble"]
                              - child_s["assembly.assemble", "rootfind.isolate"]),
        "assembly.free_nodes": free_nodes,
        "assembly.self_us_per_node": 1e6 * per(self_s["assembly.assemble"], free_nodes),
        "assembly.scale.s": total["assembly.scale"],
        "rootfind.isolate.calls": calls["rootfind.isolate"],
        "rootfind.isolate.s": total["rootfind.isolate"],
        "rootfind.scan_self_s": self_s["rootfind.isolate"],
        "rootfind.refine.calls": calls["rootfind.refine"],
        "rootfind.refine.s": total["rootfind.refine"],
        "rootfind.evals_per_root": per(refine_evals, calls["rootfind.refine"]),
        "rootfind.rescans": sum(1 for n in array_scans.values() if n > 1),
        "splinecheck.check_exactness.calls": calls["splinecheck.check_exactness"],
        "splinecheck.check_exactness.s": total["splinecheck.check_exactness"],
        "splinecheck.compare_golden.s": total["splinecheck.compare_golden"],
        "splinecheck.load_golden.s": total["splinecheck.load_golden"],
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "cli.format.s": total["cli.format"],
        "cli.format.values": calls["cli.format_sig25"],
    }
    for family in FAMILY_NAMES:
        durations = per_family.get(family)
        metrics[f"catalog.build_rule.p50_ms.{family}"] = (
            1000 * statistics.median(durations) if durations else 0.0)
    for kind in COMBO_KINDS:
        metrics[f"gegenbauer.eval_combo.calls.{kind}"] = combo_calls[kind]
        metrics[f"gegenbauer.eval_combo.s.{kind}"] = combo_s[kind]
    return metrics
