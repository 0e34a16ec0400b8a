"""Command-line front end: generate rules, verify them, plot weight profiles.

Subcommands::

    splinequad generate --class c1 --degree 5 --format maple
    splinequad verify --scope all --max-n 12
    splinequad plot --class c1 --degree 41 --variant both -o weights.svg

Exit codes are a stable contract for CI use: 0 success, 1 verification
failure (or unwritable output), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import mpmath

from .catalog import build_rule, family_for, rule_id
from .families import MAX_N, Family
from .splinecheck import check_exactness, compare_golden, load_golden_tables

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def format_sig25(value) -> str:
    """25 significant digits, reference-table style: no leading zero,
    trailing zeros stripped, plain '0' for zero."""
    if value == 0:
        return "0"
    if not isinstance(value, mpmath.mpf):
        value = mpmath.mpf(float(value))
    with mpmath.workdps(30):
        text = mpmath.nstr(value, 25)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text.startswith("0."):
        text = text[1:]
    elif text.startswith("-0."):
        text = "-" + text[2:]
    return text


def rule_to_json(rule) -> str:
    doc = {
        "family": rule_id(rule.family, rule.n),
        "class": rule.family.smoothness,
        "degree": rule.degree,
        "n": rule.n,
        "period_intervals": rule.period_intervals,
        "delta": format_sig25(rule.delta),
        "intervals": [
            {
                "nodes": [format_sig25(x) for x in iv.nodes],
                "weights": [format_sig25(w) for w in iv.weights],
            }
            for iv in rule.intervals
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def _csv(label_column: str, groups) -> str:
    """CSV text with a header and one ``(label, index, node, weight)`` row
    per pair; groups is a list of (label, pairs)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([label_column, "index", "node", "weight"])
    for label, pairs in groups:
        for i, (x, w) in enumerate(pairs):
            writer.writerow([label, i, format_sig25(x), format_sig25(w)])
    return buf.getvalue()


def rule_to_csv(rule) -> str:
    return _csv("interval", [(k, zip(iv.nodes, iv.weights))
                             for k, iv in enumerate(rule.intervals)])


def rule_to_maple(rule) -> str:
    pairs = [
        f"[{format_sig25(x)}, {format_sig25(w)}]"
        for iv in rule.intervals
        for x, w in zip(iv.nodes, iv.weights)
    ]
    return f"{rule_id(rule.family, rule.n)} := [ {', '.join(pairs)} ];\n"


_FORMATTERS = {"json": rule_to_json, "csv": rule_to_csv, "maple": rule_to_maple}


def cmd_generate(args) -> int:
    family, n = family_for(0 if args.cls == "c0" else 1, args.degree, args.variant)
    if args.delta_sign != "+" and family is not Family.C0_EVEN:
        raise ValueError("--delta-sign applies only to C0 even degrees")
    sign = +1 if args.delta_sign == "+" else -1
    rule = build_rule(family, n, delta_sign=sign, precision=args.precision)
    text = _FORMATTERS[args.format](rule)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _verify_golden(tol: float) -> bool:
    tables = load_golden_tables()
    ok = True
    worst_id, worst = None, -1.0
    for rid in sorted(tables):
        golden = tables[rid]
        dev = compare_golden(build_rule(golden.family, golden.n), golden)
        status = "ok" if dev <= tol else "FAIL"
        ok &= dev <= tol
        if dev > worst:
            worst_id, worst = rid, dev
        print(f"  golden {rid:10s}  max dev {dev:9.3e}  {status}")
    print(f"  golden worst: {worst_id} at {worst:.3e} (tol {tol:g})")
    return ok


def _verify_exactness(max_n: int, tol: float) -> bool:
    ok = True
    for family in Family:
        worst_n, worst = None, -1.0
        for n in range(family.min_n, max_n + 1):
            rule = build_rule(family, n)
            report = check_exactness(rule)
            if report.max_abs_error > worst:
                worst_n, worst = n, report.max_abs_error
        status = "ok" if worst <= tol else "FAIL"
        ok &= worst <= tol
        print(f"  exactness {family.name:17s}  worst n={worst_n:2d}  "
              f"max err {worst:9.3e}  {status}")
    return ok


def cmd_verify(args) -> int:
    # below the largest family minimum, a family would have no rule to check
    lowest = max(family.min_n for family in Family)
    if not lowest <= args.max_n <= MAX_N:
        raise ValueError(f"--max-n must lie in {lowest}..{MAX_N}")
    ok = True
    if args.scope in ("golden", "all"):
        ok &= _verify_golden(args.golden_tol)
    if args.scope in ("exactness", "all"):
        ok &= _verify_exactness(args.max_n, args.exactness_tol)
    print("verification:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def _svg_stem_chart(series, title: str) -> str:
    """Standalone SVG stem chart of weight vs node; series is a list of
    (label, color, pairs)."""
    width, height = 720, 420
    mleft, mright, mtop, mbot = 60, 20, 40, 50
    xmax = max(x for _, _, pairs in series for x, _ in pairs)
    xmax = max(1.0, float(xmax))
    wmax = max(w for _, _, pairs in series for _, w in pairs) * 1.15
    px = lambda x: mleft + (width - mleft - mright) * float(x) / xmax
    py = lambda w: height - mbot - (height - mtop - mbot) * float(w) / wmax
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{mleft}" y1="{height - mbot}" x2="{width - mright}" '
        f'y2="{height - mbot}" stroke="black"/>',
        f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" '
        f'y2="{height - mbot}" stroke="black"/>',
    ]
    ticks = int(round(xmax))
    for t in range(ticks + 1):
        out.append(
            f'<line x1="{px(t)}" y1="{height - mbot}" x2="{px(t)}" '
            f'y2="{height - mbot + 6}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(t)}" y="{height - mbot + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{t}</text>'
        )
    for label, color, pairs in series:
        for x, w in pairs:
            out.append(
                f'<line x1="{px(x)}" y1="{py(0)}" x2="{px(x)}" '
                f'y2="{py(w)}" stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(
                f'<circle cx="{px(x)}" cy="{py(w)}" r="3" fill="{color}"/>'
            )
    for idx, (label, color, _) in enumerate(series):
        if label:
            out.append(
                f'<text x="{width - mright - 10}" y="{mtop + 18 * idx}" '
                f'text-anchor="end" font-family="sans-serif" font-size="13" '
                f'fill="{color}">{label}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(args) -> int:
    csv_path = os.path.splitext(args.output)[0] + ".csv"
    if csv_path == args.output:
        raise ValueError(f"the SVG path {args.output} would be overwritten by the CSV")
    smoothness = 0 if args.cls == "c0" else 1
    if args.variant == "both":
        if smoothness == 0 or args.degree % 2 == 0:
            raise ValueError("variant=both requires C1 and odd degree")
        selections = [("endpoint", "black"), ("interior", "red")]
    else:
        selections = [(args.variant, "black")]
    series = []
    for variant, color in selections:
        family, n = family_for(smoothness, args.degree, variant)
        rule = build_rule(family, n)
        pairs = [
            (x, w) for iv in rule.intervals
            for x, w in zip(iv.nodes, iv.weights)
        ]
        series.append((variant or "", color, pairs))
    title = f"weights, class {args.cls.upper()}, degree {args.degree}"
    svg = _svg_stem_chart(series, title)
    with open(args.output, "w") as fh:
        fh.write(svg)
    with open(csv_path, "w") as fh:
        fh.write(_csv("series", [(label, pairs) for label, _, pairs in series]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinequad",
        description="Gaussian quadrature rules for C0/C1 splines on the real line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write one rule in json/csv/maple form")
    gen.add_argument("--class", dest="cls", choices=["c0", "c1"], required=True)
    gen.add_argument("--degree", type=int, required=True)
    gen.add_argument("--variant", choices=["endpoint", "interior"], default=None)
    gen.add_argument("--delta-sign", choices=["+", "-"], default="+")
    gen.add_argument("--precision", choices=["double", "extended"],
                     default="double")
    gen.add_argument("--format", choices=["json", "csv", "maple"],
                     default="json")
    gen.add_argument("--output", "-o", default=None,
                     help="output path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run golden and exactness suites")
    ver.add_argument("--scope", choices=["golden", "exactness", "all"],
                     default="all")
    ver.add_argument("--max-n", type=int, default=12)
    ver.add_argument("--golden-tol", type=float, default=1e-13)
    ver.add_argument("--exactness-tol", type=float, default=1e-11)
    ver.set_defaults(func=cmd_verify)

    plot = sub.add_parser("plot", help="SVG stem chart of weights plus CSV")
    plot.add_argument("--class", dest="cls", choices=["c0", "c1"],
                      required=True)
    plot.add_argument("--degree", type=int, required=True)
    plot.add_argument("--variant", choices=["endpoint", "interior", "both"],
                      default=None)
    plot.add_argument("--output", "-o", required=True,
                      help="SVG path; the CSV goes next to it, extension .csv")
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Its invalid arguments raise ValueError, which
    exits 2; a file that cannot be written raises OSError, which exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
