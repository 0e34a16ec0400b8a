"""Run every workload on several seeds and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload: one ``run.py`` run per seed (seeds 1..SEEDS, untraced) and
one traced run on seed 1.  Per metric the summary holds the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The accuracy
figures of the run records, which are not bounded metrics, are summarised
the same way.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
SEEDS = 10
RECORD_FIGURES = ("max_golden_dev", "max_oracle_err", "max_double_vs_ext_rel",
                  "raw_request_p50_ms", "raw_requests_per_s", "speed_scale_median")


def run_once(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    record_line, result_line = done.stdout.splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def summarise(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": list(range(1, SEEDS + 1)),
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in summary["seeds"]]
        record, traced = run_once(workload, 1, seconds, 1)
        entry = {
            "commit": runs[0][0]["commit"],
            "environment": {k: runs[0][0][k] for k in ("python", "numpy", "mpmath", "nproc")},
            "failed": [result["failed"] for _, result in runs] + [traced["failed"]],
            "attempted": [result["attempted"] for _, result in runs] + [traced["attempted"]],
            "end_to_end": {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for _, r in runs])
                for m in spec["end_to_end"]
            },
            "record": {name: summarise([rec.get(name) for rec, _ in runs])
                       for name in RECORD_FIGURES},
            "per_layer_seed1": {name: value["value"]
                                for name, value in traced["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        spreads = {name: s["spread"] for name, s in entry["end_to_end"].items()}
        print(workload, json.dumps(spreads), flush=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
