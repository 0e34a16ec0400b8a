"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload build-double --seed 1 --seconds 20 --trace 0

Builds nothing: the package is imported from ``src/`` of the checkout this
file sits in.  With ``--trace 0`` the seeded request stream runs untraced
until its requests have taken ``--seconds`` at reference speed (see
``speed.py``) and the end-to-end metrics are reported.
With ``--trace 1`` each of the first 25 requests of the stream (a fixed
amount of work) runs untraced and then traced; the per-layer metrics come
from the traced calls, whose outputs must be identical to the untraced
ones.

Every output is checked (see ``gate.py``) before any number is reported.
Standard output ends with two JSON lines: a run record (environment, the
generated inputs, accuracy figures, failures), then the result.
"""

from __future__ import annotations

import os

# one thread per numeric library, set before numpy loads: the benchmark
# shares two cores with everything else on the machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splinequad" / "__init__.py").is_file():
        print(f"error: no splinequad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
