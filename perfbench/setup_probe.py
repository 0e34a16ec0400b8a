"""Time one fresh-process set-up of a workload.

    python3 perfbench/setup_probe.py build-double

Prints the seconds from before ``import splinequad`` until the reference
tables are loaded and one warm-up request is done, then the median time
of the reference kernel (``speed.py``) run right after, in the same
process, so the set-up time can be scaled to reference speed.  ``run.py``
runs it several times per run and reports the median as ``setup_s``.
"""

import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
KERNEL_RUNS = 3


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    start = perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as scratch:
        workloads.setup(workloads.WORKLOADS[sys.argv[1]], scratch)
        elapsed = perf_counter() - start
    import speed

    kernel_s = statistics.median(speed.time_kernel() for _ in range(KERNEL_RUNS))
    print(elapsed, kernel_s)


if __name__ == "__main__":
    main()
