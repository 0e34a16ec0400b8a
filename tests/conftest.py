import functools
import os

# before numpy is first imported: its BLAS pool buys no wall time on the
# small eigenvalue solves of a rule build and doubles their CPU time.  The
# CI job and the benchmark set the same
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from splinequad.catalog import build_rule
from splinequad.families import Family

@functools.lru_cache(maxsize=None)
def cached_rule(family, n, delta_sign=+1):
    """Rules are pure functions of their parameters; build each once per session."""
    return build_rule(family, n, delta_sign=delta_sign)


def family_range(max_n):
    for family in Family:
        for n in range(family.min_n, max_n + 1):
            yield family, n


# one PASS/FAIL line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def report(criterion: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
