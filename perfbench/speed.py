"""Reference kernel that tracks the speed of a shared machine.

On a shared host with two vCPUs (Intel Xeon), the same build took 57 ms
in some stretches and 100-115 ms in others, in CPU time as well as wall
time: other tenants slow the cores for seconds to minutes at a time, and
no run length averages that out.  So the benchmark runs this fixed kernel
between requests and scales each request's time by ``REFERENCE_S`` over
the median kernel time of the few runs around it.  Reported times are
therefore "at reference speed": what the request takes when the kernel
takes ``REFERENCE_S``.  On that host, over five 20 s runs of each
workload, the spread of ``requests_per_s`` between the first and third
quartile fell from 8-15% of the median in raw time to 3-6% at reference
speed.

The kernel uses no code of the package, so a change to the package
cannot change it; it mixes the three kinds of work the package does:
mpmath arithmetic at 25 digits, float arithmetic in a Python loop and
small numpy array operations.  The raw times are kept in the run record.
"""

from time import perf_counter

import mpmath
import numpy as np

# kernel time in the fast stretches of that host
REFERENCE_S = 0.0052


def kernel():
    """Three-term recurrences like the Gegenbauer one, of fixed length."""
    with mpmath.workdps(25):
        x = mpmath.mpf(1) / 3
        c0, c1 = mpmath.mpf(1), 3 * x
        for k in range(2, 400):
            c0, c1 = c1, (2 * (k + 0.5) * x * c1 - (k + 1) * c0) / k
    a, b = 1.0, 1 / 3
    for k in range(2, 3000):
        a, b = b, (2 * (k + 0.5) * b / 3 - (k + 1) * a) / k
    xs = np.linspace(-1, 1, 64)
    p, q = np.ones(64), xs.copy()
    for k in range(2, 200):
        p, q = q, (2 * (k + 0.5) * xs * q - (k + 1) * p) / k
    return c1, b, q


def local(kernel_s, i: int, reach: int = 2) -> float:
    """Median kernel time around the gap between kernel runs i and i + 1:
    a single 5-10 ms kernel run varies by about 10% on its own, while the
    host's speed holds for seconds."""
    window = sorted(kernel_s[max(0, i - reach):i + reach + 2])
    mid = len(window) // 2
    return window[mid] if len(window) % 2 else (window[mid - 1] + window[mid]) / 2


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start
