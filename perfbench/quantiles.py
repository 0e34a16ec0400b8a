"""Latency quantiles.

A request's cost in these workloads spans two orders of magnitude (it
grows about as n^2 and differs between families by up to 4x), so with a
few dozen requests per run the single order statistic nearest a quantile
jumps between neighbours that lie 5-10% apart, and moves that much from
one seed to the next.  Quantiles are therefore Harrell-Davis estimates: a
weighted average of all order statistics with Beta((n+1)p, (n+1)(1-p))
weights, which estimates the same quantile with a smaller spread.
"""

from __future__ import annotations

import mpmath


def harrell_davis(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1."""
    ordered = sorted(samples)
    count = len(ordered)
    a, b = p * (count + 1), (1 - p) * (count + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / count, regularized=True))
           for i in range(count + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(samples):
    """(value, percentile, sample count) for the highest percentile that
    leaves at least ten samples above it: 100 (n - 10) / n.

    With fewer than eleven samples no percentile qualifies; the maximum
    is returned with percentile 100 so the caller can still report it.
    """
    count = len(samples)
    if count < 11:
        return max(samples), 100.0, count
    p = (count - 10) / count
    return harrell_davis(samples, p), 100.0 * p, count
