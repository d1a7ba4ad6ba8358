"""Order statistics with the benchmark's sample-count rule.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it, so a p99 needs at least 1000 samples; with fewer the caller
must ask for a lower percentile or use :func:`tail`.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
#: Percentiles :func:`tail` may report, highest first: p99 when a run has
#: the 1000 samples it needs, else the upper quartile (40 samples), which
#: unlike p90 from ~100 samples stays put between runs.
TAIL_LEVELS = (0.99, 0.75)


def percentile(values, q: float) -> float:
    """The ``q``-quantile by nearest rank; refuses thin tails.

    Raises ValueError when fewer than ``MIN_BEYOND`` samples lie beyond
    the requested rank.
    """
    ranked = sorted(values)
    n = len(ranked)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1): {q}")
    if n * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise ValueError(
            f"p{q * 100:g} needs >= {math.ceil(MIN_BEYOND / (1.0 - q))} "
            f"samples, got {n}"
        )
    return ranked[max(0, math.ceil(q * n) - 1)]


def tail(values, levels=TAIL_LEVELS) -> tuple[float, str]:
    """The highest supported tail percentile, or the slowest sample.

    Returns ``(value, label)``: by default p99 from 1000 samples, p75
    from 40, and below that the maximum, labelled ``max``.
    """
    for q in levels:
        try:
            return percentile(values, q), f"p{q * 100:g}"
        except ValueError:
            continue
    return max(values), "max"


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fast_quartile(values) -> float:
    """The 25th percentile (inclusive interpolation; one sample: itself)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def throughput(kinds) -> float:
    """Observations per second over operation kinds, at the fast quartile.

    ``kinds`` is ``[(observations, [latency_s, ...]), ...]``: one
    operation of every kind, each at the 25th percentile of its
    latencies.  On a host whose other tenants slow every operation for
    seconds at a time, the fast quartile is what an operation costs when
    the machine is not contended; ``p50_ms`` and ``tail_ms`` report what
    contention does to it.
    """
    return sum(n for n, _ in kinds) / sum(fast_quartile(lat) for _, lat in kinds)
