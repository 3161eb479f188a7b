"""Summary statistics: medians, reference scaling, the tail-percentile rule, ratios."""

from __future__ import annotations

import bisect
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def reference_scaled(latencies, references, cycle: int):
    """Each latency over the mean of the reference times around its cycle.

    ``latencies`` holds whole cycles of ``cycle`` ops; ``references`` holds
    the reference kernel's time before each cycle and one more after the last.
    """
    if len(references) != len(latencies) // cycle + 1 or len(latencies) % cycle:
        raise ValueError("need whole cycles and one reference time more than cycles")
    return [
        latency / (0.5 * (references[i // cycle] + references[i // cycle + 1]))
        for i, latency in enumerate(latencies)
    ]


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``, where ``percentile`` is the
    share of samples at or below ``value``, or ``None`` when the samples are too
    few for that percentile to reach the median (fewer than ``2 * beyond``).
    Ties never count as beyond: a run of equal values is passed over as a whole.
    """
    n = len(values)
    if n < 2 * beyond:
        return None
    ordered = sorted(values)
    i = n - beyond - 1
    while i >= 0:
        above = n - bisect.bisect_right(ordered, ordered[i])
        if above >= beyond:
            break
        i = bisect.bisect_left(ordered, ordered[i]) - 1
    if i < 0:
        return None
    percentile = 100.0 * (n - above) / n
    if percentile < 50.0:
        return None
    return ordered[i], percentile, above


def ratio(numerator: float, base: float) -> float:
    """numerator / base, or 0.0 when the base is empty (the layer did no work)."""
    return numerator / base if base else 0.0
