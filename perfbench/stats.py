"""Summary statistics shared by the benchmark's processes.

Pure functions only (no ``repro`` import), so the orchestrator, the workers
and the unit tests can all use them.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first.  A tail is reported at the
#: highest one that still leaves at least :data:`MIN_BEYOND` samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of no samples")
    return float(statistics.median(data))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))  # 99.9% of 10000 is 9990, not 9991


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(p, len(ordered)) - 1])


def tail(values: Sequence[float]) -> "tuple[float, float, int] | None":
    """``(percentile, value, samples)`` at the highest supported percentile.

    A percentile ``p`` is supported when at least :data:`MIN_BEYOND` samples
    rank strictly above its nearest-rank position.  Returns ``None`` when
    even the median is unsupported (fewer than 20 samples).
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, nearest_rank(values, p), n
    return None


def tail_label(values: Sequence[float], unit: str) -> str:
    """Human-readable ``p50=… p99=… (n=…)`` summary of a timing sample."""
    if not values:
        return "no samples"
    text = f"p50={median(values):.4g}{unit}"
    hi = tail(values)
    if hi is not None and hi[0] > 50.0:
        text += f" p{hi[0]:g}={hi[1]:.4g}{unit}"
    return text + f" (n={len(values)})"


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones (0 when nothing was attempted)."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted} attempted")
    return failed / attempted if attempted else 0.0


def due_latencies(
    records: Iterable[tuple[float, float, float]]
) -> tuple[list[float], list[float]]:
    """Open-loop latency and generator lag from ``(due, sent, done)`` times.

    Latency counts from when a request was *due*, so a stall that delays
    later sends is charged to them too; lag is how late the generator sent
    (never negative: an early send is not credit).
    """
    latencies: list[float] = []
    lags: list[float] = []
    for due, sent, done in records:
        if not due <= done or not sent <= done:
            raise ValueError(f"request finished before it was due or sent: {due}, {sent}, {done}")
        latencies.append(done - due)
        lags.append(max(0.0, sent - due))
    return latencies, lags
