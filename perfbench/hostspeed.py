"""Host speed, sampled by a fixed reference task while the program runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes as its neighbours' load changes.
While a measuring process runs the program, a :class:`Sampler` interrupts
it (``SIGALRM``) :data:`INTERVAL_S` seconds after each sample and times
:func:`reference_task` once more.  Each timed section thus carries its own measure of
how fast the host ran during it, and is reported at the reference speed::

    at_reference_speed = (section time - sampling time) * REFERENCE_S / mean(sample)

The task is the benchmark's own code on NumPy and the interpreter only, so
no change to the program alters it.  It mixes what the workloads spend
their time on: an int16 broadcast comparison summed over attributes (the
re-identification distance kernels), a float64 ``X^T W`` matmul (the GBDT
histogram product) and interpreted dict work (per-cell and per-tree
bookkeeping).
"""

from __future__ import annotations

import functools
import json
import select
import signal
import sys
import time
from typing import Any

#: Seconds the reference task takes on the reference host (2 vCPUs of a
#: shared x86-64 host, Python 3.11, NumPy 2.4, BLAS pinned to one thread)
#: when sampled inside a running workload, whose data has left the caches.
REFERENCE_S = 0.04
#: Seconds of wall time from the end of one sample to the start of the next.
INTERVAL_S = 0.25
#: Samples a :func:`probe` takes, right after a process's set-up, which the
#: timer does not cover.
PROBE_SAMPLES = 5


@functools.lru_cache(maxsize=1)
def _inputs() -> tuple[Any, Any, Any]:
    # NumPy is imported here, not at module import, so that a worker which
    # imports this module still imports NumPy as part of ``import repro``
    import numpy as np

    rng = np.random.default_rng(20231)
    return (rng.integers(0, 40, size=(900, 12)).astype(np.int16),
            rng.random((1200, 96)), rng.random((1200, 48)))


def reference_task() -> float:
    """Run the fixed task once; returns its wall seconds."""
    profiles, x, w = _inputs()
    started = time.perf_counter()
    best = 0
    for row in range(0, 900, 300):
        distances = (profiles[row:row + 300, None, :] != profiles[None, :, :]).sum(
            axis=2, dtype=profiles.dtype
        )
        best += int(distances.min())
    for _ in range(3):
        best += int((x.T @ w).argmax())
    counts: dict[int, int] = {}
    for value in range(25000):
        key = value * 7919 % 211
        counts[key] = counts.get(key, 0) + 1
    best += len(counts)
    if best < 0:  # keeps the work observable
        raise AssertionError(best)
    return time.perf_counter() - started


def probe(count: int = PROBE_SAMPLES) -> "list[float]":
    """Time the reference task ``count`` times back to back."""
    return [reference_task() for _ in range(count)]


def speed_factor(samples: "list[float]") -> float:
    """How much faster than measured the host would have run at the reference
    speed, from the samples taken over a stretch of time (1 with none)."""
    return REFERENCE_S * len(samples) / sum(samples) if samples else 1.0


def at_reference_speed(section_s: float, samples: "list[float]") -> float:
    """A section's own time at the reference speed.

    ``section_s`` is the section's wall time, ``samples`` the reference task
    times taken inside it (whose sum is not the program's time).  With no
    sample the section is returned as measured.
    """
    return (section_s - sum(samples)) * speed_factor(samples)


class Sampler:
    """Times :func:`reference_task` each time :data:`INTERVAL_S` s pass after the last.

    Use as a context manager around the measured code and take a
    :meth:`mark` at each section boundary; :meth:`between` gives the
    section's own time at the reference speed.  The timer is re-armed only
    when a sample ends, so samples never nest, however slow the host.  The
    signal is blocked while a mark is taken, so a sample belongs wholly to
    one section.  A disabled sampler takes no samples, and :meth:`between`
    is then plain wall time.
    """

    def __init__(self, enabled: bool = True, interval_s: float = INTERVAL_S) -> None:
        self.enabled, self.interval_s = enabled, interval_s
        self.samples: list[float] = []
        self._active = False
        self._previous: Any = None

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        self.samples.append(reference_task())
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def __enter__(self) -> "Sampler":
        if self.enabled:
            _inputs()
            self._active = True
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.enabled:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        """``(perf_counter, samples so far)`` at a section boundary."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            while True:  # a sample already pending may still run once
                count = len(self.samples)
                now = time.perf_counter()
                if len(self.samples) == count:
                    return now, count
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def taken(self, start: tuple[float, int], end: tuple[float, int]) -> "list[float]":
        """The samples taken between two marks."""
        return self.samples[start[1]:end[1]]

    def between(self, start: tuple[float, int], end: tuple[float, int]) -> float:
        """The program's time between two marks, at the reference speed."""
        return at_reference_speed(end[0] - start[0], self.taken(start, end))


def main() -> int:
    """Sample every :data:`INTERVAL_S` s until standard input closes, then
    print the samples as a JSON list.  This is how a process that must not
    be interrupted (the service workload's load generator) has the host
    speed sampled beside it."""
    _inputs()
    samples: list[float] = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append(reference_task())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
