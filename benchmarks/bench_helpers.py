"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows behind one figure of the paper at a
scaled-down size; each ``bench_figNN_*.py`` file is named after its figure.
The functions are expensive end-to-end pipelines, so each benchmark runs
exactly one round and the resulting rows are printed so the series can be
compared against the paper (qualitative shape, not absolute values).
"""

from __future__ import annotations

import os

from repro.experiments.reporting import format_table


def run_figure(benchmark, func, label: str, columns=None):
    """Run ``func`` once under pytest-benchmark and print its rows."""
    rows = benchmark.pedantic(func, rounds=1, iterations=1)
    print(f"\n=== {label} ===")
    print(format_table(rows, columns=columns))
    return rows


def grid_kwargs() -> dict:
    """Grid-engine knobs for the benchmarks, taken from the environment.

    ``REPRO_BENCH_WORKERS`` sets the process-pool size (default 1, i.e. the
    sequential in-process path, so timings stay comparable by default) and
    ``REPRO_BENCH_CACHE`` points at an on-disk cell-cache directory (unset =
    no caching, every benchmark run recomputes its cells).

    ``REPRO_BENCH_REMOTE_WORKERS`` (> 0) routes each figure through the
    lease-based remote executor instead — a local HTTP coordinator plus
    that many worker subprocesses.  Rows are byte-identical to the
    in-process paths; ``REPRO_CHAOS`` fault-injection directives apply to
    the workers as usual, so recovery costs can be benchmarked too.

    ``REPRO_BENCH_KERNEL_BACKEND`` (``numpy``, ``numba`` or ``auto``)
    selects the process-wide :mod:`repro.kernels` backend before the
    benchmark runs; unset leaves the library's own resolution
    (``REPRO_KERNEL_BACKEND``, else ``auto``) in charge.
    """
    kwargs: dict = {}
    kernel_backend = os.environ.get("REPRO_BENCH_KERNEL_BACKEND")
    if kernel_backend:
        from repro.kernels import set_backend

        set_backend(kernel_backend)
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    if workers > 1:
        kwargs["workers"] = workers
    cache_dir = os.environ.get("REPRO_BENCH_CACHE")
    if cache_dir:
        kwargs["cache"] = cache_dir
    remote_workers = int(os.environ.get("REPRO_BENCH_REMOTE_WORKERS", "0"))
    if remote_workers > 0:
        from repro.experiments.remote import RemoteExecutor

        kwargs["executor"] = RemoteExecutor(workers=remote_workers)
    return kwargs
