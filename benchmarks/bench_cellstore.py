"""Benchmark — the SQLite cell store at production grid sizes.

The grid engine's persistence (cached cells and the run ledger) lives in
one WAL-mode SQLite database (:class:`repro.experiments.SQLiteCellStore`).  This benchmark times the
operations that dominate production-scale grids (1e4-1e5 entries) over
synthetic cells:

* **put** — persisting freshly computed cells;
* **get** — reading cells back (each hit also refreshes the LRU clock with
  an indexed ``UPDATE``);
* **evict** — opening the filled store with ``max_entries = n/2`` and
  putting once, which forces half the entries out (one indexed ``DELETE``).

Run directly (this file is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_cellstore.py --quick --out out.json

``--quick`` uses 1e4 entries (the CI size), the default full run 1e5.  The
timings are recorded output, not a gate; the script exits non-zero only when
the store loses entries (a get misses or the eviction bound does not
hold).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import GridCell, SQLiteCellStore


def make_cells(n: int) -> list[GridCell]:
    """``n`` distinct synthetic cells (no runner execution involved)."""
    return [
        GridCell(figure="bench", runner="bench_cellstore", params={"i": i})
        for i in range(n)
    ]


def rows_for(i: int) -> list[dict]:
    """One cell's synthetic result rows (small, like an aggregate row)."""
    return [{"i": i, "value": i * 0.5, "metric": "bench"}]


def timed(fn) -> "tuple[object, float]":
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_store(cells: list[GridCell], root: Path) -> dict:
    """Time put / get / evict."""
    n = len(cells)
    cache_dir = root / "cache"

    with SQLiteCellStore.for_directory(cache_dir) as store:
        _, put_s = timed(
            lambda: [store.put(cell, rows_for(i), 0.0) for i, cell in enumerate(cells)]
        )
        hits, get_s = timed(lambda: sum(store.get(cell) is not None for cell in cells))
    assert hits == n, f"{hits}/{n} gets hit"

    # eviction: reopen bounded at n/2 and put once -> half the store must go
    with SQLiteCellStore.for_directory(cache_dir, max_entries=n // 2) as bounded:
        extra = GridCell(figure="bench", runner="bench_cellstore", params={"i": n})
        _, evict_s = timed(lambda: bounded.put(extra, rows_for(n), 0.0))
        remaining = len(bounded)
    assert remaining <= n // 2, f"{remaining} entries survived the bound"

    return {
        "entries": n,
        "put_seconds": put_s,
        "get_seconds": get_s,
        "evict_seconds": evict_s,
        "remaining_after_eviction": remaining,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="1e4 entries (CI size) instead of 1e5"
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE", help="write the JSON artifact to FILE"
    )
    args = parser.parse_args(argv)
    n = 10_000 if args.quick else 100_000

    root = Path(tempfile.mkdtemp(prefix="bench-cellstore-"))
    try:
        results = bench_store(make_cells(n), root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    artifact = {"benchmark": "cellstore", "quick": args.quick, "sqlite": results}
    print(json.dumps(artifact, indent=1))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(artifact, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
