"""Regenerate ``reference_rows.json``: digests of the canonical rows per seed.

Usage, from the root of a checkout of the commit whose rows are the
reference::

    PYTHONPATH=src python3 perfbench/make_reference.py 42 0 1 2

For each seed it stores the per-cell row digests of the two grid workloads
(computed with the same plans and ``run_grid`` call as ``grid_worker.py``)
and the digest of ``rows.json`` written by the ``figure-cli`` command line.
Only rerun it when a change is meant to alter rows; the benchmark counts
every cell that no longer matches as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.grid_worker import REFERENCE_FILE, plan, rows_digest  # noqa: E402
from perfbench.run import FIGURE_ARGS, PINNED_ENV, read_rows_digest  # noqa: E402


def main(seeds: list[int]) -> int:
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS
    from repro.experiments import run_grid

    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for seed in seeds:
        for workload in ("reident-smp", "aif-rsfd"):
            result = run_grid(plan(workload, seed))
            table.setdefault(workload, {})[str(seed)] = [rows_digest(o.rows) for o in result.outcomes]
        scratch = Path.cwd() / ".perfbench-work"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            subprocess.run(
                [sys.executable, "-m", "repro.experiments", *FIGURE_ARGS, "--seed", str(seed),
                 "--no-cache", "--out", out],
                check=True, stdout=subprocess.DEVNULL,
            )
            table.setdefault("figure-cli", {})[str(seed)] = read_rows_digest(Path(out))
        print(f"seed {seed} done", flush=True)
        REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
