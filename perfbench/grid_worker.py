"""One fresh measuring process of a grid workload (``reident-smp``, ``aif-rsfd``).

Usage: ``python perfbench/grid_worker.py SPEC.json OUT.json``.  The spec
names the workload, the seed, the mode (``setup`` stops after the warm-up,
``measure`` then runs passes for ``seconds``), whether to trace, and
whether to sample the host speed (``hostspeed``: the untraced end-to-end
passes do, and their times are reported at the reference speed of
:mod:`perfbench.hostspeed`).  ``setup_s`` is reported at the reference
speed of a probe taken right after the set-up, ``raw_setup_s`` as measured.
``PERFBENCH_T_SPAWN`` holds the parent's ``time.perf_counter()`` just before
it started this process (the clock is system-wide, so ``setup_s`` includes
interpreter launch).

A pass is one ``run_grid`` call over the whole plan, serial, with no cell
store.  Every pass is checked: a cell whose rows differ from the reference
digests checked in for the seed (or, for other seeds, from the first pass
of this process) counts as failed, and a pass that raised fails all cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import hostspeed  # noqa: E402
from perfbench import trace as tracing  # noqa: E402

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_rows.json"


def plan(workload: str, seed: int, warmup: bool = False) -> list:
    """The grid cells of ``workload`` (or of its small warm-up grid)."""
    from repro.experiments import (
        SMP_PROTOCOLS,
        plan_attribute_inference_rsfd,
        plan_reidentification_smp,
    )

    if workload == "reident-smp":
        # Fig. 2 at the --quick size: Adult, SMP, FK-RI, uniform metric
        return plan_reidentification_smp(
            "adult",
            n=300 if warmup else 2000,
            protocols=SMP_PROTOCOLS,
            epsilons=(1.0,) if warmup else (1.0, 4.0, 7.0, 10.0),
            num_surveys=5,
            top_ks=(1, 10),
            knowledge="FK-RI",
            metric="uniform",
            seed=seed,
        )
    if workload == "aif-rsfd":
        # two fig3 --quick cells, one setting per attack model
        return plan_attribute_inference_rsfd(
            "acs_employment",
            n=100 if warmup else 1200,
            protocols=("GRR",) if warmup else ("GRR", "SUE-z"),
            epsilons=(1.0,),
            models=("NK", "PK", "HM"),
            nk_factors=(1.0,),
            pk_fractions=(0.1,),
            seed=seed,
        )
    raise ValueError(f"not a grid workload: {workload!r}")


def rows_digest(rows: list) -> str:
    """SHA-256 of the canonical JSON of one cell's rows."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digests(workload: str, seed: int) -> "list[str] | str | None":
    """Digests checked in for ``seed``, if any: one per cell for the grid
    workloads, one for the figure's ``rows.json`` for ``figure-cli``."""
    try:
        table = json.loads(REFERENCE_FILE.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload, seed = spec["workload"], int(spec["seed"])
    tracer = tracing.Tracer() if spec.get("trace") else None

    import repro.experiments as experiments
    from repro.kernels import active_backend_name

    if tracer is not None:
        tracing.install(tracer)  # rebinds experiments.run_grid among others
    cells = plan(workload, seed)
    experiments.run_grid(plan(workload, seed, warmup=True))
    if tracer is not None:
        tracer.reset()
    setup_s = time.perf_counter() - float(os.environ["PERFBENCH_T_SPAWN"])
    probe = hostspeed.probe()
    result: dict[str, Any] = {"setup_s": setup_s * hostspeed.speed_factor(probe), "raw_setup_s": setup_s}
    if spec["mode"] == "setup":
        result["peak_rss_mb"] = _peak_rss_mb()
        Path(out_path).write_text(json.dumps(result))
        return 0

    reference = expected = reference_digests(workload, seed)
    if expected is not None and len(expected) != len(cells):
        raise SystemExit(f"reference for {workload} seed {seed} has {len(expected)} cells, plan {len(cells)}")
    walls: list[float] = []
    raw_walls: list[float] = []
    samples: list[float] = []
    cell_times: list[float] = []
    attempted = failed = 0
    mismatches: list[str] = []
    deadline = time.perf_counter() + float(spec["seconds"])
    with hostspeed.Sampler(enabled=bool(spec.get("hostspeed"))) as sampler:
        while True:
            root = tracer.begin("workload.pass") if tracer is not None else None
            marks = [sampler.mark()]
            try:
                result_pass = experiments.run_grid(
                    cells, on_cell_complete=lambda _outcome: marks.append(sampler.mark())
                )
            except Exception as exc:  # a raising cell fails the whole pass
                attempted += len(cells)
                failed += len(cells)
                mismatches.append(f"pass {len(walls)} raised {exc!r}")
                break
            finally:
                end = sampler.mark()
                if root is not None:
                    tracer.end(root)
            taken = sampler.taken(marks[0], end)
            walls.append(sampler.between(marks[0], end))
            raw_walls.append(end[0] - marks[0][0] - sum(taken))
            samples.extend(taken)
            # a cell is often shorter than the sampling interval: it takes
            # the speed of its whole pass
            factor = hostspeed.speed_factor(taken)
            cell_times.extend(
                (b[0] - a[0] - sum(sampler.taken(a, b))) * factor for a, b in zip(marks, marks[1:])
            )
            digests = [rows_digest(o.rows) for o in result_pass.outcomes]
            if expected is None:
                expected = digests  # later passes must reproduce the first
            for index, (got, want) in enumerate(zip(digests, expected)):
                attempted += 1
                if got != want:
                    failed += 1
                    mismatches.append(f"pass {len(walls) - 1} cell {index}")
            now = time.perf_counter()
            if now + 0.5 * (now - marks[0][0]) >= deadline:
                break
    if not walls:
        raise SystemExit(f"{workload}: no pass completed: {mismatches[0]}")

    result.update(
        walls=walls,
        raw_walls=raw_walls,
        reference_samples=samples,
        cell_times=cell_times,
        attempted=attempted,
        failed=failed,
        mismatches=mismatches[:20],
        checked_against="reference" if reference else "first pass",
        peak_rss_mb=_peak_rss_mb(),
        kernel_backend=active_backend_name(),
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
