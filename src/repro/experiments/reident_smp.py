"""Experiments E2, E7-E11 — re-identification risk of the SMP solution.

Covers Fig. 2 (Adult, FK-RI, uniform), Fig. 9 (ACSEmployment), Fig. 10
(PK-RI), Fig. 11 (non-uniform privacy metric) and, through the ``pie_betas``
parameter, the PIE-based Figs. 12-13.

Workflow per repetition (Sec. 4.2): draw ``#surveys`` surveys with at least
``d/2`` random attributes each, let every user report one attribute per
survey with the SMP solution, build the attacker's inferred profile after
every survey and match it against the background knowledge for
``top-k ∈ {1, 10}``.

The grid decomposition is one cell per (repetition, protocol, privacy
level); the survey plan of a repetition is derived from the master seed and
the repetition index alone, so every cell of the same repetition attacks the
same surveys — exactly as in the sequential formulation — while remaining
independently executable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..attacks.profile import build_profiles_smp, plan_surveys
from ..attacks.reidentification import ReidentificationAttack
from ..core.rng import derive_rng
from ..datasets.loaders import load_dataset
from ..metrics.accuracy import as_percentage
from .config import PAPER_EPSILONS
from .grid import CellStore, Executor, GridCell, cell_runner, execute_plan
from .reporting import mean_rows

#: Protocols plotted in Figs. 2 and 9-13.
SMP_PROTOCOLS: tuple[str, ...] = ("GRR", "SS", "SUE", "OLH", "OUE")

#: Row-grouping key shared by the SMP re-identification figures.
_GROUP_BY = (
    "dataset",
    "protocol",
    "privacy_axis",
    "privacy_level",
    "metric",
    "knowledge",
    "surveys",
    "top_k",
)


def _shared_surveys(params: Mapping) -> list:
    """Survey plan shared by every cell of the same repetition."""
    rng = derive_rng(int(params["seed"]), "reident_smp", "surveys", int(params["run"]))
    return plan_surveys(int(params["d"]), int(params["num_surveys"]), rng=rng)


@cell_runner("reident_smp")
def _reident_smp_cell(params: Mapping, rng: np.random.Generator) -> list[dict]:
    """One (repetition, protocol, privacy level) cell of Figs. 2 / 9-13."""
    dataset = load_dataset(
        params["dataset"], n=params["n"], rng=int(params["dataset_seed"])
    )
    surveys = _shared_surveys({**params, "d": dataset.d})
    reident = ReidentificationAttack(dataset, rng=rng)
    axis_name = params["privacy_axis"]
    level = float(params["privacy_level"])
    profiling = build_profiles_smp(
        dataset,
        surveys,
        protocol=params["protocol"],
        epsilon=level if axis_name == "epsilon" else 1.0,
        metric=params["metric"],
        rng=rng,
        pie_beta=level if axis_name == "beta" else None,
    )
    rows: list[dict] = []
    for top_k in params["top_ks"]:
        results = reident.evaluate_profiling(
            profiling,
            top_k=int(top_k),
            model=params["knowledge"],
            min_surveys=int(params["min_surveys"]),
            redraw_attributes=bool(params.get("redraw_attributes", False)),
        )
        for surveys_done, result in results.items():
            rows.append(
                {
                    "dataset": params["dataset"],
                    "protocol": params["protocol"],
                    "privacy_axis": axis_name,
                    "privacy_level": level,
                    "metric": params["metric"],
                    "knowledge": params["knowledge"],
                    "surveys": surveys_done,
                    "top_k": int(top_k),
                    "rid_acc_pct": as_percentage(result.accuracy),
                    "baseline_pct": as_percentage(result.baseline),
                }
            )
    return rows


def plan_reidentification_smp(
    dataset_name: str = "adult",
    n: int | None = None,
    protocols: Sequence[str] = SMP_PROTOCOLS,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    num_surveys: int = 5,
    top_ks: Sequence[int] = (1, 10),
    knowledge: str = "FK-RI",
    metric: str = "uniform",
    pie_betas: Sequence[float] | None = None,
    min_surveys: int = 2,
    runs: int = 1,
    seed: int = 42,
    figure: str = "reident_smp",
    redraw_attributes: bool = False,
) -> list[GridCell]:
    """Express the SMP re-identification grid as independent cells.

    ``redraw_attributes`` only matters for ``knowledge="PK-RI"`` (Fig. 10):
    by default one random attribute subset is drawn per evaluation, so the
    curve isolates profile growth; ``True`` restores the historical
    per-snapshot redraw (a different partial-knowledge adversary at every
    point).  The flag is part of the cell params, so caches never mix the
    two fidelities.
    """
    privacy_levels = (
        [("beta", float(b)) for b in pie_betas]
        if pie_betas is not None
        else [("epsilon", float(e)) for e in epsilons]
    )
    cells = []
    for run_index in range(runs):
        for protocol in protocols:
            for axis_name, level in privacy_levels:
                cells.append(
                    GridCell(
                        figure=figure,
                        runner="reident_smp",
                        params={
                            "dataset": dataset_name,
                            "n": n,
                            "dataset_seed": seed,
                            "seed": seed,
                            "run": run_index,
                            "protocol": protocol,
                            "privacy_axis": axis_name,
                            "privacy_level": level,
                            "num_surveys": num_surveys,
                            "top_ks": [int(k) for k in top_ks],
                            "knowledge": knowledge,
                            "metric": metric,
                            "min_surveys": min_surveys,
                            "redraw_attributes": bool(redraw_attributes),
                        },
                        master_seed=seed,
                    )
                )
    return cells


def postprocess_reidentification_smp(rows: list[dict]) -> list[dict]:
    """Average raw cell rows over repetitions (the figure's final rows)."""
    return mean_rows(rows, list(_GROUP_BY), ["rid_acc_pct", "baseline_pct"])


def run_reidentification_smp(
    dataset_name: str = "adult",
    n: int | None = None,
    protocols: Sequence[str] = SMP_PROTOCOLS,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    num_surveys: int = 5,
    top_ks: Sequence[int] = (1, 10),
    knowledge: str = "FK-RI",
    metric: str = "uniform",
    pie_betas: Sequence[float] | None = None,
    min_surveys: int = 2,
    runs: int = 1,
    seed: int = 42,
    figure: str = "reident_smp",
    redraw_attributes: bool = False,
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict | None = None,
) -> list[dict]:
    """Measure the attacker's RID-ACC for the SMP solution.

    When ``pie_betas`` is provided, the privacy axis is the Bayes-error
    parameter of the PIE model instead of ``epsilons`` (Appendix C).

    Returns one row per (protocol, privacy level, #surveys, top-k) with the
    RID-ACC in percent, averaged over ``runs`` repetitions.
    """
    cells = plan_reidentification_smp(
        dataset_name=dataset_name,
        n=n,
        protocols=protocols,
        epsilons=epsilons,
        num_surveys=num_surveys,
        top_ks=top_ks,
        knowledge=knowledge,
        metric=metric,
        pie_betas=pie_betas,
        min_surveys=min_surveys,
        runs=runs,
        seed=seed,
        figure=figure,
        redraw_attributes=redraw_attributes,
    )
    return execute_plan(
        cells,
        postprocess_reidentification_smp,
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )
