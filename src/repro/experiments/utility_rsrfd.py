"""Experiments E5 and E14 — utility of RS+RFD vs RS+FD (Figs. 5 and 16).

For every protocol (GRR, SUE-r, OUE-r), every ``epsilon`` in
``[ln 2, ..., ln 7]`` and every prior kind (Correct, DIR, ZIPF, EXP), measure
the averaged MSE of multidimensional frequency estimation with the original
RS+FD solution (uniform fake data) and the proposed RS+RFD countermeasure
(realistic fake data), plus the corresponding analytical approximate
variances (Fig. 16's left-hand plots).

Grid decomposition: one cell per (repetition, protocol, epsilon) covering
all prior kinds, so the RS+FD reference collection is computed once per cell
and the rows pair up naturally.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..datasets.loaders import load_dataset
from ..exceptions import InvalidParameterError
from ..metrics.errors import mse_avg
from ..multidim.rsfd import RSFD
from ..multidim.rsrfd import RSRFD
from ..multidim.variance import averaged_analytical_variance
from ..protocols.streaming import validate_chunk_size
from .attribute_inference_rsrfd import shared_priors
from .config import UTILITY_EPSILONS
from .grid import CellStore, Executor, GridCell, cell_runner, execute_plan
from .reporting import mean_rows

#: Protocols compared in Figs. 5 and 16.
UTILITY_PROTOCOLS: tuple[str, ...] = ("GRR", "SUE-r", "OUE-r")


def _parse_protocol(label: str) -> tuple[str, str]:
    label = label.strip().upper()
    if label == "GRR":
        return "grr", "OUE"
    if label in ("SUE-R", "OUE-R"):
        return "ue-r", label.split("-")[0]
    raise InvalidParameterError(
        f"unknown utility protocol {label!r}; expected GRR, SUE-r or OUE-r"
    )


@cell_runner("utility_rsrfd")
def _utility_rsrfd_cell(params: Mapping, rng: np.random.Generator) -> list[dict]:
    """One (repetition, protocol, epsilon) cell of Figs. 5 / 16."""
    dataset = load_dataset(
        params["dataset"], n=params["n"], rng=int(params["dataset_seed"])
    )
    label = params["protocol"]
    variant, ue_kind = _parse_protocol(label)
    epsilon = float(params["epsilon"])
    include_analytical = bool(params["include_analytical"])

    # chunk_size streams users through the bounded-memory aggregation path
    # (reports are never retained); None/absent keeps the one-shot path
    chunk_size = validate_chunk_size(params.get("chunk_size"))

    # RS+FD reference (uniform fake data); prior-independent, but repeated
    # per prior kind so rows pair up naturally.
    rsfd = RSFD(dataset.domain, epsilon, variant=variant, ue_kind=ue_kind, rng=rng)
    if chunk_size is not None:
        rsfd_estimates = rsfd.stream_collect_and_estimate(dataset, chunk_size)
    else:
        _, rsfd_estimates = rsfd.collect_and_estimate(dataset)
    rsfd_error = mse_avg(rsfd_estimates, dataset)

    rows: list[dict] = []
    for kind in params["prior_kinds"]:
        priors = shared_priors(params, dataset, kind)
        rsrfd = RSRFD(
            dataset.domain,
            epsilon,
            priors=priors,
            variant="grr" if variant == "grr" else "ue-r",
            ue_kind=ue_kind,
            rng=rng,
        )
        if chunk_size is not None:
            rsrfd_estimates = rsrfd.stream_collect_and_estimate(dataset, chunk_size)
        else:
            _, rsrfd_estimates = rsrfd.collect_and_estimate(dataset)
        rsrfd_error = mse_avg(rsrfd_estimates, dataset)
        pair = [
            ("RS+FD", f"RS+FD[{label}]", rsfd_error, "rsfd"),
            ("RS+RFD", f"RS+RFD[{label}]", rsrfd_error, "rsrfd"),
        ]
        for solution, protocol_label, error, solution_key in pair:
            row = {
                "dataset": params["dataset"],
                "solution": solution,
                "protocol": protocol_label,
                "epsilon": epsilon,
                "prior": kind,
                "mse_avg": error,
            }
            if include_analytical:
                row["analytical_variance"] = averaged_analytical_variance(
                    solution_key,
                    variant if solution_key == "rsfd" else ("grr" if variant == "grr" else "ue-r"),
                    epsilon,
                    dataset.sizes,
                    dataset.n,
                    priors=priors if solution_key == "rsrfd" else None,
                    ue_kind=ue_kind,
                )
            rows.append(row)
    return rows


def plan_utility_rsrfd(
    dataset_name: str = "acs_employment",
    n: int | None = None,
    protocols: Sequence[str] = UTILITY_PROTOCOLS,
    epsilons: Sequence[float] = UTILITY_EPSILONS,
    prior_kinds: Sequence[str] = ("correct", "dir"),
    prior_epsilon: float = 0.1,
    include_analytical: bool = False,
    runs: int = 1,
    seed: int = 42,
    figure: str = "utility_rsrfd",
    chunk_size: int | None = None,
) -> list[GridCell]:
    """Express the utility comparison grid as independent cells.

    ``chunk_size`` switches every cell onto the bounded-memory streaming
    aggregation path (users collected and counted ``chunk_size`` at a time);
    it is only added to the cell parameters when set, so existing cache
    entries for the one-shot path stay valid.
    """
    chunk_size = validate_chunk_size(chunk_size)
    cells = []
    for run_index in range(runs):
        for label in protocols:
            _parse_protocol(label)  # fail fast on bad labels
            for epsilon in epsilons:
                params = {
                    "dataset": dataset_name,
                    "n": n,
                    "dataset_seed": seed,
                    "run": run_index,
                    "protocol": label,
                    "epsilon": float(epsilon),
                    "prior_kinds": list(prior_kinds),
                    "prior_epsilon": float(prior_epsilon),
                    "include_analytical": bool(include_analytical),
                }
                if chunk_size is not None:
                    params["chunk_size"] = chunk_size
                cells.append(
                    GridCell(
                        figure=figure,
                        runner="utility_rsrfd",
                        params=params,
                        master_seed=seed,
                    )
                )
    return cells


def postprocess_utility_rsrfd(
    rows: list[dict], include_analytical: bool = False
) -> list[dict]:
    """Average raw cell rows over repetitions (the figure's final rows)."""
    group_by = ["dataset", "solution", "protocol", "epsilon", "prior"]
    value_columns = ["mse_avg"] + (["analytical_variance"] if include_analytical else [])
    return mean_rows(rows, group_by, value_columns)


def run_utility_rsrfd(
    dataset_name: str = "acs_employment",
    n: int | None = None,
    protocols: Sequence[str] = UTILITY_PROTOCOLS,
    epsilons: Sequence[float] = UTILITY_EPSILONS,
    prior_kinds: Sequence[str] = ("correct", "dir"),
    prior_epsilon: float = 0.1,
    include_analytical: bool = False,
    runs: int = 1,
    seed: int = 42,
    figure: str = "utility_rsrfd",
    chunk_size: int | None = None,
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict | None = None,
) -> list[dict]:
    """Compare RS+RFD against RS+FD on multidimensional frequency estimation.

    Returns one row per (solution, protocol, epsilon, prior kind) with the
    empirical ``MSE_avg`` and, when ``include_analytical`` is set, the
    analytical approximate variance averaged over attributes and values.
    ``prior_epsilon`` is the total central-DP budget for "correct" priors
    (see :func:`run_attribute_inference_rsrfd`).  ``chunk_size`` streams each
    cell through the bounded-memory aggregation path so million-user cells
    never materialize a full ``(n, k)`` report matrix.
    """
    cells = plan_utility_rsrfd(
        dataset_name=dataset_name,
        n=n,
        protocols=protocols,
        epsilons=epsilons,
        prior_kinds=prior_kinds,
        prior_epsilon=prior_epsilon,
        include_analytical=include_analytical,
        runs=runs,
        seed=seed,
        figure=figure,
        chunk_size=chunk_size,
    )
    return execute_plan(
        cells,
        lambda rows: postprocess_utility_rsrfd(rows, include_analytical),
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )
