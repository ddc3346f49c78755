"""Experiments E6 and E15 — attribute inference against RS+RFD (Figs. 6 and 17).

Same attack models as against RS+FD (NK / PK / HM), but the users now apply
the RS+RFD countermeasure with "Correct" (Fig. 6) or "Incorrect"
(DIR / ZIPF / EXP, Fig. 17) priors.  The paper's finding is that realistic
fake data keeps the attacker's AIF-ACC close to the ``1/d`` baseline.

Grid decomposition: one cell per (repetition, protocol, epsilon).  The
priors of a repetition are derived from the master seed and the repetition
index alone so all cells of a repetition share them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..attacks.attribute_inference import AttributeInferenceAttack, ClassifierFactory
from ..core.rng import derive_rng
from ..datasets.loaders import load_dataset
from ..exceptions import InvalidParameterError
from ..metrics.accuracy import as_percentage
from ..multidim.rsrfd import RSRFD
from ..privacy.priors import make_priors
from .attribute_inference_rsfd import (
    NK_FACTORS,
    PK_FRACTIONS,
    attack_model_settings,
    classifier_name,
    resolve_classifier_factory,
)
from .config import PAPER_EPSILONS
from .grid import CellStore, Executor, GridCell, cell_runner, execute_plan
from .reporting import mean_rows

#: RS+RFD protocols evaluated in Figs. 6 and 17.
RSRFD_PROTOCOLS: tuple[str, ...] = ("GRR", "SUE-r", "OUE-r")


def _parse_protocol(label: str) -> tuple[str, str]:
    label = label.strip().upper()
    if label == "GRR":
        return "grr", "OUE"
    if label in ("SUE-R", "OUE-R"):
        return "ue-r", label.split("-")[0]
    raise InvalidParameterError(
        f"unknown RS+RFD protocol label {label!r}; expected GRR, SUE-r or OUE-r"
    )


def shared_priors(params: Mapping, dataset, prior_kind: str) -> list[np.ndarray]:
    """Priors shared by every cell of the same repetition."""
    rng = derive_rng(
        int(params["dataset_seed"]), "priors", int(params["run"]), str(prior_kind)
    )
    return make_priors(
        prior_kind, dataset, rng=rng, total_epsilon=float(params["prior_epsilon"])
    )


@cell_runner("attribute_inference_rsrfd")
def _attribute_inference_rsrfd_cell(params: Mapping, rng: np.random.Generator) -> list[dict]:
    """One (repetition, protocol, epsilon) cell of Figs. 6 / 17."""
    dataset = load_dataset(
        params["dataset"], n=params["n"], rng=int(params["dataset_seed"])
    )
    label = params["protocol"]
    variant, ue_kind = _parse_protocol(label)
    epsilon = float(params["epsilon"])
    prior_kind = params["prior_kind"]
    priors = shared_priors(params, dataset, prior_kind)
    solution = RSRFD(
        dataset.domain,
        epsilon,
        priors=priors,
        variant=variant,
        ue_kind=ue_kind,
        rng=rng,
    )
    reports = solution.collect(dataset)
    estimates = solution.estimate(reports)
    attack = AttributeInferenceAttack(
        solution,
        classifier_factory=resolve_classifier_factory(params["classifier"]),
        rng=rng,
    )
    rows: list[dict] = []
    for model in params["models"]:
        model = model.upper()
        for setting in attack_model_settings(
            model, params["nk_factors"], params["pk_fractions"]
        ):
            if model in ("NK", "HM"):
                setting = {**setting, "estimates": estimates}
            result = attack.run(model, reports, **setting)
            rows.append(
                {
                    "dataset": params["dataset"],
                    "protocol": f"RS+RFD[{label}]",
                    "prior": prior_kind,
                    "epsilon": epsilon,
                    "model": model,
                    "s": float(setting.get("synthetic_factor", 0.0)),
                    "n_pk": float(setting.get("compromised_fraction", 0.0)),
                    "aif_acc_pct": as_percentage(result.accuracy),
                    "baseline_pct": as_percentage(result.baseline),
                }
            )
    return rows


def plan_attribute_inference_rsrfd(
    dataset_name: str = "acs_employment",
    n: int | None = None,
    protocols: Sequence[str] = RSRFD_PROTOCOLS,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    models: Sequence[str] = ("NK", "PK", "HM"),
    prior_kind: str = "correct",
    prior_epsilon: float = 0.1,
    nk_factors: Sequence[float] = NK_FACTORS,
    pk_fractions: Sequence[float] = PK_FRACTIONS,
    classifier_factory: ClassifierFactory | None = None,
    runs: int = 1,
    seed: int = 42,
    figure: str = "attribute_inference_rsrfd",
) -> list[GridCell]:
    """Express the RS+RFD attribute-inference grid as independent cells."""
    classifier = classifier_name(classifier_factory)
    cells = []
    for run_index in range(runs):
        for label in protocols:
            _parse_protocol(label)  # fail fast on bad labels
            for epsilon in epsilons:
                cells.append(
                    GridCell(
                        figure=figure,
                        runner="attribute_inference_rsrfd",
                        params={
                            "dataset": dataset_name,
                            "n": n,
                            "dataset_seed": seed,
                            "run": run_index,
                            "protocol": label,
                            "epsilon": float(epsilon),
                            "prior_kind": prior_kind,
                            "prior_epsilon": float(prior_epsilon),
                            "models": [m.upper() for m in models],
                            "nk_factors": [float(s) for s in nk_factors],
                            "pk_fractions": [float(f) for f in pk_fractions],
                            "classifier": classifier,
                        },
                        master_seed=seed,
                    )
                )
    return cells


def postprocess_attribute_inference_rsrfd(rows: list[dict]) -> list[dict]:
    """Average raw cell rows over repetitions (the figure's final rows)."""
    group_by = ["dataset", "protocol", "prior", "epsilon", "model", "s", "n_pk"]
    return mean_rows(rows, group_by, ["aif_acc_pct", "baseline_pct"])


def run_attribute_inference_rsrfd(
    dataset_name: str = "acs_employment",
    n: int | None = None,
    protocols: Sequence[str] = RSRFD_PROTOCOLS,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    models: Sequence[str] = ("NK", "PK", "HM"),
    prior_kind: str = "correct",
    prior_epsilon: float = 0.1,
    nk_factors: Sequence[float] = NK_FACTORS,
    pk_fractions: Sequence[float] = PK_FRACTIONS,
    classifier_factory: ClassifierFactory | None = None,
    runs: int = 1,
    seed: int = 42,
    figure: str = "attribute_inference_rsrfd",
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict | None = None,
) -> list[dict]:
    """Measure the attacker's AIF-ACC against RS+RFD collections.

    ``prior_epsilon`` is the total central-DP budget used to build "correct"
    priors (0.1 in the paper, whose priors are computed on the full 10k-user
    population).  Scaled-down runs with much smaller ``n`` should increase it
    proportionally so the prior quality — not the population size — stays the
    paper's.
    """
    cells = plan_attribute_inference_rsrfd(
        dataset_name=dataset_name,
        n=n,
        protocols=protocols,
        epsilons=epsilons,
        models=models,
        prior_kind=prior_kind,
        prior_epsilon=prior_epsilon,
        nk_factors=nk_factors,
        pk_fractions=pk_fractions,
        classifier_factory=classifier_factory,
        runs=runs,
        seed=seed,
        figure=figure,
    )
    return execute_plan(
        cells,
        postprocess_attribute_inference_rsrfd,
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )
