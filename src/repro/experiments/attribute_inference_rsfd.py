"""Experiments E3, E12, E13 — uncovering the sampled attribute of RS+FD.

Covers Fig. 3 (ACSEmployment), Fig. 14 (Adult) and Fig. 15 (Nursery): for
every RS+FD protocol (GRR, SUE-z, OUE-z, SUE-r, OUE-r), every attack model
(NK, PK, HM) and every privacy budget, measure the attacker's AIF-ACC against
the ``1/d`` random-guess baseline.

The grid decomposition is one cell per (repetition, protocol, epsilon); the
three attack models reuse the same collection inside the cell, exactly as in
the sequential formulation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..attacks.attribute_inference import AttributeInferenceAttack, ClassifierFactory
from ..datasets.loaders import load_dataset
from ..exceptions import InvalidParameterError
from ..metrics.accuracy import as_percentage
from ..ml.naive_bayes import BernoulliNaiveBayes
from ..multidim.rsfd import RSFD
from .config import PAPER_EPSILONS
from .grid import CellStore, Executor, GridCell, cell_runner, execute_plan
from .reporting import mean_rows

#: RS+FD protocol labels evaluated in Figs. 3 / 14 / 15.
RSFD_PROTOCOLS: tuple[str, ...] = ("GRR", "SUE-z", "OUE-z", "SUE-r", "OUE-r")

#: NK synthetic-profile factors (multiples of n) from Sec. 4.3.
NK_FACTORS: tuple[float, ...] = (1.0, 3.0, 5.0)

#: PK compromised fractions from Sec. 4.3.
PK_FRACTIONS: tuple[float, ...] = (0.1, 0.3, 0.5)

# --------------------------------------------------------------------------- #
# classifier registry — grid cells are JSON-keyed, so the attack classifier
# is referenced by name instead of by callable
# --------------------------------------------------------------------------- #
_CLASSIFIERS: dict[str, ClassifierFactory | None] = {
    "gbdt": None,  # AttributeInferenceAttack's default (from-scratch GBDT)
    "naive_bayes": BernoulliNaiveBayes,
}


def register_classifier_factory(name: str, factory: ClassifierFactory) -> None:
    """Register a classifier factory usable by name in grid cells."""
    _CLASSIFIERS[str(name)] = factory


def resolve_classifier_factory(name: str | None) -> ClassifierFactory | None:
    """Map a registered classifier name back to its factory."""
    if name is None:
        return None
    if name not in _CLASSIFIERS:
        raise InvalidParameterError(
            f"unknown classifier {name!r}; registered: {sorted(_CLASSIFIERS)}"
        )
    return _CLASSIFIERS[name]


def classifier_name(factory: ClassifierFactory | None) -> str | None:
    """Map a classifier factory to its registered name (for cell params)."""
    if factory is None:
        return None
    for name, registered in _CLASSIFIERS.items():
        if registered is factory:
            return name
    raise InvalidParameterError(
        "classifier_factory is not registered with the grid engine; call "
        "repro.experiments.register_classifier_factory(name, factory) first "
        f"(registered: {sorted(_CLASSIFIERS)})"
    )


def parse_rsfd_protocol(label: str) -> tuple[str, str]:
    """Map a paper-style label (``"OUE-z"``) to ``(variant, ue_kind)``."""
    label = label.strip().upper()
    if label == "GRR":
        return "grr", "OUE"
    if "-" in label:
        kind, suffix = label.split("-", 1)
        if kind in ("SUE", "OUE") and suffix.lower() in ("z", "r"):
            return f"ue-{suffix.lower()}", kind
    raise InvalidParameterError(
        f"unknown RS+FD protocol label {label!r}; expected GRR, SUE-z, OUE-z, SUE-r or OUE-r"
    )


def attack_model_settings(
    model: str,
    nk_factors: Sequence[float],
    pk_fractions: Sequence[float],
) -> list[dict]:
    """Parameter grid of one attack model, following Sec. 4.3."""
    model = model.upper()
    if model == "NK":
        return [{"synthetic_factor": float(s)} for s in nk_factors]
    if model == "PK":
        return [{"compromised_fraction": float(f)} for f in pk_fractions]
    if model == "HM":
        return [
            {"synthetic_factor": float(s), "compromised_fraction": float(f)}
            for s, f in zip(nk_factors, pk_fractions)
        ]
    raise InvalidParameterError(f"unknown attack model {model!r}")


@cell_runner("attribute_inference_rsfd")
def _attribute_inference_rsfd_cell(params: Mapping, rng: np.random.Generator) -> list[dict]:
    """One (repetition, protocol, epsilon) cell of Figs. 3 / 14 / 15."""
    dataset = load_dataset(
        params["dataset"], n=params["n"], rng=int(params["dataset_seed"])
    )
    label = params["protocol"]
    variant, ue_kind = parse_rsfd_protocol(label)
    epsilon = float(params["epsilon"])
    solution = RSFD(dataset.domain, epsilon, variant=variant, ue_kind=ue_kind, rng=rng)
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
                    "protocol": f"RS+FD[{label}]",
                    "epsilon": epsilon,
                    "model": model,
                    "s": float(setting.get("synthetic_factor", 0.0)),
                    "n_pk": float(setting.get("compromised_fraction", 0.0)),
                    "aif_acc_pct": as_percentage(result.accuracy),
                    "baseline_pct": as_percentage(result.baseline),
                }
            )
    return rows


def plan_attribute_inference_rsfd(
    dataset_name: str = "acs_employment",
    n: int | None = None,
    protocols: Sequence[str] = RSFD_PROTOCOLS,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    models: Sequence[str] = ("NK", "PK", "HM"),
    nk_factors: Sequence[float] = NK_FACTORS,
    pk_fractions: Sequence[float] = PK_FRACTIONS,
    classifier_factory: ClassifierFactory | None = None,
    runs: int = 1,
    seed: int = 42,
    figure: str = "attribute_inference_rsfd",
) -> list[GridCell]:
    """Express the RS+FD attribute-inference grid as independent cells."""
    classifier = classifier_name(classifier_factory)
    cells = []
    for run_index in range(runs):
        for label in protocols:
            parse_rsfd_protocol(label)  # fail fast on bad labels
            for epsilon in epsilons:
                cells.append(
                    GridCell(
                        figure=figure,
                        runner="attribute_inference_rsfd",
                        params={
                            "dataset": dataset_name,
                            "n": n,
                            "dataset_seed": seed,
                            "run": run_index,
                            "protocol": label,
                            "epsilon": float(epsilon),
                            "models": [m.upper() for m in models],
                            "nk_factors": [float(s) for s in nk_factors],
                            "pk_fractions": [float(f) for f in pk_fractions],
                            "classifier": classifier,
                        },
                        master_seed=seed,
                    )
                )
    return cells


def postprocess_attribute_inference_rsfd(rows: list[dict]) -> list[dict]:
    """Average raw cell rows over repetitions (the figure's final rows)."""
    group_by = ["dataset", "protocol", "epsilon", "model", "s", "n_pk"]
    return mean_rows(rows, group_by, ["aif_acc_pct", "baseline_pct"])


def run_attribute_inference_rsfd(
    dataset_name: str = "acs_employment",
    n: int | None = None,
    protocols: Sequence[str] = RSFD_PROTOCOLS,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    models: Sequence[str] = ("NK", "PK", "HM"),
    nk_factors: Sequence[float] = NK_FACTORS,
    pk_fractions: Sequence[float] = PK_FRACTIONS,
    classifier_factory: ClassifierFactory | None = None,
    runs: int = 1,
    seed: int = 42,
    figure: str = "attribute_inference_rsfd",
    workers: int = 1,
    cache: "CellStore | str | None" = None,
    executor: "Executor | None" = None,
    grid_info: dict | None = None,
) -> list[dict]:
    """Measure the attacker's AIF-ACC against RS+FD collections.

    The parameter grids of the three attack models follow Sec. 4.3: NK varies
    the number of synthetic profiles ``s``, PK the compromised fraction
    ``n_pk`` and HM pairs them index-wise (``(1n, 0.1n), (3n, 0.3n), ...``).
    """
    cells = plan_attribute_inference_rsfd(
        dataset_name=dataset_name,
        n=n,
        protocols=protocols,
        epsilons=epsilons,
        models=models,
        nk_factors=nk_factors,
        pk_fractions=pk_fractions,
        classifier_factory=classifier_factory,
        runs=runs,
        seed=seed,
        figure=figure,
    )
    return execute_plan(
        cells,
        postprocess_attribute_inference_rsfd,
        workers=workers,
        cache=cache,
        executor=executor,
        grid_info=grid_info,
    )
