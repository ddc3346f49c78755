"""Attribute-inference attacks against RS+FD / RS+RFD (Sec. 3.3).

The RS+FD solution hides the ``epsilon``-LDP report among fake values.  The
attacks below train a multiclass classifier to recover which attribute each
user actually sampled, using three threat models that differ only in how the
labeled training set is built:

* **NK** (no knowledge) — the attacker aggregates the observed reports,
  estimates the attribute frequencies, samples ``s`` synthetic profiles from
  them, runs those through the very same client-side pipeline and uses the
  resulting (reports, sampled-attribute) pairs as training data;
* **PK** (partial knowledge) — the attacker knows the sampled attribute of
  ``n_pk`` compromised users and trains on their real reports;
* **HM** (hybrid) — the union of the two training sets above.

The attack quality is measured by AIF-ACC, the fraction of (non-compromised)
users whose sampled attribute is predicted correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from ..core.dataset import TabularDataset
from ..core.frequencies import FrequencyEstimate
from ..core.rng import RngLike, ensure_rng
from ..exceptions import InvalidParameterError
from ..ml.encoding import encode_reports
from ..ml.gradient_boosting import GradientBoostingClassifier
from ..multidim.base import MultidimReports
from ..multidim.rsfd import RSFD
from ..multidim.rsrfd import RSRFD


class SampledAttributeClassifier(Protocol):
    """Anything with scikit-learn style ``fit`` / ``predict``."""

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "SampledAttributeClassifier":
        ...  # pragma: no cover - protocol definition

    def predict(self, features: np.ndarray) -> np.ndarray:
        ...  # pragma: no cover - protocol definition


ClassifierFactory = Callable[[], SampledAttributeClassifier]


def default_classifier_factory() -> ClassifierFactory:
    """Factory for the default attack classifier (GBDT, XGBoost stand-in)."""

    def build() -> SampledAttributeClassifier:
        return GradientBoostingClassifier(
            n_estimators=25,
            learning_rate=0.3,
            max_depth=4,
            min_samples_leaf=20,
        )

    return build


@dataclass
class AttributeInferenceResult:
    """Outcome of one attribute-inference attack.

    Attributes
    ----------
    model:
        Attack model used: ``"NK"``, ``"PK"`` or ``"HM"``.
    accuracy:
        AIF-ACC on the test users.
    baseline:
        Random-guess baseline ``1/d``.
    predictions:
        Predicted sampled attribute of each test user.
    test_indices:
        Row indices (into the original collection) of the test users.
    metadata:
        Attack configuration (s, n_pk, protocol label, epsilon, ...).
    """

    model: str
    accuracy: float
    baseline: float
    predictions: np.ndarray
    test_indices: np.ndarray
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def lift(self) -> float:
        """Improvement factor of the attack over the random baseline."""
        return self.accuracy / self.baseline if self.baseline > 0 else float("inf")


class AttributeInferenceAttack:
    """Classifier-based attack that uncovers the sampled attribute.

    Parameters
    ----------
    solution:
        The RS+FD or RS+RFD solution instance the users employed (the
        attacker is assumed to know epsilon, protocol and fake-data variant).
    classifier_factory:
        Callable returning a fresh classifier; defaults to the gradient
        boosting stand-in for XGBoost.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        solution: RSFD | RSRFD,
        classifier_factory: ClassifierFactory | None = None,
        rng: RngLike = None,
    ) -> None:
        if not isinstance(solution, (RSFD, RSRFD)):
            raise InvalidParameterError(
                "the attribute-inference attack targets RS+FD or RS+RFD solutions"
            )
        self.solution = solution
        self._rng = ensure_rng(rng)
        self.classifier_factory = classifier_factory or default_classifier_factory()

    # ------------------------------------------------------------------ #
    # training-set builders
    # ------------------------------------------------------------------ #
    def synthetic_training_reports(
        self,
        reports: MultidimReports,
        num_profiles: int,
        estimates: Sequence[FrequencyEstimate] | None = None,
    ) -> MultidimReports:
        """NK training data: sanitized reports of synthetic profiles.

        The attacker estimates the attribute frequencies from the observed
        reports (or re-uses provided ``estimates``), samples ``num_profiles``
        synthetic users from them and runs the same RS+FD / RS+RFD pipeline.
        """
        if num_profiles <= 0:
            raise InvalidParameterError("num_profiles must be positive")
        if estimates is None:
            estimates = self.solution.estimate(reports)
        domain = self.solution.domain
        columns = []
        for j, estimate in enumerate(estimates):
            probabilities = estimate.normalized()
            columns.append(
                self._rng.choice(domain.size_of(j), size=num_profiles, p=probabilities)
            )
        synthetic = TabularDataset.from_columns(columns, domain, name="synthetic-profiles")
        return self.solution.collect(synthetic)

    # ------------------------------------------------------------------ #
    # attack models
    # ------------------------------------------------------------------ #
    def no_knowledge(
        self,
        reports: MultidimReports,
        synthetic_factor: float = 1.0,
        estimates: Sequence[FrequencyEstimate] | None = None,
    ) -> AttributeInferenceResult:
        """NK model: train only on synthetic profiles (Sec. 3.3.1)."""
        classifier = self.train_sampled_attribute_classifier(
            reports, synthetic_factor, estimates
        )
        return self._evaluate(
            "NK", reports, classifier, np.arange(reports.n),
            metadata={"s": synthetic_factor},
        )

    def partial_knowledge(
        self, reports: MultidimReports, compromised_fraction: float = 0.1
    ) -> AttributeInferenceResult:
        """PK model: train on compromised real profiles (Sec. 3.3.2)."""
        compromised, test_indices = self._split_compromised(reports, compromised_fraction)
        train_features = encode_reports(reports)[compromised]
        train_labels = reports.sampled[compromised]
        return self._run(
            "PK", reports, train_features, train_labels, test_indices,
            metadata={"n_pk": compromised_fraction},
        )

    def hybrid(
        self,
        reports: MultidimReports,
        synthetic_factor: float = 1.0,
        compromised_fraction: float = 0.1,
        estimates: Sequence[FrequencyEstimate] | None = None,
    ) -> AttributeInferenceResult:
        """HM model: synthetic profiles plus compromised profiles (Sec. 3.3.3)."""
        compromised, test_indices = self._split_compromised(reports, compromised_fraction)
        num_profiles = max(1, int(round(synthetic_factor * reports.n)))
        synthetic = self.synthetic_training_reports(reports, num_profiles, estimates)
        all_features = encode_reports(reports)
        train_features = np.vstack([encode_reports(synthetic), all_features[compromised]])
        train_labels = np.concatenate([synthetic.sampled, reports.sampled[compromised]])
        return self._run(
            "HM", reports, train_features, train_labels, test_indices,
            metadata={"s": synthetic_factor, "n_pk": compromised_fraction},
        )

    def run(self, model: str, reports: MultidimReports, **kwargs) -> AttributeInferenceResult:
        """Dispatch on the model name (``"NK"``, ``"PK"`` or ``"HM"``)."""
        model = model.strip().upper()
        if model == "NK":
            return self.no_knowledge(reports, **kwargs)
        if model == "PK":
            return self.partial_knowledge(reports, **kwargs)
        if model == "HM":
            return self.hybrid(reports, **kwargs)
        raise InvalidParameterError(f"unknown attack model {model!r}; expected NK/PK/HM")

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def train_sampled_attribute_classifier(
        self,
        reports: MultidimReports,
        synthetic_factor: float = 1.0,
        estimates: Sequence[FrequencyEstimate] | None = None,
    ) -> SampledAttributeClassifier:
        """Fit the NK classifier and return it for reuse.

        The training half of :meth:`no_knowledge` (which delegates here):
        synthetic-profile sampling, collection, classifier fit.  ``train`` +
        ``predict_sampled_attribute(..., classifier=...)`` is therefore
        byte-identical to one ``no_knowledge`` call.  The returned
        classifier can also be applied to *later* collections over the same
        domain — the amortization
        :func:`repro.attacks.profile.build_profiles_rsfd` uses across surveys
        sharing an attribute set.
        """
        if synthetic_factor <= 0:
            raise InvalidParameterError("synthetic_factor must be positive")
        num_profiles = max(1, int(round(synthetic_factor * reports.n)))
        training = self.synthetic_training_reports(reports, num_profiles, estimates)
        classifier = self.classifier_factory()
        classifier.fit(
            encode_reports(training), np.asarray(training.sampled, dtype=np.int64)
        )
        return classifier

    def predict_sampled_attribute(
        self,
        reports: MultidimReports,
        synthetic_factor: float = 1.0,
        estimates: Sequence[FrequencyEstimate] | None = None,
        classifier: SampledAttributeClassifier | None = None,
    ) -> np.ndarray:
        """NK-model predictions for every user (used when chaining attacks).

        A ``classifier`` previously fitted by
        :meth:`train_sampled_attribute_classifier` skips training entirely
        (``synthetic_factor`` / ``estimates`` are then ignored).
        """
        if classifier is not None:
            return np.asarray(classifier.predict(encode_reports(reports)), dtype=np.int64)
        result = self.no_knowledge(reports, synthetic_factor, estimates)
        return result.predictions

    def _split_compromised(
        self, reports: MultidimReports, fraction: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if not 0.0 < fraction < 1.0:
            raise InvalidParameterError("compromised_fraction must be in (0, 1)")
        count = max(1, int(round(fraction * reports.n)))
        if count >= reports.n:
            raise InvalidParameterError("compromised_fraction leaves no test users")
        permutation = self._rng.permutation(reports.n)
        return np.sort(permutation[:count]), np.sort(permutation[count:])

    def _run(
        self,
        model: str,
        reports: MultidimReports,
        train_features: np.ndarray,
        train_labels: np.ndarray,
        test_indices: np.ndarray,
        metadata: Mapping[str, object],
    ) -> AttributeInferenceResult:
        classifier = self.classifier_factory()
        classifier.fit(train_features, np.asarray(train_labels, dtype=np.int64))
        return self._evaluate(model, reports, classifier, test_indices, metadata)

    def _evaluate(
        self,
        model: str,
        reports: MultidimReports,
        classifier: SampledAttributeClassifier,
        test_indices: np.ndarray,
        metadata: Mapping[str, object],
    ) -> AttributeInferenceResult:
        if reports.sampled is None:
            raise InvalidParameterError(
                "reports carry no ground-truth sampled attribute; cannot evaluate the attack"
            )
        test_features = encode_reports(reports)[test_indices]
        predictions = np.asarray(classifier.predict(test_features), dtype=np.int64)
        truth = reports.sampled[test_indices]
        accuracy = float(np.mean(predictions == truth))
        return AttributeInferenceResult(
            model=model,
            accuracy=accuracy,
            baseline=1.0 / reports.d,
            predictions=predictions,
            test_indices=np.asarray(test_indices, dtype=np.int64),
            metadata={
                **metadata,
                "label": reports.extra.get("label", reports.solution),
                "epsilon": reports.epsilon,
                "n": reports.n,
            },
        )
