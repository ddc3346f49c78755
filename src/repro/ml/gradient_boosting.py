"""Multiclass gradient-boosted trees (XGBoost stand-in).

The paper's attribute-inference attack trains XGBoost with default parameters
on the RS+FD output tuples.  This module provides a compact, dependency-free
reimplementation of the relevant functionality: gradient boosting with a
softmax objective, one regression tree per class per round, second-order
gradients and shrinkage.  It is deliberately small but captures the signal
the attack exploits (systematic differences between the LDP report and the
fake data), which is what matters for reproducing the paper's orderings.

Hot-path layout: every round's ``n_classes`` trees are grown as one forest
by :func:`repro.ml.tree.grow_forest` (one bookkeeping pass and one
histogram product over the feature matrix per tree level for the whole
round), the feature matrix is converted to float64 exactly once per fit,
and prediction advances the ``n_classes`` trees of one round together with
:func:`repro.ml.tree.predict_round_into`, accumulating into a single score
buffer.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError, NotFittedError
from .tree import (
    BinaryFeatureRegressionTree,
    _validate_hyperparameters,
    feature_bits,
    grow_forest,
    predict_round_into,
)
from .validation import validate_feature_matrix, validate_labels


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""
    scores = np.asarray(scores, dtype=float)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostingClassifier:
    """Multiclass gradient boosting on binary features.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's output.
    max_depth, min_samples_leaf, reg_lambda:
        Passed to the base :class:`~repro.ml.tree.BinaryFeatureRegressionTree`.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        learning_rate: float = 0.3,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
    ) -> None:
        if n_estimators < 1:
            raise InvalidParameterError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise InvalidParameterError("learning_rate must be in (0, 1]")
        _validate_hyperparameters(max_depth, min_samples_leaf, reg_lambda)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self._trees: list[list[BinaryFeatureRegressionTree]] = []
        self._base_scores: np.ndarray | None = None
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GradientBoostingClassifier":
        """Fit the boosting ensemble on integer class labels."""
        # one float64 conversion shared by every tree of every round
        features = validate_feature_matrix(features, dtype=np.float64)
        labels, n_classes = validate_labels(features, labels)
        n_samples = features.shape[0]

        self.n_classes_ = n_classes
        self.n_features_in_ = features.shape[1]
        one_hot = np.zeros((n_samples, n_classes), dtype=float)
        one_hot[np.arange(n_samples), labels] = 1.0

        # start from the log class priors so the untrained model already
        # predicts the majority class
        class_priors = one_hot.mean(axis=0)
        class_priors = np.clip(class_priors, 1e-12, None)
        self._base_scores = np.log(class_priors)

        scores = np.tile(self._base_scores, (n_samples, 1))
        self._trees = []
        for _ in range(self.n_estimators):
            probabilities = softmax(scores)
            gradients = probabilities - one_hot
            hessians = np.clip(probabilities * (1.0 - probabilities), 1e-6, None)
            round_trees, leaf_ids = grow_forest(
                features,
                gradients,
                hessians,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            # growth already routed every training row to its leaf: the score
            # update is a plain gather, no re-application of the trees
            for class_index, (tree, leaves) in enumerate(zip(round_trees, leaf_ids)):
                scores[:, class_index] += self.learning_rate * tree._value[leaves]
            self._trees.append(round_trees)
        return self

    # ------------------------------------------------------------------ #
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw (pre-softmax) scores for every class.

        Accumulates every round's contribution into one ``(n, n_classes)``
        score buffer, one round at a time: the round's trees advance
        together.
        """
        if self._base_scores is None or self.n_classes_ is None:
            raise NotFittedError("classifier is not fitted")
        features = validate_feature_matrix(features)
        if features.shape[1] != self.n_features_in_:
            raise InvalidParameterError(
                f"features have {features.shape[1]} columns; "
                f"the classifier was fitted on {self.n_features_in_}"
            )
        scores = np.empty((features.shape[0], self.n_classes_), dtype=np.float64)
        scores[:] = self._base_scores
        # bits of the columns any tree tests, built once; only one round's
        # node indices are alive at once
        bits, bit_row = feature_bits(
            features, [tree for round_trees in self._trees for tree in round_trees]
        )
        for round_trees in self._trees:
            predict_round_into(round_trees, bits, bit_row, scores, self.learning_rate)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-membership probabilities."""
        return softmax(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per row."""
        return np.argmax(self.decision_function(features), axis=1)
