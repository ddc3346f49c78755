"""Tests for the multiclass gradient-boosting classifier."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.ml.gradient_boosting import GradientBoostingClassifier, softmax
from repro.ml.metrics import accuracy_score


def make_multiclass_problem(n=900, n_classes=3, seed=0):
    """Binary features where class c activates feature block c."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = rng.integers(0, 2, size=(n, 4 * n_classes)).astype(np.float32)
    for c in range(n_classes):
        mask = labels == c
        features[mask, 4 * c] = (rng.random(mask.sum()) < 0.9).astype(np.float32)
        features[~mask, 4 * c] = (rng.random((~mask).sum()) < 0.1).astype(np.float32)
    return features, labels


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_handles_large_scores(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestClassifier:
    def test_learns_separable_classes(self):
        features, labels = make_multiclass_problem()
        model = GradientBoostingClassifier(n_estimators=15, max_depth=3)
        model.fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.85

    def test_generalizes_to_held_out_rows(self):
        features, labels = make_multiclass_problem(n=1200)
        model = GradientBoostingClassifier(n_estimators=15, max_depth=3)
        model.fit(features[:900], labels[:900])
        assert accuracy_score(labels[900:], model.predict(features[900:])) > 0.8

    def test_predict_proba_is_distribution(self):
        features, labels = make_multiclass_problem(n=300)
        model = GradientBoostingClassifier(n_estimators=5)
        model.fit(features, labels)
        proba = model.predict_proba(features[:10])
        assert proba.shape == (10, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_beats_majority_class_on_imbalanced_data(self):
        rng = np.random.default_rng(1)
        n = 800
        labels = (rng.random(n) < 0.2).astype(np.int64)
        features = np.zeros((n, 4), dtype=np.float32)
        features[:, 0] = labels  # perfectly informative feature
        model = GradientBoostingClassifier(n_estimators=10)
        model.fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.95

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            GradientBoostingClassifier().predict(np.zeros((2, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidParameterError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(InvalidParameterError):
            GradientBoostingClassifier(learning_rate=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_depth=0), dict(min_samples_leaf=0), dict(reg_lambda=-0.5)],
        ids=["max_depth", "min_samples_leaf", "reg_lambda"],
    )
    def test_tree_hyperparameters_rejected_at_construction(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GradientBoostingClassifier(**kwargs)

    @pytest.mark.parametrize("width", [11, 13])
    def test_wrong_feature_width_rejected(self, width):
        features, labels = make_multiclass_problem(n=300)
        model = GradientBoostingClassifier(n_estimators=3).fit(features, labels)
        wrong = np.zeros((4, width), dtype=np.float32)
        for method in (model.predict, model.predict_proba, model.decision_function):
            with pytest.raises(InvalidParameterError, match="columns"):
                method(wrong)
        assert model.n_features_in_ == 12

    def test_single_class_rejected(self):
        with pytest.raises(InvalidParameterError):
            GradientBoostingClassifier().fit(np.zeros((10, 2)), np.zeros(10, dtype=int))


def test_fit_and_predict_do_not_import_numpy_ma():
    """``numpy.ma`` costs about 1 MiB of resident memory per process; some
    numpy helpers (e.g. ``np.unique`` without ``return_inverse``) import it.

    The probe pins the default NumPy kernels: what an optional compiled
    backend imports for itself is not the package's doing.
    """
    probe = (
        "import sys, numpy as np, repro; "
        "from repro.ml import GradientBoostingClassifier; "
        "rng = np.random.default_rng(0); "
        "x = (rng.random((200, 8)) < 0.5).astype(np.float32); "
        "y = rng.integers(0, 3, size=200); "
        "GradientBoostingClassifier(n_estimators=3).fit(x, y).predict_proba(x); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src, "REPRO_KERNEL_BACKEND": "numpy"},
    ).stdout.strip()
    assert loaded == "False"
