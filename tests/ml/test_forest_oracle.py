"""Exact parity of the round-level forest grower with the per-tree oracle.

:func:`repro.ml.tree.grow_forest` grows every tree of a boosting round in
one stacked frontier; ``lockstep_oracle.grow_forest`` is the per-tree
grower it replaced.  Both issue the same histogram products with the same
weight matrices, and every other step is elementwise or a per-row argmax,
so the fitted node arrays, their dtypes, the level counts and the training
leaf ids must be equal bit for bit — including where gains tie.  Prediction
advances a round's trees together and must match a per-tree loop byte for
byte.
"""

import itertools

import numpy as np
import pytest

from lockstep_oracle import grow_forest as oracle_grow_forest
from repro.ml.gradient_boosting import GradientBoostingClassifier, softmax
import repro.ml.tree as tree_module
from repro.ml.tree import grow_forest


def forest_problem(seed, n_trees, tied, n=500, n_features=12):
    rng = np.random.default_rng(seed)
    features = (rng.random((n, n_features)) < rng.random(n_features) * 0.8 + 0.1).astype(
        np.float32
    )
    features[:, -1] = features[:, 0]  # a duplicate column: a guaranteed gain tie
    if tied:
        # piecewise-constant gradients and a constant hessian, as in the
        # first boosting round: many features induce equal gains
        gradients = rng.integers(-2, 3, size=(n, n_trees)) / 4.0
        hessians = np.full((n, n_trees), 0.1875)
    else:
        gradients = rng.normal(size=(n, n_trees))
        hessians = np.clip(rng.random((n, n_trees)), 1e-6, None)
    return features, gradients, hessians


NODE_ARRAYS = ("_feature", "_left", "_right", "_value", "_nav_left", "_nav_right")


def assert_identical(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


def assert_matches_oracle(features, gradients, hessians, **kwargs):
    trees, leaf_ids = grow_forest(features, gradients, hessians, **kwargs)
    want_trees, want_leaf_ids = oracle_grow_forest(features, gradients, hessians, **kwargs)
    assert len(trees) == len(want_trees) == gradients.shape[1]
    for tree, want, leaves, want_leaves in zip(trees, want_trees, leaf_ids, want_leaf_ids):
        for name in NODE_ARRAYS:
            assert_identical(getattr(tree, name), getattr(want, name))
        assert tree._levels == want._levels
        assert_identical(leaves, want_leaves)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
@pytest.mark.parametrize("max_depth", [1, 3, 4, 6])
@pytest.mark.parametrize("min_samples_leaf", [2, 10, 200])
def test_forest_matches_per_tree_oracle(seed, tied, max_depth, min_samples_leaf):
    for reg_lambda, n_trees in itertools.product([0, 1, 2.5], [1, 3, 7, 18]):
        assert_matches_oracle(
            *forest_problem(seed, n_trees, tied),
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
        )


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
def test_split_search_in_small_row_blocks_matches_oracle(monkeypatch, block_rows, tied):
    # a production block holds 16384 // 12 = 1365 rows here, more than any
    # frontier in this module; blocks of 1 and 3 rows (with a short last
    # block) run every block after the first
    for max_depth, n_trees in itertools.product([3, 6], [1, 7, 18]):
        features, gradients, hessians = forest_problem(max_depth, n_trees, tied)
        monkeypatch.setattr(
            tree_module, "_SCORE_BLOCK_ELEMENTS", block_rows * features.shape[1]
        )
        assert_matches_oracle(
            features, gradients, hessians, max_depth=max_depth, min_samples_leaf=2
        )


def test_min_samples_leaf_200_stops_below_the_root():
    # the grid's largest min_samples_leaf must stop trees early, not at once
    features, gradients, hessians = forest_problem(0, 3, tied=False)
    trees, _ = grow_forest(features, gradients, hessians, max_depth=6, min_samples_leaf=200)
    assert all(1 < tree._levels < 7 for tree in trees)


def test_empty_group_and_unsplittable_root():
    features, gradients, hessians = forest_problem(1, 2, tied=False, n=30)
    assert grow_forest(features, gradients[:, :0], hessians[:, :0]) == ([], [])
    trees, leaf_ids = grow_forest(features, gradients, hessians, min_samples_leaf=20)
    want_trees, want_leaf_ids = oracle_grow_forest(
        features, gradients, hessians, min_samples_leaf=20
    )
    for tree, want, leaves, want_leaves in zip(trees, want_trees, leaf_ids, want_leaf_ids):
        assert tree.node_count == want.node_count == 1
        assert_identical(tree._value, want._value)
        assert_identical(leaves, want_leaves)


def walk(tree, row):
    """Leaf of one row, following the plain ``feature/left/right`` arrays."""
    node = 0
    while tree._feature[node] >= 0:
        node = tree._right[node] if row[tree._feature[node]] > 0.5 else tree._left[node]
    return node


def per_tree_scores(model, features, leaves_of):
    scores = np.empty((features.shape[0], model.n_classes_))
    scores[:] = model._base_scores
    for round_trees in model._trees:
        for class_index, tree in enumerate(round_trees):
            leaves = leaves_of(tree, features)
            scores[:, class_index] += model.learning_rate * tree._value[leaves]
    return scores


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_round_prediction_matches_per_tree_loop(dtype):
    rng = np.random.default_rng(3)
    n, n_features, n_classes = 600, 20, 5
    labels = rng.integers(0, n_classes, size=n)
    features = (rng.random((n, n_features)) < 0.4).astype(dtype)
    for c in range(n_classes):
        features[labels == c, c] = 1.0
    model = GradientBoostingClassifier(
        n_estimators=8, max_depth=4, min_samples_leaf=5
    ).fit(features[:400], labels[:400])
    held_out = features[400:]
    got = model.predict_proba(held_out).tobytes()
    # each tree applied alone, and each row walked down each tree alone
    applied = per_tree_scores(model, held_out, lambda tree, x: tree.apply(x))
    walked = per_tree_scores(
        model, held_out, lambda tree, x: np.array([walk(tree, row) for row in x])
    )
    assert got == softmax(applied).tobytes() == softmax(walked).tobytes()
