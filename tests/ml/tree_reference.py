"""Recursive reference implementation of the binary-feature regression tree.

This is the original per-node recursive tree builder that
:class:`repro.ml.tree.BinaryFeatureRegressionTree` replaced with level-wise
histogram growth.  It is kept (unoptimized, one fancy-indexed row copy per
node) as the ground truth for

* the split-parity and golden-prediction tests in ``tests/ml``, and
* the recursive-vs-level-wise speedup measurement in
  ``benchmarks/bench_ml_training.py``, which puts this directory on
  ``sys.path`` to import it.

Both implementations choose splits by the same XGBoost-style gain formula
with first-max-feature tie-breaking, so they grow identical trees whenever
gains are untied (floating-point summation order is the only difference).
:func:`reference_grow_forest` is a drop-in for
:func:`repro.ml.tree.grow_forest` built from these trees.  Test-only: the
package ships no oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.ml.tree import BinaryFeatureRegressionTree
from repro.ml.validation import validate_aligned_targets, validate_feature_matrix


@dataclass
class _Node:
    """One node of the fitted tree (internal or leaf)."""

    feature: int = -1
    left: int = -1
    right: int = -1
    value: float = 0.0
    is_leaf: bool = True


class RecursiveBinaryFeatureRegressionTree:
    """Depth-limited regression tree grown by per-node recursion.

    Same objective, hyperparameters and split rule as
    :class:`repro.ml.tree.BinaryFeatureRegressionTree`; see that class for
    the parameter documentation.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-6,
    ) -> None:
        if max_depth < 1:
            raise InvalidParameterError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise InvalidParameterError("min_samples_leaf must be >= 1")
        if reg_lambda < 0:
            raise InvalidParameterError("reg_lambda must be non-negative")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        self._nodes: list[_Node] = []

    # ------------------------------------------------------------------ #
    def fit(
        self, features: np.ndarray, gradients: np.ndarray, hessians: np.ndarray
    ) -> "RecursiveBinaryFeatureRegressionTree":
        """Fit the tree to per-sample gradients and hessians."""
        features = validate_feature_matrix(features, dtype=np.float32)
        gradients = np.asarray(gradients, dtype=float).ravel()
        hessians = np.asarray(hessians, dtype=float).ravel()
        validate_aligned_targets(features, gradients, hessians, names="gradients and hessians")
        self._nodes = []
        all_rows = np.arange(features.shape[0])
        self._build(features, gradients, hessians, all_rows, depth=0)
        return self

    def _build(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        rows: np.ndarray,
        depth: int,
    ) -> int:
        """Recursively build the subtree for ``rows``; return its node index."""
        node_index = len(self._nodes)
        self._nodes.append(_Node())
        grad_total = float(gradients[rows].sum())
        hess_total = float(hessians[rows].sum())
        leaf_value = -grad_total / (hess_total + self.reg_lambda)

        if depth >= self.max_depth or rows.size < 2 * self.min_samples_leaf:
            self._nodes[node_index] = _Node(value=leaf_value, is_leaf=True)
            return node_index

        feature_block = features[rows]
        grad_ones = feature_block.T @ gradients[rows]
        hess_ones = feature_block.T @ hessians[rows]
        count_ones = feature_block.sum(axis=0)
        grad_zeros = grad_total - grad_ones
        hess_zeros = hess_total - hess_ones
        count_zeros = rows.size - count_ones

        def score(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
            denominator = hess + self.reg_lambda
            with np.errstate(divide="ignore", invalid="ignore"):
                value = grad * grad / denominator
            return np.where(denominator > 0, value, 0.0)

        gains = 0.5 * (
            score(grad_ones, hess_ones)
            + score(grad_zeros, hess_zeros)
            - score(np.asarray(grad_total), np.asarray(hess_total))
        )
        valid = (count_ones >= self.min_samples_leaf) & (count_zeros >= self.min_samples_leaf)
        gains = np.where(valid, gains, -np.inf)
        best_feature = int(np.argmax(gains))
        if not np.isfinite(gains[best_feature]) or gains[best_feature] < self.min_gain:
            self._nodes[node_index] = _Node(value=leaf_value, is_leaf=True)
            return node_index

        mask = feature_block[:, best_feature] > 0.5
        right_rows = rows[mask]
        left_rows = rows[~mask]
        left_index = self._build(features, gradients, hessians, left_rows, depth + 1)
        right_index = self._build(features, gradients, hessians, right_rows, depth + 1)
        self._nodes[node_index] = _Node(
            feature=best_feature,
            left=left_index,
            right=right_index,
            value=leaf_value,
            is_leaf=False,
        )
        return node_index

    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict the leaf value of every row of ``features``."""
        if not self._nodes:
            raise NotFittedError("tree is not fitted")
        features = validate_feature_matrix(features, dtype=np.float32)
        output = np.empty(features.shape[0], dtype=float)
        self._predict_node(0, features, np.arange(features.shape[0]), output)
        return output

    def _predict_node(
        self, node_index: int, features: np.ndarray, rows: np.ndarray, output: np.ndarray
    ) -> None:
        node = self._nodes[node_index]
        if node.is_leaf or rows.size == 0:
            output[rows] = node.value
            return
        mask = features[rows, node.feature] > 0.5
        self._predict_node(node.left, features, rows[~mask], output)
        self._predict_node(node.right, features, rows[mask], output)

    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return len(self._nodes)

    def structure(self) -> dict[str, np.ndarray]:
        """Canonical (breadth-first) structure, comparable across builders.

        Returns the same flat-array layout as
        :meth:`repro.ml.tree.BinaryFeatureRegressionTree.structure`, so the
        recursive (depth-first node numbering) and level-wise trees can be
        compared node for node.
        """
        feature, left, right, value = [], [], [], []
        queue = [0] if self._nodes else []
        order: list[int] = []
        while queue:
            index = queue.pop(0)
            order.append(index)
            node = self._nodes[index]
            if not node.is_leaf:
                queue.extend([node.left, node.right])
        renumber = {old: new for new, old in enumerate(order)}
        for index in order:
            node = self._nodes[index]
            feature.append(-1 if node.is_leaf else node.feature)
            left.append(-1 if node.is_leaf else renumber[node.left])
            right.append(-1 if node.is_leaf else renumber[node.right])
            value.append(node.value)
        return {
            "feature": np.asarray(feature, dtype=np.int32),
            "left": np.asarray(left, dtype=np.int32),
            "right": np.asarray(right, dtype=np.int32),
            "value": np.asarray(value, dtype=np.float64),
        }


def reference_grow_forest(
    features: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int = 4,
    min_samples_leaf: int = 10,
    reg_lambda: float = 1.0,
    min_gain: float = 1e-6,
) -> tuple[list[BinaryFeatureRegressionTree], list[np.ndarray]]:
    """:func:`repro.ml.tree.grow_forest` built from recursive trees.

    Fits one :class:`RecursiveBinaryFeatureRegressionTree` per column of
    ``gradients``/``hessians`` and installs its breadth-first
    :meth:`~RecursiveBinaryFeatureRegressionTree.structure` in a
    :class:`~repro.ml.tree.BinaryFeatureRegressionTree`, so the boosting loop
    and prediction run unchanged and only the tree substrate differs.  The
    training leaf ids come from ``apply``.
    """
    trees = []
    for column in range(gradients.shape[1]):
        recursive = RecursiveBinaryFeatureRegressionTree(
            max_depth, min_samples_leaf, reg_lambda, min_gain
        ).fit(features, gradients[:, column], hessians[:, column])
        nodes = recursive.structure()
        # breadth-first order: every parent precedes its children
        depth = np.zeros(nodes["feature"].size, dtype=np.int64)
        for parent in np.flatnonzero(nodes["feature"] >= 0):
            depth[nodes["left"][parent]] = depth[nodes["right"][parent]] = depth[parent] + 1
        tree = BinaryFeatureRegressionTree(max_depth, min_samples_leaf, reg_lambda, min_gain)
        tree._adopt(
            nodes["feature"], nodes["left"], nodes["right"], nodes["value"],
            levels=int(depth.max()) + 1,
        )
        trees.append(tree)
    return trees, [tree.apply(features) for tree in trees]
