"""Exact-parity oracle: the per-tree lockstep forest grower.

This is the grower :func:`repro.ml.tree.grow_forest` used before it grew
each boosting round as one stacked forest.  One ``_TreeGrower`` per tree
runs its own begin/scatter/finish pass per level; only the histogram
product is shared.  The fused grower must reproduce it bit for bit
(node arrays, dtypes, level counts and training leaf ids), which
``test_forest_oracle.py`` checks.  Test-only: the package ships no oracles.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.kernels import get_backend
from repro.ml.tree import BinaryFeatureRegressionTree, _validate_hyperparameters
from repro.ml.validation import validate_aligned_targets, validate_feature_matrix


class _TreeGrower:
    """Level-wise growth state of one tree inside a lockstep group.

    The group loop (:func:`grow_forest`) calls ``begin_level`` on every grower to
    learn how many weight columns it needs, builds one shared weight matrix,
    runs the single ``X^T W`` histogram product and hands each grower its
    column block via ``finish_level``.

    Two classic histogram tricks keep the per-level work small:

    * **sibling subtraction** — when both children of a split need
      histograms, only the smaller child's is computed; the sibling's is the
      parent's histogram minus it, so levels past the root scatter/multiply
      roughly half of the frontier's samples;
    * **derived totals** — each child's gradient/hessian/count totals are
      read off the parent's histogram at the chosen split feature (ones
      branch) or derived by subtraction (zeros branch), so no per-level
      ``bincount`` passes over the samples are needed.

    Counts are integer-valued and below 2**53, so every subtraction above is
    exact; gradient/hessian subtractions differ from direct summation only
    in floating-point rounding order.
    """

    def __init__(
        self,
        gradients: np.ndarray,
        hessians: np.ndarray,
        max_depth: int,
        min_samples_leaf: int,
        reg_lambda: float,
        min_gain: float,
    ) -> None:
        self.gradients = gradients
        self.hessians = hessians
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        n = gradients.shape[0]
        self.rows = np.arange(n)  # active samples (original row indices)
        self.slot = np.zeros(n, dtype=np.int64)  # frontier slot per active sample
        self.n_slots = 1
        # root totals are the only ones computed by direct summation
        self.grad_tot = np.asarray([gradients.sum()])
        self.hess_tot = np.asarray([hessians.sum()])
        self.count_tot = np.asarray([float(n)])
        # histograms of the previous level's splitting slots, (n_split, F)
        self.parent_hist: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.next_node = 1  # node 0 is the root
        self.frontier_first = 0  # node index of this level's first slot
        self.done = False
        # leaf node reached by every training sample, filled as samples are
        # retired; lets the boosting loop skip re-applying the tree to the
        # training matrix entirely
        self.leaf_of = np.empty(n, dtype=np.int32)
        self.feature_parts: list[np.ndarray] = []
        self.left_parts: list[np.ndarray] = []
        self.right_parts: list[np.ndarray] = []
        self.value_parts: list[np.ndarray] = []

    # -- per-level protocol --------------------------------------------------
    def begin_level(self, depth: int) -> int:
        """Leaf decisions + histogram planning; returns weight rows needed."""
        if self.done:
            return 0
        self.frontier_first = self.next_node - self.n_slots
        with np.errstate(divide="ignore", invalid="ignore"):
            self.leaf_value = -self.grad_tot / (self.hess_tot + self.reg_lambda)
        self.node_feature = np.full(self.n_slots, -1, dtype=np.int32)
        self.node_left = np.full(self.n_slots, -1, dtype=np.int32)
        self.node_right = np.full(self.n_slots, -1, dtype=np.int32)

        can_split = self.count_tot >= 2 * self.min_samples_leaf
        if depth >= self.max_depth or not can_split.any():
            self.leaf_of[self.rows] = self.frontier_first + self.slot
            self._emit_level()
            self.done = True
            return 0

        # drop samples sitting in slots that are already leaves (recording
        # their leaf) and renumber the remaining splittable slots compactly
        keep = can_split[self.slot]
        if not keep.all():
            dropped = self.rows[~keep]
            self.leaf_of[dropped] = self.frontier_first + self.slot[~keep]
        self.rows = self.rows[keep]
        sub_of_slot = np.cumsum(can_split) - 1
        self.sub = sub_of_slot[self.slot[keep]]
        self.n_sub = int(can_split.sum())
        self.can_split = can_split
        self.sub_of_slot = sub_of_slot
        self.grad_sub = self.grad_tot[can_split]
        self.hess_sub = self.hess_tot[can_split]
        self.count_sub = self.count_tot[can_split]

        # choose which splittable slots get a computed histogram: the root
        # always does; otherwise a slot computes unless its sibling is also
        # splittable and strictly smaller (ties computed on the left child),
        # in which case its histogram is derived as parent minus sibling
        slots = np.flatnonzero(can_split)
        if self.parent_hist is None:
            computed = np.ones(slots.size, dtype=bool)
        else:
            siblings = slots ^ 1
            sibling_splittable = can_split[siblings]
            own_count = self.count_tot[slots]
            sibling_count = self.count_tot[siblings]
            computed = ~sibling_splittable | (
                (own_count < sibling_count)
                | ((own_count == sibling_count) & (slots % 2 == 0))
            )
        self.computed = computed
        self.n_comp = int(computed.sum())
        # compact column index among computed slots, indexed by sub
        comp_of_sub = np.cumsum(computed) - 1
        self.comp_of_sub = comp_of_sub
        return 3 * self.n_comp

    def scatter(self, weights_t: np.ndarray, offset: int) -> None:
        """Write the ``(g, h, 1)`` row triples of computed slots.

        ``weights_t`` is the transposed ``(rows, n)`` weight buffer — one row
        per histogram column — so the per-sample writes land in a few
        contiguous rows instead of striding across a wide matrix.
        """
        if self.n_comp == self.n_sub:
            rows, comp = self.rows, self.sub
        else:
            mask = self.computed[self.sub]
            rows = self.rows[mask]
            comp = self.comp_of_sub[self.sub[mask]]
        if self.n_comp == 1 and rows.size == self.gradients.shape[0]:
            # root level: plain contiguous copies
            weights_t[offset] = self.gradients
            weights_t[offset + 1] = self.hessians
            weights_t[offset + 2] = 1.0
            return
        weights_t[offset + comp, rows] = self.gradients[rows]
        weights_t[offset + self.n_comp + comp, rows] = self.hessians[rows]
        weights_t[offset + 2 * self.n_comp + comp, rows] = 1.0

    def finish_level(self, hist: np.ndarray, features64: np.ndarray) -> None:
        """Assemble full histograms, pick splits and route the samples.

        ``hist`` is this tree's ``(3 * n_comp, F)`` block of the shared
        histogram product, one row per computed slot triple.
        """
        n_sub, n_comp = self.n_sub, self.n_comp
        feature_count = hist.shape[1]
        grad_ones = np.empty((n_sub, feature_count))
        hess_ones = np.empty((n_sub, feature_count))
        count_ones = np.empty((n_sub, feature_count))
        comp_sub = np.flatnonzero(self.computed)
        grad_ones[comp_sub] = hist[:n_comp]
        hess_ones[comp_sub] = hist[n_comp : 2 * n_comp]
        count_ones[comp_sub] = hist[2 * n_comp :]
        derived_sub = np.flatnonzero(~self.computed)
        if derived_sub.size:
            # parent minus (already-filled) computed sibling
            slots = np.flatnonzero(self.can_split)
            derived_slots = slots[derived_sub]
            sibling_sub = self.sub_of_slot[derived_slots ^ 1]
            pair = derived_slots // 2
            parent_grad, parent_hess, parent_count = self.parent_hist
            grad_ones[derived_sub] = parent_grad[pair] - grad_ones[sibling_sub]
            hess_ones[derived_sub] = parent_hess[pair] - hess_ones[sibling_sub]
            count_ones[derived_sub] = parent_count[pair] - count_ones[sibling_sub]

        grad_zeros = self.grad_sub[:, None] - grad_ones
        hess_zeros = self.hess_sub[:, None] - hess_ones
        count_zeros = self.count_sub[:, None] - count_ones

        # the parent score is constant per slot, so the argmax over features
        # only needs the children's score sum; the parent term re-enters in
        # the min_gain threshold below
        score_sum = self._score(grad_ones, hess_ones) + self._score(
            grad_zeros, hess_zeros
        )
        valid = (count_ones >= self.min_samples_leaf) & (
            count_zeros >= self.min_samples_leaf
        )
        score_sum = np.where(valid, score_sum, -np.inf)
        best_feature = np.argmax(score_sum, axis=1)  # first max wins, per slot
        arange_sub = np.arange(n_sub)
        best_gain = 0.5 * (
            score_sum[arange_sub, best_feature]
            - self._score(self.grad_sub, self.hess_sub)
        )
        split = np.isfinite(best_gain) & (best_gain >= self.min_gain)

        n_split = int(split.sum())
        if n_split:
            # children of the j-th splitting slot (in slot order) get the
            # next-frontier slots (2j, 2j+1) and consecutive node indices
            split_rank = np.cumsum(split) - 1
            split_slots = np.flatnonzero(self.can_split)[split]
            self.node_feature[split_slots] = best_feature[split]
            self.node_left[split_slots] = self.next_node + 2 * split_rank[split]
            self.node_right[split_slots] = self.next_node + 2 * split_rank[split] + 1
            self.next_node += 2 * n_split
        self._emit_level()

        # retire the samples of non-splitting slots at their (leaf) node
        keep = split[self.sub]
        if not keep.all():
            slots = np.flatnonzero(self.can_split)
            dropped = ~keep
            self.leaf_of[self.rows[dropped]] = (
                self.frontier_first + slots[self.sub[dropped]]
            )
        if not n_split:
            self.done = True
            return

        # next level's totals come straight off the split histograms: the
        # ones branch (right child) is the histogram at the split feature,
        # the zeros branch (left child) follows by subtraction
        split_sub = np.flatnonzero(split)
        split_feature = best_feature[split]
        arange_split = np.arange(n_split)
        right_grad = grad_ones[split_sub, split_feature]
        right_hess = hess_ones[split_sub, split_feature]
        right_count = count_ones[split_sub, split_feature]
        next_grad = np.empty(2 * n_split)
        next_hess = np.empty(2 * n_split)
        next_count = np.empty(2 * n_split)
        next_grad[2 * arange_split] = self.grad_sub[split_sub] - right_grad
        next_grad[2 * arange_split + 1] = right_grad
        next_hess[2 * arange_split] = self.hess_sub[split_sub] - right_hess
        next_hess[2 * arange_split + 1] = right_hess
        next_count[2 * arange_split] = self.count_sub[split_sub] - right_count
        next_count[2 * arange_split + 1] = right_count
        self.grad_tot, self.hess_tot, self.count_tot = next_grad, next_hess, next_count
        self.parent_hist = (
            grad_ones[split_sub],
            hess_ones[split_sub],
            count_ones[split_sub],
        )

        # route the samples of splitting slots to their children; each child
        # holds >= min_samples_leaf samples by the validity mask above
        self.rows = self.rows[keep]
        sub = self.sub[keep]
        goes_right = features64[self.rows, best_feature[sub]] > 0.5
        self.slot = 2 * split_rank[sub] + goes_right
        self.n_slots = 2 * n_split

    # -- helpers -------------------------------------------------------------
    def _emit_level(self) -> None:
        self.feature_parts.append(self.node_feature)
        self.left_parts.append(self.node_left)
        self.right_parts.append(self.node_right)
        self.value_parts.append(self.leaf_value)

    def _score(self, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """XGBoost-style structure score ``G^2 / (H + lambda)``."""
        denominator = hess + self.reg_lambda
        with np.errstate(divide="ignore", invalid="ignore"):
            value = grad * grad / denominator
        return np.where(denominator > 0, value, 0.0)

    def build_tree(
        self,
        max_depth: int,
        min_samples_leaf: int,
        reg_lambda: float,
        min_gain: float,
    ) -> BinaryFeatureRegressionTree:
        tree = BinaryFeatureRegressionTree(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
            min_gain=min_gain,
        )
        tree._adopt(
            np.concatenate(self.feature_parts),
            np.concatenate(self.left_parts),
            np.concatenate(self.right_parts),
            np.concatenate(self.value_parts),
            levels=len(self.feature_parts),
        )
        return tree


def grow_forest(
    features: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int = 4,
    min_samples_leaf: int = 10,
    reg_lambda: float = 1.0,
    min_gain: float = 1e-6,
) -> tuple[list[BinaryFeatureRegressionTree], list[np.ndarray]]:
    """Grow one tree per column of ``gradients``/``hessians`` in lockstep.

    All trees share the same ``(n, F)`` feature matrix; their per-level
    histograms are computed by a single ``X^T W`` product over the original
    matrix (one streaming pass over ``X`` per level for the whole group, no
    per-node row copies).  The boosting loop calls this with the ``(n,
    n_classes)`` gradient/hessian matrices of one round.

    Each returned tree is identical to fitting a
    :class:`BinaryFeatureRegressionTree` on its column alone.

    Returns ``(trees, leaf_ids)``, where ``leaf_ids[t]`` is the leaf node
    index each training row ends up in for tree ``t``.
    """
    features = validate_feature_matrix(features)
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    if gradients.ndim != 2 or hessians.ndim != 2:
        raise InvalidParameterError("gradients and hessians must be 2-D (n, n_trees)")
    if gradients.shape != hessians.shape:
        raise InvalidParameterError("gradients and hessians must have the same shape")
    validate_aligned_targets(features, gradients, hessians, names="gradients and hessians")
    _validate_hyperparameters(max_depth, min_samples_leaf, reg_lambda)
    # the histogram product accumulates in float64; binary features are exact
    # in float64, so this single conversion is the only copy of the feature
    # matrix made while growing the whole group
    features64 = np.asarray(features, dtype=np.float64)

    n = features64.shape[0]
    # one contiguous gradient/hessian vector per tree
    gradients_t = np.ascontiguousarray(gradients.T)
    hessians_t = np.ascontiguousarray(hessians.T)
    growers = [
        _TreeGrower(
            gradients_t[t],
            hessians_t[t],
            max_depth,
            min_samples_leaf,
            reg_lambda,
            min_gain,
        )
        for t in range(gradients_t.shape[0])
    ]
    weights_t = np.empty((0, n))  # reused transposed weight buffer
    for depth in range(max_depth + 1):
        rows_needed = [grower.begin_level(depth) for grower in growers]
        total = sum(rows_needed)
        if total == 0:
            break
        if weights_t.shape[0] < total:
            weights_t = np.empty((total, n))
        weights_t[:total] = 0.0
        offset = 0
        for grower, rows in zip(growers, rows_needed):
            if rows:
                grower.scatter(weights_t, offset)
            offset += rows
        hist = get_backend().histogram_product(weights_t[:total], features64)  # (total, F)
        offset = 0
        for grower, rows in zip(growers, rows_needed):
            if rows:
                grower.finish_level(hist[offset : offset + rows], features64)
            offset += rows
    trees = [
        grower.build_tree(max_depth, min_samples_leaf, reg_lambda, min_gain)
        for grower in growers
    ]
    return trees, [grower.leaf_of for grower in growers]
