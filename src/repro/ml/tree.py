"""Regression trees on binary features for gradient boosting.

The attribute-inference attack of the paper trains an XGBoost multiclass
classifier.  This reproduction has no network access, so the classifier is
rebuilt from scratch: :class:`BinaryFeatureRegressionTree` is the base
learner of the gradient-boosting machine in
:mod:`repro.ml.gradient_boosting`.

All features are binary (the encoders in :mod:`repro.ml.encoding` produce
one-hot / indicator features), which makes the split search a single matrix
product: the gradient and hessian sums of the "feature == 1" branch of a
node are ``X^T (g * 1[sample in node])``.

Trees are grown **level-wise**: instead of recursing node by node (and
fancy-indexing a fresh copy of the feature block at every node, as the
recursive reference builder under ``tests/ml`` does), the builder keeps
one per-sample node-slot array and computes the gradient/hessian/count
histograms of *every* frontier node in a single ``X^T W`` product over the
original feature matrix, where ``W`` scatters ``(g, h, 1)`` into one column
triple per frontier node.  Best splits for the whole frontier are chosen at
once and samples are routed with boolean masks.

Because that product is memory-bound on streaming ``X`` (its cost barely
depends on the number of weight columns), :func:`grow_forest` grows many
trees over the same feature matrix as **one forest**: the boosting loop
builds all ``n_classes`` trees of a round together.  Their frontiers are one
set of stacked slot arrays with a tree-id column, and training samples are
one int32 ``tree * n + row`` index, so each level makes a single planning,
scatter, split-search and routing pass for the whole round and a single
histogram product.  Each level's ``W`` has exactly the rows a per-tree
grower would build — tree-major, and within each tree the g, h and count
blocks of its computed slots in slot order — because single-thread BLAS is
not row-independent bit for bit: permuting or chunking ``W``'s rows would
change the trees.  Root totals are one 1-D sum per tree; every other stacked
step is elementwise or a per-row ``argmax``, so the stacked pass gives the
same bits as running one grower per tree over the same histogram products.

Fitted trees are flat ``feature/left/right/value`` arrays in breadth-first
order, so prediction is an iterative batched node-index propagation with no
recursion and no per-sample dispatch; :func:`predict_round_into` advances
all trees of one round together.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError, NotFittedError
from ..kernels import get_backend
from .validation import validate_aligned_targets, validate_feature_matrix


def _validate_hyperparameters(
    max_depth: int, min_samples_leaf: int, reg_lambda: float
) -> None:
    if max_depth < 1:
        raise InvalidParameterError("max_depth must be >= 1")
    if min_samples_leaf < 1:
        raise InvalidParameterError("min_samples_leaf must be >= 1")
    if reg_lambda < 0:
        raise InvalidParameterError("reg_lambda must be non-negative")


def _navigation(
    feature: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    first_node: "np.ndarray | int" = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Child arrays in which leaves navigate to themselves.

    Batched propagation then needs no per-row "is this row done" check.
    ``first_node`` is each node's index offset: 0 for one tree, or the
    per-node start of its tree when several trees are stacked.
    """
    node_ids = (np.arange(feature.size) - first_node).astype(np.int32)
    internal = feature >= 0
    return (
        np.where(internal, left, node_ids).astype(np.int32),
        np.where(internal, right, node_ids).astype(np.int32),
    )


class BinaryFeatureRegressionTree:
    """Depth-limited regression tree over binary features, grown level-wise.

    The tree minimizes the second-order boosting objective: each leaf outputs
    ``-G / (H + reg_lambda)`` and splits are chosen by the usual XGBoost-style
    gain formula.  Splits, tie-breaking (first feature with the maximal gain)
    and stopping rules match the recursive reference builder, a test-only
    oracle under ``tests/ml``, exactly up to floating-point summation order.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum number of samples required in each child.
    reg_lambda:
        L2 regularization on leaf values.
    min_gain:
        Minimum gain required to split a node.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-6,
    ) -> None:
        _validate_hyperparameters(max_depth, min_samples_leaf, reg_lambda)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        # flat breadth-first node arrays; feature == -1 marks a leaf
        self._feature: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None
        # navigation copies with self-looping leaves (see ``apply``)
        self._nav_left: np.ndarray | None = None
        self._nav_right: np.ndarray | None = None
        self._levels = 0

    # ------------------------------------------------------------------ #
    def fit(
        self, features: np.ndarray, gradients: np.ndarray, hessians: np.ndarray
    ) -> "BinaryFeatureRegressionTree":
        """Fit the tree to per-sample gradients and hessians."""
        gradients = np.asarray(gradients, dtype=np.float64).ravel()
        hessians = np.asarray(hessians, dtype=np.float64).ravel()
        (fitted,), _ = grow_forest(
            features,
            gradients[:, None],
            hessians[:, None],
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            min_gain=self.min_gain,
        )
        self._adopt(
            fitted._feature, fitted._left, fitted._right, fitted._value,
            levels=fitted._levels,
            nav_left=fitted._nav_left,
            nav_right=fitted._nav_right,
        )
        return self

    def _adopt(
        self,
        feature: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        levels: int,
        nav_left: np.ndarray | None = None,
        nav_right: np.ndarray | None = None,
    ) -> None:
        """Install fitted flat node arrays and their navigation helpers.

        The navigation copies are derived here unless the caller already
        built them (the forest grower derives a whole round's at once).
        """
        self._feature = feature
        self._left = left
        self._right = right
        self._value = value
        self._levels = levels
        if nav_left is None or nav_right is None:
            nav_left, nav_right = _navigation(feature, left, right)
        self._nav_left = nav_left
        self._nav_right = nav_right

    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict the leaf value of every row of ``features``."""
        return self._value[self.apply(features)]

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row — iterative batched propagation.

        No recursion and no per-sample dispatch: every row's node index is
        advanced one level at a time with gather/where operations (see
        :func:`predict_round_into`).
        """
        if self._feature is None:
            raise NotFittedError("tree is not fitted")
        features = validate_feature_matrix(features)
        bits, bit_row = feature_bits(features, [self])
        return _round_leaves([self], bits, bit_row)[0].astype(np.int32)

    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return 0 if self._feature is None else int(self._feature.size)

    def structure(self) -> dict[str, np.ndarray]:
        """Flat breadth-first node arrays (``feature/left/right/value``).

        Leaves have ``feature == left == right == -1``.  The same layout is
        produced by the recursive reference tree, making structures directly
        comparable in the parity tests.
        """
        if self._feature is None:
            raise NotFittedError("tree is not fitted")
        return {
            "feature": self._feature.copy(),
            "left": self._left.copy(),
            "right": self._right.copy(),
            "value": self._value.copy(),
        }




# --------------------------------------------------------------------------- #
# round-level growth: every tree of the group in one stacked frontier
# --------------------------------------------------------------------------- #
#: Upper bound on the elements of each ``(rows, F)`` temporary of the split
#: search; the stacked frontier is scored in row blocks of this size, so the
#: search's scratch memory does not grow with the number of trees.
_SCORE_BLOCK_ELEMENTS = 16384


def _score(
    grad: np.ndarray,
    hess: np.ndarray,
    reg_lambda: float,
    out: np.ndarray | None = None,
    denominator: np.ndarray | None = None,
    not_positive: np.ndarray | None = None,
) -> np.ndarray:
    """XGBoost-style structure score ``G^2 / (H + lambda)``, 0 where
    ``H + lambda`` is not positive.

    ``out``, ``denominator`` and ``not_positive`` are optional scratch
    buffers of ``grad``'s shape (the last one boolean).
    """
    if out is None or denominator is None or not_positive is None:
        out, denominator = np.empty(grad.shape), np.empty(grad.shape)
        not_positive = np.empty(grad.shape, dtype=bool)
    np.add(hess, reg_lambda, out=denominator)
    np.multiply(grad, grad, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, denominator, out=out)
    np.greater(denominator, 0, out=not_positive)
    np.logical_not(not_positive, out=not_positive)
    np.copyto(out, 0.0, where=not_positive)
    return out


def _best_splits(
    grad_ones: np.ndarray,
    hess_ones: np.ndarray,
    count_ones: np.ndarray,
    grad_tot: np.ndarray,
    hess_tot: np.ndarray,
    count_tot: np.ndarray,
    min_samples_leaf: int,
    reg_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Best feature per frontier row and its children's score sum.

    Row ``i`` is one splittable node: ``*_ones`` hold its ``feature == 1``
    branch histograms and ``*_tot`` its totals, so the ``feature == 0``
    branch follows by subtraction.  Splits leaving fewer than
    ``min_samples_leaf`` samples on either side score ``-inf``; the first
    maximal feature wins.  Every operation is elementwise or a per-row
    ``argmax``, so scoring in row blocks gives the same bits as scoring
    the whole frontier at once.
    """
    n_rows, feature_count = grad_ones.shape
    block = max(1, min(n_rows, _SCORE_BLOCK_ELEMENTS // max(feature_count, 1)))
    ones_score = np.empty((block, feature_count))
    zeros_score = np.empty((block, feature_count))
    grad_zeros = np.empty((block, feature_count))
    hess_zeros = np.empty((block, feature_count))
    denominator = np.empty((block, feature_count))
    mask = np.empty((block, feature_count), dtype=bool)
    other_mask = np.empty((block, feature_count), dtype=bool)
    best_feature = np.empty(n_rows, dtype=np.intp)
    best_score = np.empty(n_rows)
    for start in range(0, n_rows, block):
        rows = slice(start, min(start + block, n_rows))
        size = rows.stop - start
        score_sum, scratch = ones_score[:size], zeros_score[:size]
        zeros_g, zeros_h = grad_zeros[:size], hess_zeros[:size]
        denom, invalid, other = denominator[:size], mask[:size], other_mask[:size]
        _score(grad_ones[rows], hess_ones[rows], reg_lambda, score_sum, denom, invalid)
        np.subtract(grad_tot[rows, None], grad_ones[rows], out=zeros_g)
        np.subtract(hess_tot[rows, None], hess_ones[rows], out=zeros_h)
        _score(zeros_g, zeros_h, reg_lambda, scratch, denom, invalid)
        np.add(score_sum, scratch, out=score_sum)
        count_zeros = np.subtract(count_tot[rows, None], count_ones[rows], out=zeros_g)
        np.greater_equal(count_ones[rows], min_samples_leaf, out=invalid)
        np.greater_equal(count_zeros, min_samples_leaf, out=other)
        np.logical_and(invalid, other, out=invalid)
        np.logical_not(invalid, out=invalid)
        np.copyto(score_sum, -np.inf, where=invalid)
        best = np.argmax(score_sum, axis=1)
        best_feature[rows] = best
        best_score[rows] = score_sum[np.arange(size), best]
    return best_feature, best_score


def grow_forest(
    features: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    max_depth: int = 4,
    min_samples_leaf: int = 10,
    reg_lambda: float = 1.0,
    min_gain: float = 1e-6,
) -> tuple[list[BinaryFeatureRegressionTree], list[np.ndarray]]:
    """Grow one tree per column of ``gradients``/``hessians`` as one forest.

    All trees share the same ``(n, F)`` feature matrix.  Their frontiers are
    stacked into one set of slot arrays with a tree-id column, so each level
    makes one planning, scatter, split-search and routing pass for the whole
    group, and one ``X^T W`` histogram product over the original matrix.
    The boosting loop calls this with the ``(n, n_classes)``
    gradient/hessian matrices of one round.

    Each returned tree is identical to fitting a
    :class:`BinaryFeatureRegressionTree` on its column alone.

    Returns ``(trees, leaf_ids)``, where ``leaf_ids[t]`` is the leaf node
    index each training row ends up in for tree ``t`` — a byproduct of
    routing that saves the boosting loop a full re-application of every
    tree to the training matrix.
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
    n, feature_count = features64.shape
    # routing reads one feature per sample: a flat gather is cheaper than
    # 2-D fancy indexing
    features_flat = features64.ravel()
    # one contiguous gradient/hessian vector per tree; a training sample of
    # tree t is addressed as ``t * n + row`` in the flattened views
    gradients_t = np.ascontiguousarray(gradients.T)
    hessians_t = np.ascontiguousarray(hessians.T)
    n_trees = gradients_t.shape[0]
    gradients_flat = gradients_t.reshape(-1)
    hessians_flat = hessians_t.reshape(-1)
    leaf_of = np.empty((n_trees, n), dtype=np.int32)
    leaf_flat = leaf_of.reshape(-1)

    # the stacked frontier: one entry per (tree, slot), trees in order and
    # each tree's slots contiguous.  From depth 1 on, the children of the
    # j-th splitting slot (counted over the whole forest) sit at slots
    # (2j, 2j+1), so ``slot ^ 1`` is the sibling and ``slot // 2`` the
    # parent's row in ``parent_hist``
    slot_tree = np.arange(n_trees)
    slot_node = np.zeros(n_trees, dtype=np.int64)  # node index within its tree
    # root totals are the only ones computed by direct summation, one 1-D
    # sum per tree
    grad_tot = np.asarray([column.sum() for column in gradients_t], dtype=np.float64)
    hess_tot = np.asarray([column.sum() for column in hessians_t], dtype=np.float64)
    count_tot = np.full(n_trees, float(n))
    next_node = np.ones(n_trees, dtype=np.int64)  # node 0 is every root
    # active samples as one ``tree * n + row`` index, and their slots
    member_dtype = np.int32 if max(n_trees, feature_count) * n < 2**31 else np.int64
    member = np.arange(n_trees * n, dtype=member_dtype)
    member_slot = np.repeat(np.arange(n_trees, dtype=member_dtype), n)
    # histograms of the previous level's splitting slots, (n_split, F)
    parent_hist: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    levels: list[tuple[np.ndarray, ...]] = []

    for depth in range(max_depth + 1):
        if slot_tree.size == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            leaf_value = -grad_tot / (hess_tot + reg_lambda)
        node_feature = np.full(slot_tree.size, -1, dtype=np.int32)
        node_left = np.full(slot_tree.size, -1, dtype=np.int32)
        node_right = np.full(slot_tree.size, -1, dtype=np.int32)
        levels.append((slot_tree, node_feature, node_left, node_right, leaf_value))

        can_split = count_tot >= 2 * min_samples_leaf
        if depth >= max_depth:
            can_split[:] = False
        # retire the samples of slots that are already leaves at their node
        keep = can_split[member_slot]
        if not keep.all():
            retired = ~keep
            leaf_flat[member[retired]] = slot_node[member_slot[retired]]
            member, member_slot = member[keep], member_slot[keep]
        if member.size == 0:
            break

        # splittable slots get compact "sub" numbers; choose which compute a
        # histogram: the roots always do; otherwise a slot computes unless
        # its sibling is also splittable and strictly smaller (ties computed
        # on the left child), and its histogram is parent minus sibling
        split_slots = np.flatnonzero(can_split)
        sub_of_slot = np.cumsum(can_split, dtype=member_dtype) - 1
        member_sub = sub_of_slot[member_slot]
        sub_tree = slot_tree[split_slots]
        grad_sub = grad_tot[split_slots]
        hess_sub = hess_tot[split_slots]
        count_sub = count_tot[split_slots]
        if parent_hist is None:
            computed = np.ones(split_slots.size, dtype=bool)
        else:
            siblings = split_slots ^ 1
            own_count = count_tot[split_slots]
            sibling_count = count_tot[siblings]
            computed = ~can_split[siblings] | (
                (own_count < sibling_count)
                | ((own_count == sibling_count) & (split_slots % 2 == 0))
            )

        # weight rows: tree-major, and within each tree the g, h and count
        # blocks of its computed slots in slot order.  BLAS results are not
        # row-independent bit for bit, so this layout is part of the contract
        comp_sub = np.flatnonzero(computed)
        comp_tree = sub_tree[comp_sub]
        n_comp = np.bincount(comp_tree, minlength=n_trees)
        comp_first = np.cumsum(n_comp) - n_comp
        grad_row = 2 * comp_first[comp_tree] + np.arange(comp_sub.size)
        hess_row = grad_row + n_comp[comp_tree]
        count_row = hess_row + n_comp[comp_tree]
        # each level's (transposed) weight matrix lives only until its
        # product is taken, so it never coexists with the split search
        if parent_hist is None:
            # roots: plain contiguous copies, one (g, h, 1) triple per tree
            weights = np.empty((3 * n_trees, n))
            blocks = weights.reshape(n_trees, 3, n)
            blocks[:, 0] = gradients_t
            blocks[:, 1] = hessians_t
            blocks[:, 2] = 1.0
        else:
            weights = np.zeros((3 * comp_sub.size, n))
            # flat offset of each computed slot's g row, and the distance
            # from there to its h row and from that to its count row
            g_offset = np.zeros(split_slots.size, dtype=np.int64)
            g_offset[comp_sub] = grad_row * n
            block_offset = n_comp[sub_tree] * n
            comp_members = computed[member_sub]
            scattered = member[comp_members]
            target_sub = member_sub[comp_members]
            target = g_offset[target_sub] + scattered % n
            step = block_offset[target_sub]
            weights_flat = weights.reshape(-1)
            weights_flat[target] = gradients_flat[scattered]
            target += step
            weights_flat[target] = hessians_flat[scattered]
            target += step
            weights_flat[target] = 1.0
        hist = get_backend().histogram_product(weights, features64)  # (rows, F)
        del weights

        grad_ones = np.empty((split_slots.size, feature_count))
        hess_ones = np.empty((split_slots.size, feature_count))
        count_ones = np.empty((split_slots.size, feature_count))
        grad_ones[comp_sub] = hist[grad_row]
        hess_ones[comp_sub] = hist[hess_row]
        count_ones[comp_sub] = hist[count_row]
        del hist
        derived_sub = np.flatnonzero(~computed)
        if derived_sub.size:
            # parent minus (already-filled) computed sibling
            derived_slots = split_slots[derived_sub]
            sibling_sub = sub_of_slot[derived_slots ^ 1]
            pair = derived_slots // 2
            parent_grad, parent_hess, parent_count = parent_hist
            grad_ones[derived_sub] = parent_grad[pair] - grad_ones[sibling_sub]
            hess_ones[derived_sub] = parent_hess[pair] - hess_ones[sibling_sub]
            count_ones[derived_sub] = parent_count[pair] - count_ones[sibling_sub]

        # the parent score is constant per slot, so the argmax over features
        # only needs the children's score sum; the parent term re-enters in
        # the min_gain threshold
        best_feature, best_score = _best_splits(
            grad_ones, hess_ones, count_ones, grad_sub, hess_sub, count_sub,
            min_samples_leaf, reg_lambda,
        )
        best_gain = 0.5 * (best_score - _score(grad_sub, hess_sub, reg_lambda))
        split = np.isfinite(best_gain) & (best_gain >= min_gain)

        # retire the samples of non-splitting slots at their (leaf) node
        keep = split[member_sub]
        if not keep.all():
            retired = ~keep
            leaf_flat[member[retired]] = slot_node[member_slot[retired]]
        split_sub = np.flatnonzero(split)
        n_split = split_sub.size
        if not n_split:
            break

        # children of a tree's j-th splitting slot get consecutive node
        # indices after the tree's last one
        parent_slots = split_slots[split_sub]
        split_tree = slot_tree[parent_slots]
        n_split_tree = np.bincount(split_tree, minlength=n_trees)
        split_first = np.cumsum(n_split_tree) - n_split_tree
        left_child = next_node[split_tree] + 2 * (np.arange(n_split) - split_first[split_tree])
        split_feature = best_feature[split_sub]
        node_feature[parent_slots] = split_feature
        node_left[parent_slots] = left_child
        node_right[parent_slots] = left_child + 1
        next_node += 2 * n_split_tree

        # next level's totals come straight off the split histograms: the
        # ones branch (right child) is the histogram at the split feature,
        # the zeros branch (left child) follows by subtraction
        right_grad = grad_ones[split_sub, split_feature]
        right_hess = hess_ones[split_sub, split_feature]
        right_count = count_ones[split_sub, split_feature]
        grad_tot = np.empty(2 * n_split)
        hess_tot = np.empty(2 * n_split)
        count_tot = np.empty(2 * n_split)
        grad_tot[0::2] = grad_sub[split_sub] - right_grad
        grad_tot[1::2] = right_grad
        hess_tot[0::2] = hess_sub[split_sub] - right_hess
        hess_tot[1::2] = right_hess
        count_tot[0::2] = count_sub[split_sub] - right_count
        count_tot[1::2] = right_count
        parent_hist = (grad_ones[split_sub], hess_ones[split_sub], count_ones[split_sub])
        del grad_ones, hess_ones, count_ones
        slot_tree = np.repeat(split_tree, 2)
        slot_node = np.empty(2 * n_split, dtype=np.int64)
        slot_node[0::2] = left_child
        slot_node[1::2] = left_child + 1

        # route the samples of splitting slots to their children; each child
        # holds >= min_samples_leaf samples by the validity mask
        member, member_sub = member[keep], member_sub[keep]
        split_rank = np.cumsum(split, dtype=member_dtype) - 1
        bit_index = member % n
        bit_index *= feature_count
        bit_index += best_feature[member_sub]
        goes_right = features_flat[bit_index] > 0.5
        member_slot = 2 * split_rank[member_sub] + goes_right

    trees = _unstack_trees(levels, n_trees, max_depth, min_samples_leaf, reg_lambda, min_gain)
    return trees, list(leaf_of)


def _unstack_trees(
    levels: list[tuple[np.ndarray, ...]],
    n_trees: int,
    max_depth: int,
    min_samples_leaf: int,
    reg_lambda: float,
    min_gain: float,
) -> list[BinaryFeatureRegressionTree]:
    """Split the stacked per-level node arrays into one tree per tree id.

    Within a tree, levels in order and slots in slot order are exactly its
    breadth-first node order.
    """
    if not n_trees:
        return []
    node_tree = np.concatenate([level[0] for level in levels])
    order = np.argsort(node_tree, kind="stable")
    sizes = np.bincount(node_tree, minlength=n_trees)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    feature, left, right, value = (
        np.concatenate([level[k] for level in levels])[order] for k in range(1, 5)
    )
    nav_left, nav_right = _navigation(feature, left, right, np.repeat(starts, sizes))
    level_counts = sum(
        np.bincount(level[0], minlength=n_trees) > 0 for level in levels
    )
    trees = []
    for t, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        nodes = slice(start, stop)
        tree = BinaryFeatureRegressionTree(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
            min_gain=min_gain,
        )
        tree._adopt(
            feature[nodes], left[nodes], right[nodes], value[nodes],
            levels=int(level_counts[t]),
            nav_left=nav_left[nodes],
            nav_right=nav_right[nodes],
        )
        trees.append(tree)
    return trees


def feature_bits(
    features: np.ndarray, trees: "list[BinaryFeatureRegressionTree]"
) -> tuple[np.ndarray, np.ndarray]:
    """The ``> 0.5`` bits of the columns ``trees`` test, and each column's row.

    Returns a C-contiguous ``(n_tested, n)`` boolean matrix holding
    ``features[:, column] > 0.5`` for every column some tree tests, in
    column order, and an ``(F,)`` index of each column's row in it (0 for
    untested columns, which no node reads).  Only the tested columns are
    transposed; the comparison is one streaming pass over ``features``.
    """
    feature_count = features.shape[1]
    tested = np.concatenate([tree._feature for tree in trees])
    columns = np.flatnonzero(np.bincount(tested[tested >= 0], minlength=feature_count))
    bit_row = np.zeros(feature_count, dtype=np.intp)
    bit_row[columns] = np.arange(columns.size)
    return (features > 0.5).T[columns], bit_row


def _round_leaves(
    trees: "list[BinaryFeatureRegressionTree]", bits: np.ndarray, bit_row: np.ndarray
) -> np.ndarray:
    """Node reached by every row in every tree, as ``(n_trees, n)`` indices
    into the trees' node arrays stacked in order.

    ``bits, bit_row`` is :func:`feature_bits` of the rows for these trees
    (or for a superset of them).  The navigation arrays are stacked with
    per-tree node offsets, so one node-index array advances every row of
    every tree one level per step; leaves navigate to themselves, so the
    deepest tree's level count bounds the steps.
    """
    sizes = [tree._feature.size for tree in trees]
    first = np.cumsum(sizes) - sizes
    offsets = np.repeat(first, sizes)
    feature = np.concatenate([tree._feature for tree in trees])
    # row of ``bits`` tested at each node (leaves keep a harmless 0)
    test_row = np.where(feature >= 0, bit_row[feature], 0)
    nav_left = np.concatenate([tree._nav_left for tree in trees]) + offsets
    nav_right = np.concatenate([tree._nav_right for tree in trees]) + offsets
    sample = np.arange(bits.shape[1])
    node = np.broadcast_to(first[:, None], (len(trees), sample.size))
    for _ in range(max(tree._levels for tree in trees) - 1):
        goes_right = bits[test_row[node], sample]
        node = np.where(goes_right, nav_right[node], nav_left[node])
    return node


def predict_round_into(
    trees: "list[BinaryFeatureRegressionTree]",
    bits: np.ndarray,
    bit_row: np.ndarray,
    out: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """Add ``scale * trees[t].predict(features)`` to ``out[:, t]`` for every tree.

    ``bits, bit_row`` is :func:`feature_bits` of the rows for these trees or
    a superset, shared by every call on them.  The boosting model calls
    this once per round: the round's trees advance together instead of one
    ``apply`` per tree.
    """
    value = np.concatenate([tree._value for tree in trees])
    out += (scale * value[_round_leaves(trees, bits, bit_row)]).T
    return out
