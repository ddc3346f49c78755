"""Re-identification attacks (Sec. 3.2.4) — incremental matching engine.

Once the attacker holds an inferred profile ``y_i`` for every user (built by
:mod:`repro.attacks.profile`), the re-identification attack matches it
against a background-knowledge table ``D_BK`` of identified records:

* a **matching algorithm** ``R`` scores every candidate record by the number
  of inferred attributes on which it disagrees with the profile (Hamming
  distance restricted to inferred attributes);
* a **decision algorithm** ``G`` returns the ``top-k`` closest candidates
  (ties broken uniformly at random);
* the attack succeeds for a user whenever their own record is among the
  ``top-k`` candidates, and **RID-ACC** is the fraction of such users.

Two knowledge models are provided: **FK-RI** uses the full background table
and **PK-RI** only a random subset of its attributes.

Engine design
-------------
The RID-ACC-vs-#surveys curves (Figs. 2, 4, 9-13) evaluate the same matching
pipeline after every survey, but consecutive snapshots differ only in the
cells that survey actually wrote.  :meth:`ReidentificationAttack.evaluate_profiling`
therefore iterates **user blocks on the outside and snapshots on the
inside**: per block it maintains one integer distance matrix, updated per
survey from the profiling deltas alone (O(writes x m) instead of a full
O(block x d x m) recompute), and decides top-k membership with the exact
**count-based** rule of :func:`count_topk_hits` — a user's record is in the
top-k iff ``#strictly_closer + #winning_ties < k`` — which needs one uniform
draw per user instead of a ``(block, m)`` float64 jitter matrix and an
``argpartition`` pass.  The pre-incremental engine survives verbatim as a
test-only oracle under ``tests/attacks`` and is the parity baseline: both
engines agree exactly wherever the true record's distance is tie-free and
are distributionally identical under ties (per-user hit probabilities
coincide; only the tie-break RNG streams differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.dataset import TabularDataset
from ..core.rng import RngLike, ensure_rng
from ..exceptions import InvalidParameterError
from ..kernels import get_backend
from .profile import UNKNOWN, ProfilingResult, SurveyDelta

#: Default block size for chunked distance computation (bounds memory use).
_BLOCK_SIZE = 1024

#: Integer type of incrementally maintained distance matrices.  Distances
#: are bounded by the number of attributes (a few dozen), so 16 bits halve
#: the memory traffic of the per-block ``(block, m)`` matrix vs int32.
#: :func:`_validate_distance_bound` rejects backgrounds wide enough to
#: overflow it.
_DISTANCE_DTYPE = np.int16


def _validate_distance_bound(num_background_columns: int) -> None:
    """Reject backgrounds whose worst-case distance overflows the int16 state.

    The incremental engine accumulates per-user distances in
    :data:`_DISTANCE_DTYPE`; the worst case (every background attribute
    inferred and mismatching) equals the number of background columns, so
    anything past ``iinfo.max`` could silently wrap and corrupt RID-ACC.
    """
    limit = int(np.iinfo(_DISTANCE_DTYPE).max)
    if num_background_columns > limit:
        raise InvalidParameterError(
            f"background has {num_background_columns} columns but the "
            f"incremental engine tracks distances in "
            f"{np.dtype(_DISTANCE_DTYPE).name} (max {limit}); distances "
            "could overflow"
        )


def _distances_kernel(
    rows: np.ndarray,
    background: np.ndarray,
    background_attributes: Sequence[int],
    out_dtype=np.int32,
) -> np.ndarray:
    """Disagreement counts between pre-converted profile rows and records.

    Assumes ``rows`` and ``background`` are already int64 2-D arrays (the
    callers hoist that conversion out of their per-block loops).  The
    column loop lives in the active :mod:`repro.kernels` backend.
    """
    attributes = np.asarray(background_attributes, dtype=np.int64)
    distances = np.zeros((rows.shape[0], background.shape[0]), dtype=out_dtype)
    get_backend().distance_block(rows, background, attributes, UNKNOWN, distances)
    return distances


def match_distances(
    profiles: np.ndarray,
    background: np.ndarray,
    background_attributes: Sequence[int] | None = None,
    block: slice | None = None,
) -> np.ndarray:
    """Matching algorithm ``R``: disagreement counts between profiles and records.

    Parameters
    ----------
    profiles:
        ``(n, d)`` inferred-profile matrix with :data:`UNKNOWN` for attributes
        not inferred.
    background:
        ``(m, d_bk)`` background-knowledge records (integer codes).
    background_attributes:
        Global attribute index of each background column; defaults to
        ``0..d_bk-1`` (full-knowledge background).
    block:
        Optional slice restricting the profile rows scored by this call.

    Returns
    -------
    ``(len(block), m)`` matrix of distances: for each profile, the number of
    inferred attributes (present in the background) whose value differs from
    the candidate record's.
    """
    profiles = np.asarray(profiles, dtype=np.int64)
    background = np.asarray(background, dtype=np.int64)
    if profiles.ndim != 2 or background.ndim != 2:
        raise InvalidParameterError("profiles and background must be 2-D arrays")
    if background_attributes is None:
        background_attributes = list(range(background.shape[1]))
    background_attributes = [int(a) for a in background_attributes]
    if len(background_attributes) != background.shape[1]:
        raise InvalidParameterError(
            "background_attributes must have one entry per background column"
        )
    rows = profiles[block] if block is not None else profiles
    return _distances_kernel(rows, background, background_attributes)


def top_k_candidates(
    distances: np.ndarray, top_k: int, rng: np.random.Generator
) -> np.ndarray:
    """Decision algorithm ``G``: indices of the ``top_k`` closest candidates.

    Ties are broken uniformly at random by adding sub-integer jitter, which
    preserves the ordering between distinct (integer-valued) distances.  Both
    the distances and the jitter are taken in float64 explicitly, so a fixed
    seed selects the same candidates among equal-distance ties no matter
    which dtype the caller's distance matrix arrives in.
    """
    if top_k < 1:
        raise InvalidParameterError("top_k must be >= 1")
    distances = np.asarray(distances)
    jittered = distances.astype(np.float64, copy=False) + rng.random(
        distances.shape, dtype=np.float64
    )
    k = min(top_k, distances.shape[1])
    return np.argpartition(jittered, k - 1, axis=1)[:, :k]


def count_topk_hits(
    distances: np.ndarray,
    true_ids: np.ndarray,
    top_k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact count-based decision: is each row's true record in its top-k?

    With integer distances and uniformly random tie-breaking, row ``i``'s
    true record (column ``true_ids[i]``) lands in the top-k iff fewer than
    ``k`` candidates are strictly closer *and* the true record wins one of
    the ``k - #closer`` slots left for its tie group.  The tie group of size
    ``e`` (including the true record) fills those ``r`` slots with a uniform
    random subset, so the true record is selected with probability
    ``min(1, r / e)`` — the same hypergeometric law the jitter decision of
    :func:`top_k_candidates` realizes.  One ``count_less`` / ``count_equal``
    pass plus a single uniform draw per row replaces the ``(block, m)``
    float64 jitter matrix and the ``argpartition``; rows whose true distance
    is tie-free (``e == 1``) are decided deterministically, identically to
    the jitter path.
    """
    if top_k < 1:
        raise InvalidParameterError("top_k must be >= 1")
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise InvalidParameterError("distances must be a 2-D array")
    true_ids = np.asarray(true_ids, dtype=np.int64)
    n_rows, m = distances.shape
    if true_ids.shape != (n_rows,):
        raise InvalidParameterError(f"true_ids must have shape ({n_rows},)")
    true_distance = distances[np.arange(n_rows), true_ids][:, None]
    closer = (distances < true_distance).sum(axis=1)
    tied = (distances == true_distance).sum(axis=1)  # includes the true record
    remaining = min(top_k, m) - closer
    # u * e < r  <=>  hit with probability clip(r / e, 0, 1); exact for the
    # deterministic cases too (r <= 0 never hits, r >= e always does)
    return rng.random(n_rows) * tied < remaining


@dataclass
class ReidentificationResult:
    """Outcome of one re-identification attack.

    Attributes
    ----------
    accuracy:
        RID-ACC: fraction of users whose true identity is in their top-k set.
    baseline:
        Expected accuracy of random guessing: ``top_k / m``.
    top_k:
        Size of the candidate set.
    metadata:
        Attack configuration.
    """

    accuracy: float
    baseline: float
    top_k: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def lift(self) -> float:
        """Improvement over the random-guess baseline."""
        return self.accuracy / self.baseline if self.baseline > 0 else float("inf")


class ReidentificationAttack:
    """Matching-based re-identification with FK-RI / PK-RI knowledge models.

    Parameters
    ----------
    background:
        Background-knowledge dataset ``D_BK``.  Row ``i`` is assumed to be
        the identified record of user ``i`` (the paper uses the collected
        dataset itself as background knowledge).
    rng:
        Seed or generator (tie-breaking, PK-RI attribute selection).
    """

    def __init__(self, background: TabularDataset, rng: RngLike = None) -> None:
        self.background = background
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------ #
    def _background_columns(
        self, background_attributes: Sequence[int] | None
    ) -> tuple[np.ndarray, list[int]]:
        """Background submatrix and the global attribute of each column."""
        if background_attributes is None:
            attribute_indices = list(range(self.background.d))
            columns = self.background.data
        else:
            attribute_indices = [int(a) for a in background_attributes]
            columns = self.background.data[:, attribute_indices]
        return np.ascontiguousarray(columns, dtype=np.int64), attribute_indices

    def _resolve_true_ids(self, n: int, true_ids: np.ndarray | None) -> np.ndarray:
        if true_ids is None:
            if n != self.background.n:
                raise InvalidParameterError(
                    "profiles and background have different sizes; pass true_ids explicitly"
                )
            return np.arange(n)
        true_ids = np.asarray(true_ids, dtype=np.int64)
        if true_ids.shape != (n,):
            raise InvalidParameterError(f"true_ids must have shape ({n},)")
        return true_ids

    def attack(
        self,
        profiles: np.ndarray,
        top_k: int = 1,
        background_attributes: Sequence[int] | None = None,
        true_ids: np.ndarray | None = None,
    ) -> ReidentificationResult:
        """Run the matching + decision pipeline and compute RID-ACC.

        ``true_ids[i]`` is the background row that really corresponds to
        profile ``i`` (defaults to ``i``).
        """
        # hoisted conversions: profiles and the background submatrix are
        # turned into int64 arrays once, not once per block
        profiles = np.asarray(profiles, dtype=np.int64)
        if profiles.ndim != 2:
            raise InvalidParameterError("profiles and background must be 2-D arrays")
        n = profiles.shape[0]
        true_ids = self._resolve_true_ids(n, true_ids)
        background_columns, attribute_indices = self._background_columns(
            background_attributes
        )

        hits = 0
        for start in range(0, n, _BLOCK_SIZE):
            block = slice(start, min(start + _BLOCK_SIZE, n))
            distances = _distances_kernel(
                profiles[block], background_columns, attribute_indices
            )
            hits += int(
                count_topk_hits(distances, true_ids[block], top_k, self._rng).sum()
            )

        return ReidentificationResult(
            accuracy=hits / n,
            baseline=min(1.0, top_k / self.background.n),
            top_k=top_k,
            metadata={"model": "FK-RI" if background_attributes is None else "PK-RI"},
        )

    # ------------------------------------------------------------------ #
    def full_knowledge(self, profiles: np.ndarray, top_k: int = 1) -> ReidentificationResult:
        """FK-RI: match against every background attribute."""
        return self.attack(profiles, top_k=top_k, background_attributes=None)

    def _draw_pk_attributes(self, min_fraction: float = 0.5) -> list[int]:
        """Random PK-RI attribute subset of at least ``min_fraction * d``."""
        d = self.background.d
        lower = max(1, int(np.ceil(min_fraction * d)))
        size = int(self._rng.integers(lower, d + 1))
        return sorted(int(a) for a in self._rng.choice(d, size=size, replace=False))

    def partial_knowledge(
        self,
        profiles: np.ndarray,
        top_k: int = 1,
        attributes: Sequence[int] | None = None,
        min_fraction: float = 0.5,
    ) -> ReidentificationResult:
        """PK-RI: match against a random subset of the background attributes.

        When ``attributes`` is not given, a random subset containing at least
        ``min_fraction * d`` attributes is drawn (Appendix C setup).
        """
        if attributes is None:
            attributes = self._draw_pk_attributes(min_fraction)
        return self.attack(profiles, top_k=top_k, background_attributes=attributes)

    # ------------------------------------------------------------------ #
    def _apply_delta_block(
        self,
        profile_block: np.ndarray,
        distances: np.ndarray,
        start: int,
        stop: int,
        delta: SurveyDelta,
        background_columns: np.ndarray,
        column_of_attribute: np.ndarray,
    ) -> None:
        """Fold one survey's writes into a block's profile + distance state.

        Only the cells the delta touches inside ``[start, stop)`` are
        visited: for each rewritten cell the mismatch column of the new
        value is added and (when the cell was already inferred) the old
        value's mismatch column subtracted — an O(writes x m) update versus
        the O(block x d x m) full recompute of the reference engine.
        """
        selected = (delta.rows >= start) & (delta.rows < stop)
        if not selected.any():
            return
        rows = delta.rows[selected] - start
        attributes = delta.attributes[selected]
        values = delta.values[selected]
        for attribute in np.unique(attributes):
            group = attributes == attribute
            group_rows = rows[group]
            group_values = values[group]
            old_values = profile_block[group_rows, attribute]
            profile_block[group_rows, attribute] = group_values
            column = int(column_of_attribute[attribute])
            if column < 0:
                continue  # attribute outside the PK-RI background subset
            changed = old_values != group_values
            if not changed.any():
                continue
            group_rows = group_rows[changed]
            group_values = group_values[changed]
            old_values = old_values[changed]
            background_column = background_columns[:, column]
            # a delta may also *revert* a cell to UNKNOWN (e.g. via
            # from_snapshots); only real values contribute a mismatch column
            get_backend().distance_update(
                distances,
                group_rows,
                old_values,
                group_values,
                background_column,
                UNKNOWN,
            )

    def _incremental_profiling_hits(
        self,
        profiling: ProfilingResult,
        background_columns: np.ndarray,
        attribute_indices: Sequence[int],
        top_k: int,
        min_surveys: int,
    ) -> dict[int, int]:
        """Per-#surveys hit counts via the block-outer/snapshot-inner engine."""
        _validate_distance_bound(int(background_columns.shape[1]))
        n, d = profiling.shape
        num_surveys = len(profiling.deltas)
        column_of_attribute = np.full(d, -1, dtype=np.int64)
        for column, attribute in enumerate(attribute_indices):
            if attribute < d:
                column_of_attribute[attribute] = column
        hits = {s: 0 for s in range(max(1, min_surveys), num_surveys + 1)}
        if not hits:
            return hits  # nothing to evaluate: skip the block/delta replay
        for start in range(0, n, _BLOCK_SIZE):
            stop = min(start + _BLOCK_SIZE, n)
            profile_block = np.full((stop - start, d), UNKNOWN, dtype=np.int64)
            distances = np.zeros(
                (stop - start, background_columns.shape[0]), dtype=_DISTANCE_DTYPE
            )
            true_ids = np.arange(start, stop)
            for index, delta in enumerate(profiling.deltas, start=1):
                self._apply_delta_block(
                    profile_block,
                    distances,
                    start,
                    stop,
                    delta,
                    background_columns,
                    column_of_attribute,
                )
                if index >= min_surveys:
                    hit = count_topk_hits(distances, true_ids, top_k, self._rng)
                    hits[index] += int(hit.sum())
        return hits

    def evaluate_profiling(
        self,
        profiling: ProfilingResult,
        top_k: int = 1,
        model: str = "FK-RI",
        min_surveys: int = 2,
        pk_attributes: Sequence[int] | None = None,
        redraw_attributes: bool = False,
    ) -> dict[int, ReidentificationResult]:
        """RID-ACC after each number of surveys ``>= min_surveys``.

        Returns a mapping ``#surveys -> ReidentificationResult`` matching the
        per-curve structure of Figs. 2, 4 and 9-13, computed by the
        incremental block-outer/snapshot-inner engine (see the module
        docstring).

        Under ``model="PK-RI"`` with ``pk_attributes=None``, one random
        attribute subset is drawn and held fixed for the whole evaluation, so
        the curve isolates profile growth from knowledge churn.
        ``redraw_attributes=True`` restores the historical behavior of
        redrawing a fresh subset at every snapshot (each point then measures
        a *different* partial-knowledge adversary, conflating the two
        effects); it is evaluated snapshot-by-snapshot since a changing
        subset invalidates the incremental distance state.
        """
        model = model.strip().upper().replace("_", "-")
        if model not in ("FK-RI", "PK-RI"):
            raise InvalidParameterError("model must be 'FK-RI' or 'PK-RI'")
        if model == "PK-RI" and pk_attributes is None and redraw_attributes:
            results: dict[int, ReidentificationResult] = {}
            for index, snapshot in enumerate(profiling.snapshots, start=1):
                if index < min_surveys:
                    continue
                results[index] = self.partial_knowledge(snapshot, top_k=top_k)
            return results

        if model == "PK-RI":
            attributes = (
                self._draw_pk_attributes()
                if pk_attributes is None
                else [int(a) for a in pk_attributes]
            )
        else:
            attributes = None
        n, _ = profiling.shape
        if n != self.background.n:
            raise InvalidParameterError(
                "profiling and background have different numbers of users"
            )
        background_columns, attribute_indices = self._background_columns(attributes)
        hits = self._incremental_profiling_hits(
            profiling, background_columns, attribute_indices, top_k, min_surveys
        )
        baseline = min(1.0, top_k / self.background.n)
        return {
            index: ReidentificationResult(
                accuracy=count / n,
                baseline=baseline,
                top_k=top_k,
                metadata={"model": model, "engine": "incremental"},
            )
            for index, count in sorted(hits.items())
        }
