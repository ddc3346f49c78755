"""Reference re-identification engine (the pre-incremental formulation).

This module preserves the original matching pipeline — one full
``match_distances`` pass per snapshot and the ``(block, m)`` float64 jitter +
``argpartition`` decision of :func:`~repro.attacks.reidentification.top_k_candidates`
— as the parity baseline for the incremental engine in
:mod:`repro.attacks.reidentification`, mirroring how ``tests/ml/tree_reference.py``
keeps the recursive tree builder.  Test-only: the package ships no oracles;
``benchmarks/bench_reident_matching.py`` puts this directory on ``sys.path``
to import it.

Equivalence contract (enforced by ``tests/attacks/test_reidentification_engine.py``
and ``benchmarks/bench_reident_matching.py``):

* wherever a user's true-record distance is **tie-free**, both engines make
  the same deterministic decision, so their RID-ACC values agree exactly;
* under ties the two engines consume different RNG streams (a jitter matrix
  here, one uniform draw per user there) but realize the *same* per-user hit
  probability, so their RID-ACC values are draws from the same distribution.

``evaluate_profiling`` here also retains the historical PK-RI behavior of
redrawing a fresh attribute subset at every snapshot when ``pk_attributes``
is ``None`` (the incremental engine draws one subset per evaluation by
default).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.profile import ProfilingResult
from repro.attacks.reidentification import (
    _BLOCK_SIZE,
    ReidentificationAttack,
    ReidentificationResult,
    match_distances,
    top_k_candidates,
)
from repro.exceptions import InvalidParameterError


class ReferenceReidentificationAttack(ReidentificationAttack):
    """Drop-in :class:`ReidentificationAttack` running the original engine."""

    def attack(
        self,
        profiles: np.ndarray,
        top_k: int = 1,
        background_attributes: Sequence[int] | None = None,
        true_ids: np.ndarray | None = None,
    ) -> ReidentificationResult:
        """Original pipeline: full distance matrix + jitter top-k per block."""
        profiles = np.asarray(profiles, dtype=np.int64)
        n = profiles.shape[0]
        m = self.background.n
        if true_ids is None:
            if n != m:
                raise InvalidParameterError(
                    "profiles and background have different sizes; pass true_ids explicitly"
                )
            true_ids = np.arange(n)
        else:
            true_ids = np.asarray(true_ids, dtype=np.int64)
            if true_ids.shape != (n,):
                raise InvalidParameterError(f"true_ids must have shape ({n},)")

        if background_attributes is None:
            background_columns = self.background.data
            attribute_indices = None
        else:
            attribute_indices = [int(a) for a in background_attributes]
            background_columns = self.background.data[:, attribute_indices]

        hits = 0
        for start in range(0, n, _BLOCK_SIZE):
            block = slice(start, min(start + _BLOCK_SIZE, n))
            distances = match_distances(
                profiles, background_columns, attribute_indices, block=block
            )
            candidates = top_k_candidates(distances, top_k, self._rng)
            hits += int((candidates == true_ids[block, None]).any(axis=1).sum())

        return ReidentificationResult(
            accuracy=hits / n,
            baseline=min(1.0, top_k / m),
            top_k=top_k,
            metadata={"model": "FK-RI" if background_attributes is None else "PK-RI"},
        )

    def evaluate_profiling(
        self,
        profiling: ProfilingResult,
        top_k: int = 1,
        model: str = "FK-RI",
        min_surveys: int = 2,
        pk_attributes: Sequence[int] | None = None,
        redraw_attributes: bool = True,
    ) -> dict[int, ReidentificationResult]:
        """Original per-snapshot loop: one full matching pass per survey.

        ``redraw_attributes`` is accepted for signature compatibility with
        the incremental engine but the reference always redraws (its
        historical behavior); passing ``False`` raises to avoid silently
        measuring a different adversary.
        """
        model = model.strip().upper().replace("_", "-")
        if model not in ("FK-RI", "PK-RI"):
            raise InvalidParameterError("model must be 'FK-RI' or 'PK-RI'")
        if not redraw_attributes and pk_attributes is None and model == "PK-RI":
            raise InvalidParameterError(
                "the reference engine always redraws PK-RI attributes; "
                "pass pk_attributes or use the incremental engine"
            )
        results: dict[int, ReidentificationResult] = {}
        for index, snapshot in enumerate(profiling.snapshots, start=1):
            if index < min_surveys:
                continue
            if model == "FK-RI":
                results[index] = self.full_knowledge(snapshot, top_k=top_k)
            else:
                results[index] = self.partial_knowledge(
                    snapshot, top_k=top_k, attributes=pk_attributes
                )
        return results
