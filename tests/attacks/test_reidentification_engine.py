"""Incremental matching engine vs the reference path (ISSUE 5).

Three layers of equivalence evidence:

* **property tests** — the count-based decision of
  :func:`repro.attacks.reidentification.count_topk_hits` agrees with the
  jitter + ``argpartition`` decision exactly on tie-free distance matrices,
  and realizes the same analytic hit probability under ties;
* **engine parity** — ``evaluate_profiling`` matches the reference engine
  exactly wherever the true-record distances are tie-free, and within
  binomial noise on real (tied) profilings;
* **regression pins** — scaled-down fig-2/fig-4 grids are pinned to exact
  row values, freezing the incremental engine's RNG stream and decisions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.profile import (
    ProfilingResult,
    SurveyDelta,
    build_profiles_smp,
    plan_surveys,
)
from repro.attacks.reidentification import (
    ReidentificationAttack,
    count_topk_hits,
    top_k_candidates,
)
from repro.core.dataset import TabularDataset
from repro.core.domain import Domain
from repro.exceptions import InvalidParameterError
from reidentification_reference import ReferenceReidentificationAttack


# --------------------------------------------------------------------------- #
# count-based decision vs jitter decision
# --------------------------------------------------------------------------- #
class TestCountDecisionTieFree:
    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=40),
        top_k=st.integers(min_value=1, max_value=45),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_top_k_candidates_exactly(self, n_rows, m, top_k, seed):
        """On per-row-distinct distances both decisions are deterministic."""
        rng = np.random.default_rng(seed)
        distances = np.stack([rng.permutation(m) for _ in range(n_rows)])
        true_ids = rng.integers(0, m, size=n_rows)
        counted = count_topk_hits(
            distances, true_ids, top_k, np.random.default_rng(seed + 1)
        )
        candidates = top_k_candidates(distances, top_k, np.random.default_rng(seed + 2))
        jittered = (candidates == true_ids[:, None]).any(axis=1)
        np.testing.assert_array_equal(counted, jittered)

    def test_validates_inputs(self):
        with pytest.raises(InvalidParameterError):
            count_topk_hits(np.zeros((2, 3)), np.zeros(2, dtype=int), 0, np.random.default_rng(0))
        with pytest.raises(InvalidParameterError):
            count_topk_hits(np.zeros(3), np.zeros(3, dtype=int), 1, np.random.default_rng(0))
        with pytest.raises(InvalidParameterError):
            count_topk_hits(np.zeros((2, 3)), np.zeros(3, dtype=int), 1, np.random.default_rng(0))


class TestCountDecisionUnderTies:
    #: (distances row, true_id, top_k, analytic hit probability)
    CASES = [
        ([0, 0, 0, 1, 1, 2], 1, 2, 2 / 3),  # 3-way tie at the true distance
        ([0, 0, 0, 1, 1, 2], 1, 1, 1 / 3),
        ([0, 1, 1, 1, 5, 5], 0, 1, 1.0),  # unique closest: deterministic hit
        ([0, 1, 1, 1, 5, 5], 4, 4, 0.0),  # too far: deterministic miss
        ([2, 0, 2, 2, 2, 2], 0, 3, 2 / 5),  # k slots left after 1 closer, 5 tied
    ]

    @pytest.mark.parametrize("row, true_id, top_k, probability", CASES)
    def test_hit_rate_matches_hypergeometric_law(self, row, true_id, top_k, probability):
        """Both deciders draw tie winners from the same law."""
        distances = np.asarray([row])
        true_ids = np.asarray([true_id])
        trials = 3000
        count_rng = np.random.default_rng(99)
        jitter_rng = np.random.default_rng(101)
        counted = sum(
            int(count_topk_hits(distances, true_ids, top_k, count_rng)[0])
            for _ in range(trials)
        )
        jittered = sum(
            int((top_k_candidates(distances, top_k, jitter_rng) == true_id).any())
            for _ in range(trials)
        )
        assert counted / trials == pytest.approx(probability, abs=0.045)
        assert jittered / trials == pytest.approx(probability, abs=0.045)
        if probability in (0.0, 1.0):
            assert counted == jittered  # deterministic cases agree exactly


# --------------------------------------------------------------------------- #
# evaluate_profiling: incremental vs reference engine
# --------------------------------------------------------------------------- #
@pytest.fixture
def tie_free_profiling():
    """Unique records revealed progressively: all true distances tie-free."""
    n = 60
    domain = Domain.from_sizes([n, n])
    values = np.stack([np.arange(n), np.arange(n)], axis=1)
    dataset = TabularDataset(domain, values)
    first = np.full((n, 2), -1, dtype=np.int64)
    first[:, 0] = values[:, 0]
    profiling = ProfilingResult.from_snapshots(
        [first, values.astype(np.int64)], surveys=[], metric="uniform"
    )
    return dataset, profiling


class TestEngineParity:
    def test_exact_equality_on_tie_free_profiling(self, tie_free_profiling):
        dataset, profiling = tie_free_profiling
        for top_k in (1, 3, 10):
            incremental = ReidentificationAttack(dataset, rng=0).evaluate_profiling(
                profiling, top_k=top_k, min_surveys=1
            )
            reference = ReferenceReidentificationAttack(dataset, rng=0).evaluate_profiling(
                profiling, top_k=top_k, min_surveys=1
            )
            assert incremental.keys() == reference.keys() == {1, 2}
            for surveys_done in incremental:
                assert (
                    incremental[surveys_done].accuracy
                    == reference[surveys_done].accuracy
                )

    def test_statistical_equivalence_on_tied_profiling(self, small_dataset):
        """Real profilings have ties; RID-ACC gaps stay at binomial noise."""
        surveys = plan_surveys(small_dataset.d, 4, rng=5, min_fraction=0.6)
        profiling = build_profiles_smp(
            small_dataset, surveys, protocol="GRR", epsilon=6.0, metric="uniform", rng=6
        )
        for top_k in (1, 10):
            incremental = ReidentificationAttack(small_dataset, rng=7).evaluate_profiling(
                profiling, top_k=top_k
            )
            reference = ReferenceReidentificationAttack(
                small_dataset, rng=7
            ).evaluate_profiling(profiling, top_k=top_k)
            for surveys_done in incremental:
                gap = abs(
                    incremental[surveys_done].accuracy
                    - reference[surveys_done].accuracy
                )
                assert gap < 0.1  # n=600: ~3.5 sigma of two-binomial noise

    def test_deltas_reverting_cells_to_unknown_stay_exact(self):
        """Regression: a delta may revert a cell to UNKNOWN (reachable via
        from_snapshots); the incremental update must drop the cell's
        contribution, not score the sentinel against the background."""
        n = 30
        domain = Domain.from_sizes([n, n])
        values = np.stack([np.arange(n), np.arange(n)], axis=1)
        dataset = TabularDataset(domain, values)
        full = values.astype(np.int64)
        forgotten = full.copy()
        forgotten[:, 1] = -1  # second survey forgets attribute 1
        profiling = ProfilingResult.from_snapshots(
            [full, forgotten], surveys=[], metric="uniform"
        )
        for top_k in (1, 5):
            incremental = ReidentificationAttack(dataset, rng=0).evaluate_profiling(
                profiling, top_k=top_k, min_surveys=1
            )
            reference = ReferenceReidentificationAttack(dataset, rng=0).evaluate_profiling(
                profiling, top_k=top_k, min_surveys=1
            )
            for surveys_done in reference:
                assert (
                    incremental[surveys_done].accuracy
                    == reference[surveys_done].accuracy
                )

    def test_distance_dtype_bound_guard_at_the_boundary(self):
        """Regression: a background wide enough to overflow the int16
        distance state must be rejected up front, not silently wrapped."""
        n = 4
        limit = int(np.iinfo(np.int16).max)

        def make(d):
            domain = Domain.from_sizes([2] * d)
            dataset = TabularDataset(domain, np.zeros((n, d), dtype=np.int64))
            delta = SurveyDelta(
                rows=np.arange(n, dtype=np.int64),
                attributes=np.zeros(n, dtype=np.int64),
                values=np.ones(n, dtype=np.int64),
            )
            profiling = ProfilingResult(
                deltas=[delta], shape=(n, d), surveys=[], metric="uniform"
            )
            return dataset, profiling

        dataset, profiling = make(limit)  # exactly at the bound: fine
        results = ReidentificationAttack(dataset, rng=0).evaluate_profiling(
            profiling, top_k=1, min_surveys=1
        )
        assert set(results) == {1}

        dataset, profiling = make(limit + 1)  # one column past it: rejected
        with pytest.raises(InvalidParameterError, match="overflow"):
            ReidentificationAttack(dataset, rng=0).evaluate_profiling(
                profiling, top_k=1, min_surveys=1
            )

    def test_min_surveys_beyond_horizon_returns_empty(self, tie_free_profiling):
        dataset, profiling = tie_free_profiling
        results = ReidentificationAttack(dataset, rng=0).evaluate_profiling(
            profiling, top_k=1, min_surveys=5
        )
        assert results == {}

    def test_incremental_engine_tags_metadata(self, tie_free_profiling):
        dataset, profiling = tie_free_profiling
        results = ReidentificationAttack(dataset, rng=0).evaluate_profiling(
            profiling, top_k=1, min_surveys=2
        )
        assert results[2].metadata["engine"] == "incremental"
        assert results[2].metadata["model"] == "FK-RI"

    def test_mismatched_background_size_rejected(self, tie_free_profiling):
        _, profiling = tie_free_profiling
        other = TabularDataset(
            Domain.from_sizes([60, 60]), np.zeros((10, 2), dtype=np.int64)
        )
        with pytest.raises(InvalidParameterError):
            ReidentificationAttack(other, rng=0).evaluate_profiling(profiling)


class TestPartialKnowledgeSubsets:
    def test_subset_drawn_once_per_evaluation(self, tie_free_profiling):
        """Default PK-RI holds one attribute subset across every snapshot, so
        repeating the evaluation with the same seed is fully deterministic."""
        dataset, profiling = tie_free_profiling
        first = ReidentificationAttack(dataset, rng=3).evaluate_profiling(
            profiling, top_k=1, model="PK-RI", min_surveys=1
        )
        second = ReidentificationAttack(dataset, rng=3).evaluate_profiling(
            profiling, top_k=1, model="PK-RI", min_surveys=1
        )
        assert {s: r.accuracy for s, r in first.items()} == {
            s: r.accuracy for s, r in second.items()
        }

    def test_full_subset_equals_full_knowledge(self, tie_free_profiling):
        """PK-RI over *all* attributes consumes the same stream as FK-RI."""
        dataset, profiling = tie_free_profiling
        partial = ReidentificationAttack(dataset, rng=4).evaluate_profiling(
            profiling, top_k=3, model="PK-RI", min_surveys=1,
            pk_attributes=range(dataset.d),
        )
        full = ReidentificationAttack(dataset, rng=4).evaluate_profiling(
            profiling, top_k=3, model="FK-RI", min_surveys=1
        )
        for surveys_done in full:
            assert partial[surveys_done].accuracy == full[surveys_done].accuracy
        assert partial[1].metadata["model"] == "PK-RI"

    def test_redraw_attributes_restores_per_snapshot_churn(self, tie_free_profiling):
        """The escape hatch draws a fresh subset per snapshot (legacy)."""
        dataset, profiling = tie_free_profiling
        redrawn = ReidentificationAttack(dataset, rng=5).evaluate_profiling(
            profiling, top_k=1, model="PK-RI", min_surveys=1, redraw_attributes=True
        )
        assert set(redrawn) == {1, 2}
        assert "engine" not in redrawn[1].metadata  # snapshot-by-snapshot path
        # deterministic under a fixed seed
        again = ReidentificationAttack(dataset, rng=5).evaluate_profiling(
            profiling, top_k=1, model="PK-RI", min_surveys=1, redraw_attributes=True
        )
        assert {s: r.accuracy for s, r in redrawn.items()} == {
            s: r.accuracy for s, r in again.items()
        }

    def test_reference_engine_rejects_fixed_subset_without_attributes(
        self, tie_free_profiling
    ):
        dataset, profiling = tie_free_profiling
        with pytest.raises(InvalidParameterError):
            ReferenceReidentificationAttack(dataset, rng=0).evaluate_profiling(
                profiling, model="PK-RI", redraw_attributes=False
            )


# --------------------------------------------------------------------------- #
# regression pins: scaled-down fig-2 / fig-4 quick grids
# --------------------------------------------------------------------------- #
class TestQuickGridPins:
    """Exact row pins freezing the incremental engine's RNG stream.

    The incremental engine consumes a different tie-break stream than the
    reference (one uniform per user instead of a jitter matrix), so these
    values differ from the pre-incremental rows wherever ties exist; they
    were verified statistically equivalent against the reference engine
    (``benchmarks/bench_reident_matching.py`` gates the same property in CI).
    """

    def test_fig2_quick_rows_pinned(self):
        from repro.experiments.reident_smp import run_reidentification_smp

        rows = run_reidentification_smp(
            dataset_name="adult",
            n=250,
            protocols=("GRR", "OUE"),
            epsilons=(2.0, 8.0),
            num_surveys=3,
            top_ks=(1, 10),
            seed=123,
            figure="fig2",
        )
        pinned = {
            ("GRR", 2.0, 2, 1): 3.2,
            ("GRR", 2.0, 3, 1): 6.4,
            ("GRR", 2.0, 2, 10): 20.0,
            ("GRR", 2.0, 3, 10): 28.4,
            ("GRR", 8.0, 2, 1): 25.6,
            ("GRR", 8.0, 3, 1): 51.6,
            ("GRR", 8.0, 2, 10): 74.4,
            ("GRR", 8.0, 3, 10): 94.4,
            ("OUE", 2.0, 2, 1): 1.2,
            ("OUE", 2.0, 3, 1): 3.2,
            ("OUE", 2.0, 2, 10): 12.4,
            ("OUE", 2.0, 3, 10): 18.4,
            ("OUE", 8.0, 2, 1): 11.2,
            ("OUE", 8.0, 3, 1): 12.4,
            ("OUE", 8.0, 2, 10): 34.8,
            ("OUE", 8.0, 3, 10): 43.2,
        }
        actual = {
            (row["protocol"], row["privacy_level"], row["surveys"], row["top_k"]):
            row["rid_acc_pct"]
            for row in rows
        }
        assert actual.keys() == pinned.keys()
        for key, expected in pinned.items():
            assert actual[key] == pytest.approx(expected), key

    def test_fig4_quick_rows_pinned(self):
        from repro.experiments.reident_rsfd import run_reidentification_rsfd

        rows = run_reidentification_rsfd(
            dataset_name="adult",
            n=300,
            epsilons=(4.0,),
            num_surveys=2,
            top_ks=(1, 10),
            seed=123,
            figure="fig4",
        )
        pinned = {(2, 1): 5 / 3, (2, 10): 11.0}
        actual = {(row["surveys"], row["top_k"]): row["rid_acc_pct"] for row in rows}
        assert actual.keys() == pinned.keys()
        for key, expected in pinned.items():
            assert actual[key] == pytest.approx(expected), key
