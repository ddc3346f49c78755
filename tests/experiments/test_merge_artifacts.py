"""Property tests for ``merge_artifacts`` (ISSUE 4, satellite 2).

Shard-count and merge-order invariance, duplicate-cell handling and the
missing-cell report that names the absent configs rather than raising a
bare ``KeyError``.  The artifacts are the per-shard mappings
``journal_artifacts`` reads back from a workspace's shard journal.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShardMergeError
from repro.experiments.grid import GridCell, cell_runner, run_grid
from repro.experiments.sharding import (
    journal_artifacts,
    merge_artifacts,
    plan_fingerprint,
    run_shard,
    workspace_store,
)


@cell_runner("_test_merge_echo")
def _merge_echo_cell(params, rng):
    return [{"value": params.get("value", 0), "draw": int(rng.integers(0, 10**9))}]


@cell_runner("_test_merge_numpy")
def _merge_numpy_cell(params, rng):
    import numpy as np

    # numpy scalars are legal runner output (the cell store coerces them too)
    return [{"value": np.int64(params.get("value", 0)), "acc": np.float64(0.5)}]


def _cells(values) -> list[GridCell]:
    return [
        GridCell(figure="f", runner="_test_merge_echo", params={"value": int(v)}, master_seed=5)
        for v in values
    ]


def _journaled(cells, shards, directory) -> list:
    """The per-shard artifacts of ``cells`` in ``directory``'s journal."""
    with workspace_store(directory) as store:
        return journal_artifacts(store, plan_fingerprint(cells), shards)


def _run_all_shards(cells, shards, directory) -> list:
    for shard_index in range(shards):
        run_shard(cells, shards, shard_index, directory)
    return _journaled(cells, shards, directory)


class TestMergeInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        n_cells=st.integers(min_value=1, max_value=12),
        shards=st.integers(min_value=1, max_value=5),
        order_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_shard_count_and_order_reassembles_the_plan(
        self, tmp_path_factory, n_cells, shards, order_seed
    ):
        cells = _cells(range(n_cells))
        reference = run_grid(cells).rows
        directory = tmp_path_factory.mktemp("shards")
        artifacts = _run_all_shards(cells, shards, directory)
        random.Random(order_seed).shuffle(artifacts)
        merged = merge_artifacts(cells, artifacts)
        assert merged.rows == reference

    def test_two_and_three_way_splits_merge_identically(self, tmp_path):
        cells = _cells(range(7))
        rows_by_split = {}
        for shards in (2, 3):
            directory = tmp_path / f"split-{shards}"
            merged = merge_artifacts(cells, _run_all_shards(cells, shards, directory))
            rows_by_split[shards] = merged.rows
        assert rows_by_split[2] == rows_by_split[3]

    def test_intra_shard_duplicates_counted_in_summary(self, tmp_path):
        """cells == computed + resumed + from_cache + deduplicated."""
        cells = _cells([1, 1, 2])  # duplicate work lands in shard 0 (1-shard)
        result = run_shard(cells, 1, 0, tmp_path)
        assert result.cells == 3
        assert result.deduplicated == 1
        assert result.computed + result.resumed + result.from_cache == 2

    def test_merge_is_idempotent_over_identical_duplicates(self, tmp_path):
        """Overlapping partials whose rows agree (e.g. a re-merge) are fine."""
        cells = _cells(range(4))
        artifacts = _run_all_shards(cells, 2, tmp_path)
        merged = merge_artifacts(cells, artifacts + artifacts)
        assert merged.rows == run_grid(cells).rows

    def test_summary_counts_sources(self, tmp_path):
        cells = _cells(range(4))
        merged = merge_artifacts(cells, _run_all_shards(cells, 2, tmp_path))
        summary = merged.summary()
        assert summary["cells"] == 4
        assert summary["computed"] == 4
        assert summary["missing"] == 0
        assert summary["plan_hash"] == plan_fingerprint(cells)

    def test_numpy_scalar_rows_survive_the_sharded_path(self, tmp_path):
        """Runners returning numpy scalars must serialize in the shard
        journal exactly like they do in the cell cache."""
        cells = [
            GridCell(figure="f", runner="_test_merge_numpy", params={"value": v})
            for v in range(3)
        ]
        merged = merge_artifacts(cells, _run_all_shards(cells, 2, tmp_path))
        assert merged.rows == [{"value": v, "acc": 0.5} for v in range(3)]

    def test_summary_counts_cache_served_cells(self, tmp_path):
        """Shards executed against a warm cache report from_cache correctly."""
        cells = _cells(range(4))
        cache = tmp_path / "cache"
        run_grid(cells, cache=cache)  # warm every cell
        for shard_index in range(2):
            run_shard(cells, 2, shard_index, tmp_path / "shards", cache=cache)
        summary = merge_artifacts(cells, _journaled(cells, 2, tmp_path / "shards")).summary()
        assert summary["from_cache"] == 4
        assert summary["computed"] == 0


class TestDuplicateRejection:
    def test_conflicting_duplicate_cell_rejected(self, tmp_path):
        cells = _cells(range(4))
        artifacts = _run_all_shards(cells, 2, tmp_path)
        # a second copy of shard 0 whose rows for one cell differ
        forged = copy.deepcopy(artifacts[0])
        forged["entries"][0]["rows"] = [{"value": -999, "draw": 0}]
        with pytest.raises(ShardMergeError, match="differing rows") as excinfo:
            merge_artifacts(cells, artifacts + [forged])
        assert excinfo.value.conflicting
        assert "_test_merge_echo" in excinfo.value.conflicting[0]


class TestMissingCellReport:
    def test_missing_shard_names_absent_configs(self, tmp_path):
        cells = _cells(range(5))
        run_shard(cells, 2, 0, tmp_path)  # shard 1 never ran
        artifacts = _journaled(cells, 2, tmp_path)
        try:
            merge_artifacts(cells, artifacts)
        except ShardMergeError as exc:
            message = str(exc)
            assert "absent" in message
            assert "_test_merge_echo" in message
            # shard 1 holds the odd plan positions
            assert len(exc.missing) == 2
            assert any('"value":1' in descriptor for descriptor in exc.missing)
            assert any('"value":3' in descriptor for descriptor in exc.missing)
        else:  # pragma: no cover - the merge must fail
            pytest.fail("incomplete merge did not raise")

    def test_missing_cells_never_raise_bare_keyerror(self, tmp_path):
        cells = _cells(range(3))
        with pytest.raises(ShardMergeError):
            merge_artifacts(cells, [])

    def test_foreign_plan_artifact_rejected(self, tmp_path):
        cells = _cells(range(3))
        others = _cells(range(10, 13))
        artifacts = _run_all_shards(others, 1, tmp_path)
        with pytest.raises(ShardMergeError, match="different plan"):
            merge_artifacts(cells, artifacts)

    def test_structurally_invalid_artifact_rejected(self, tmp_path):
        cells = _cells(range(2))
        with pytest.raises(ShardMergeError, match="lacks the 'plan_hash'"):
            merge_artifacts(cells, [{"entries": []}])
        valid = _run_all_shards(cells, 1, tmp_path)[0]
        with pytest.raises(ShardMergeError, match="lacks the 'entries'"):
            merge_artifacts(cells, [{"plan_hash": valid["plan_hash"]}])
        torn = copy.deepcopy(valid)
        del torn["entries"][0]["rows"]
        with pytest.raises(ShardMergeError, match="lacks 'config_hash' or 'rows'"):
            merge_artifacts(cells, [torn])


class TestJournalArtifacts:
    def test_one_artifact_per_shard_even_when_empty(self, tmp_path):
        cells = _cells(range(5))
        run_shard(cells, 3, 1, tmp_path)  # shards 0 and 2 never ran
        artifacts = _journaled(cells, 3, tmp_path)
        assert [artifact["shard_index"] for artifact in artifacts] == [0, 1, 2]
        assert [len(artifact["entries"]) for artifact in artifacts] == [0, 2, 0]
        assert all(artifact["plan_hash"] == plan_fingerprint(cells) for artifact in artifacts)
        assert artifacts[1]["path"].endswith("shards.sqlite#shard-1")

    def test_entries_follow_completion_order_within_a_shard(self, tmp_path):
        cells = _cells(range(6))
        run_shard(cells, 2, 0, tmp_path)
        (artifact,) = [a for a in _journaled(cells, 2, tmp_path) if a["entries"]]
        hashes = [entry["config_hash"] for entry in artifact["entries"]]
        assert hashes == [cells[position].config_hash for position in (0, 2, 4)]

    def test_other_plans_in_the_journal_are_not_included(self, tmp_path):
        cells = _cells(range(4))
        others = _cells(range(10, 14))
        run_shard(cells, 1, 0, tmp_path)
        run_shard(others, 1, 0, tmp_path)
        (artifact,) = _journaled(cells, 1, tmp_path)
        assert {entry["config_hash"] for entry in artifact["entries"]} == {
            cell.config_hash for cell in cells
        }
