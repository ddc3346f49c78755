"""Executor-parity test suite.

For scaled-down Fig. 2 and Fig. 5 plans, the executors — serial, process
pool, threads and sharded (including shards executed as *separate*
invocations and merged in shuffled order) — must produce byte-identical
rows; and resuming a half-completed sharded run from the shard journal must
recompute only the missing cells.
"""

import json
import random

import pytest

from repro.exceptions import GridExecutionError, InvalidParameterError, ShardMergeError
from repro.experiments.grid import (
    CellStore,
    Executor,
    GridCell,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadedExecutor,
    cell_runner,
    resolve_executor,
    run_grid,
)
from repro.experiments.reident_smp import plan_reidentification_smp
from repro.experiments.sharding import (
    SHARD_DB_NAME,
    ShardedExecutor,
    journal_artifacts,
    merge_artifacts,
    plan_fingerprint,
    plan_workspace,
    run_shard,
    shard_positions,
    workspace_store,
    write_plan,
)
from repro.experiments.utility_rsrfd import plan_utility_rsrfd


def _canonical(rows: list[dict]) -> bytes:
    """Byte-level encoding of the rows (order-sensitive, full precision)."""
    return json.dumps(rows, sort_keys=True).encode("utf-8")


@cell_runner("_test_exec_echo")
def _exec_echo_cell(params, rng):
    return [{"value": params.get("value", 0), "draw": int(rng.integers(0, 10**9))}]


@cell_runner("_test_exec_boom")
def _exec_boom_cell(params, rng):
    raise RuntimeError("cell exploded")


@cell_runner("_test_exec_flaky")
def _exec_flaky_cell(params, rng):
    import os

    if not os.path.exists(params["marker"]):
        raise RuntimeError("flaky cell failed")
    return [{"value": "recovered"}]


def _journaled(cells, shards, directory) -> list:
    """The per-shard artifacts of ``cells`` in ``directory``'s journal."""
    with workspace_store(directory) as store:
        return journal_artifacts(store, plan_fingerprint(cells), shards)


def _echo_cells(count: int) -> list[GridCell]:
    return [
        GridCell(figure="f", runner="_test_exec_echo", params={"value": v}, master_seed=3)
        for v in range(count)
    ]


@pytest.fixture(scope="module")
def fig2_cells():
    """A scaled-down Fig. 2 grid (SMP re-identification on Adult)."""
    return plan_reidentification_smp(
        dataset_name="adult",
        n=250,
        protocols=("GRR", "OUE"),
        epsilons=(1.0, 8.0),
        num_surveys=3,
        top_ks=(1, 10),
        seed=123,
        figure="fig2",
    )


@pytest.fixture(scope="module")
def fig5_cells():
    """A scaled-down Fig. 5 grid (RS+RFD vs RS+FD utility on ACS)."""
    return plan_utility_rsrfd(
        dataset_name="acs_employment",
        n=300,
        protocols=("GRR", "OUE-r"),
        epsilons=(0.7, 1.9),
        prior_kinds=("correct",),
        seed=123,
        figure="fig5",
    )


@pytest.fixture(scope="module")
def fig2_serial_rows(fig2_cells):
    return run_grid(fig2_cells, executor=SerialExecutor()).rows


@pytest.fixture(scope="module")
def fig5_serial_rows(fig5_cells):
    return run_grid(fig5_cells, executor=SerialExecutor()).rows


class TestExecutorParity:
    def test_fig2_pool_matches_serial(self, fig2_cells, fig2_serial_rows):
        pool = run_grid(fig2_cells, executor=ProcessPoolExecutor(workers=4))
        assert _canonical(pool.rows) == _canonical(fig2_serial_rows)
        assert pool.rows  # non-degenerate

    def test_fig5_pool_matches_serial(self, fig5_cells, fig5_serial_rows):
        pool = run_grid(fig5_cells, executor=ProcessPoolExecutor(workers=4))
        assert _canonical(pool.rows) == _canonical(fig5_serial_rows)

    def test_fig2_threaded_matches_serial(self, fig2_cells, fig2_serial_rows):
        threaded = run_grid(fig2_cells, executor=ThreadedExecutor(workers=4))
        assert _canonical(threaded.rows) == _canonical(fig2_serial_rows)
        assert threaded.rows  # non-degenerate

    def test_fig5_threaded_matches_serial(self, fig5_cells, fig5_serial_rows):
        threaded = run_grid(fig5_cells, executor=ThreadedExecutor(workers=4))
        assert _canonical(threaded.rows) == _canonical(fig5_serial_rows)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fig2_sharded_invocations_merge_shuffled(
        self, fig2_cells, fig2_serial_rows, shards, tmp_path
    ):
        # each shard in its own invocation (the shard_worker code path) ...
        for shard_index in range(shards):
            run_shard(fig2_cells, shards, shard_index, tmp_path)
        artifacts = _journaled(fig2_cells, shards, tmp_path)
        assert len(artifacts) == shards
        # ... merged in shuffled order
        random.Random(shards).shuffle(artifacts)
        merged = merge_artifacts(fig2_cells, artifacts)
        assert _canonical(merged.rows) == _canonical(fig2_serial_rows)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_fig5_sharded_invocations_merge_shuffled(
        self, fig5_cells, fig5_serial_rows, shards, tmp_path
    ):
        for shard_index in range(shards):
            run_shard(fig5_cells, shards, shard_index, tmp_path)
        artifacts = _journaled(fig5_cells, shards, tmp_path)
        random.Random(shards).shuffle(artifacts)
        merged = merge_artifacts(fig5_cells, artifacts)
        assert _canonical(merged.rows) == _canonical(fig5_serial_rows)

    def test_fig2_inline_sharded_executor(self, fig2_cells, fig2_serial_rows):
        sharded = run_grid(fig2_cells, executor=ShardedExecutor(2, launch="inline"))
        assert _canonical(sharded.rows) == _canonical(fig2_serial_rows)
        assert sharded.computed == len(fig2_cells)

    def test_fig2_subprocess_sharded_executor(
        self, fig2_cells, fig2_serial_rows, tmp_path
    ):
        """The real thing: one shard_worker subprocess per shard, both
        journaling into the workspace's one database."""
        sharded = run_grid(
            fig2_cells,
            executor=ShardedExecutor(2, launch="subprocess", directory=tmp_path),
        )
        assert _canonical(sharded.rows) == _canonical(fig2_serial_rows)
        workspace = plan_workspace(tmp_path, fig2_cells)
        assert (workspace / SHARD_DB_NAME).exists()
        assert [path.name for path in workspace.glob("*.json")] == ["plan.json"]
        assert len(_journaled(fig2_cells, 2, workspace)[1]["entries"]) > 0


class TestResume:
    def test_rerun_resumes_every_completed_cell(self, fig2_cells, tmp_path):
        first = run_shard(fig2_cells, 2, 0, tmp_path)
        assert first.computed == first.cells and first.resumed == 0
        again = run_shard(fig2_cells, 2, 0, tmp_path)
        assert again.computed == 0
        assert again.resumed == first.cells

    def test_half_completed_run_recomputes_only_missing_cells(
        self, fig2_cells, fig2_serial_rows, tmp_path
    ):
        run_shard(fig2_cells, 2, 0, tmp_path)
        # simulate an interruption: drop one completed cell from the journal
        dropped = _journaled(fig2_cells, 2, tmp_path)[0]["entries"][-1]
        with workspace_store(tmp_path) as store:
            with store._conn:
                store._conn.execute(
                    "DELETE FROM shard_journal WHERE config_hash = ?",
                    (dropped["config_hash"],),
                )
        resumed = run_shard(fig2_cells, 2, 0, tmp_path)
        assert resumed.computed == 1  # only the dropped cell
        assert resumed.resumed == resumed.cells - 1
        # the finished run still merges byte-identically
        run_shard(fig2_cells, 2, 1, tmp_path)
        artifacts = _journaled(fig2_cells, 2, tmp_path)
        merged = merge_artifacts(fig2_cells, artifacts)
        assert _canonical(merged.rows) == _canonical(fig2_serial_rows)
        hashes = {entry["config_hash"] for entry in artifacts[0]["entries"]}
        assert dropped["config_hash"] in hashes

    def test_bounded_cache_keeps_the_workspace(self, tmp_path):
        """A bounded cache may evict merged cells, so the per-plan workspace
        must survive as the resume state."""
        cells = _echo_cells(4)
        root = tmp_path / "shards"
        run_grid(
            cells,
            executor=ShardedExecutor(
                2,
                launch="inline",
                directory=root,
                cache_dir=tmp_path / "cache",
                cache_max_entries=1,
            ),
        )
        assert list(root.iterdir())  # workspace kept
        warm = run_grid(
            cells,
            executor=ShardedExecutor(2, launch="inline", directory=root),
        )
        assert warm.resumed == 4

    def test_resumed_sharded_executor_reports_resumed_cells(self, tmp_path):
        cells = _echo_cells(5)
        executor = ShardedExecutor(2, directory=tmp_path, launch="inline")
        cold = run_grid(cells, executor=executor)
        assert cold.computed == 5 and cold.resumed == 0
        warm = run_grid(cells, executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        assert warm.resumed == 5 and warm.computed == 0
        assert _canonical(warm.rows) == _canonical(cold.rows)

    def test_shard_workers_share_the_cell_cache(self, tmp_path):
        """cache_dir hands every shard worker the shared cell store, so a
        later non-sharded run is served from cache."""
        cells = _echo_cells(5)
        cache_dir = tmp_path / "cache"
        run_grid(
            cells,
            executor=ShardedExecutor(2, launch="inline", cache_dir=cache_dir),
        )
        warm = run_grid(cells, cache=cache_dir)
        assert warm.from_cache == 5 and warm.computed == 0

    def test_warm_cache_hits_reported_as_from_cache_in_sharded_summary(self, tmp_path):
        """Worker-side cache hits must surface as from_cache, not computed."""
        cells = _echo_cells(4)
        cache_dir = tmp_path / "cache"
        run_grid(cells, cache=cache_dir)  # warm every cell
        warm = run_grid(
            cells,
            executor=ShardedExecutor(
                2, launch="inline", directory=tmp_path / "shards", cache_dir=cache_dir
            ),
        )
        assert warm.from_cache == 4
        assert warm.computed == 0

    def test_successful_cached_run_prunes_its_workspace(self, tmp_path):
        """With a shared cache holding the results, the per-plan workspace
        is redundant and gets pruned; without one it is kept for resume."""
        cells = _echo_cells(3)
        root, cache_dir = tmp_path / "shards", tmp_path / "cache"
        run_grid(
            cells,
            executor=ShardedExecutor(
                2, launch="inline", directory=root, cache_dir=cache_dir
            ),
        )
        assert list(root.iterdir()) == []  # workspace pruned
        warm = run_grid(cells, cache=cache_dir)
        assert warm.from_cache == 3  # the cache took over the resume role

    def test_parent_and_workers_sharing_one_cache_is_coherent(self, tmp_path):
        """The CLI wiring: run_grid and the shard workers use the same cache
        directory (the parent skips its redundant puts)."""
        cells = _echo_cells(5)
        cache_dir = tmp_path / "cache"
        cold = run_grid(
            cells,
            cache=cache_dir,
            executor=ShardedExecutor(2, launch="inline", cache_dir=cache_dir),
        )
        assert cold.computed == 5
        warm = run_grid(cells, cache=cache_dir)
        assert warm.from_cache == 5 and warm.computed == 0
        assert _canonical(warm.rows) == _canonical(cold.rows)

    def test_interrupted_sharded_run_keeps_completed_work_in_the_cache(self, tmp_path):
        """Shard 1 fails, but shard 0's cells survive via the shared cache."""
        cells = _echo_cells(4) + [
            GridCell(figure="f", runner="_test_exec_boom", params={}, master_seed=3)
        ]
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid(
                cells,
                executor=ShardedExecutor(
                    2, launch="inline", directory=tmp_path / "shards", cache_dir=cache_dir
                ),
            )
        retry = run_grid(_echo_cells(4), cache=cache_dir)
        assert retry.from_cache > 0
        assert retry.from_cache + retry.computed == 4

    def test_persistent_directory_serves_many_plans(self, tmp_path):
        """One shard root can host different grids (benchmark sweeps): each
        plan gets its own fingerprint-named workspace instead of colliding."""
        first = run_grid(_echo_cells(4), executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        second = run_grid(_echo_cells(6), executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        assert first.computed == 4 and second.computed == 6
        # re-running the first plan resumes from its own workspace
        again = run_grid(_echo_cells(4), executor=ShardedExecutor(2, directory=tmp_path, launch="inline"))
        assert again.resumed == 4
        assert _canonical(again.rows) == _canonical(first.rows)

    def test_changed_pending_subset_does_not_collide(self, tmp_path):
        """Cache hits shrink the executor's pending set; the smaller plan
        must start a fresh workspace, not clash with the full-plan one."""
        cells = _echo_cells(6)
        executor = lambda: ShardedExecutor(2, directory=tmp_path / "shards", launch="inline")
        run_grid(cells, executor=executor())
        cache = tmp_path / "cache"
        run_grid(cells[:2], cache=cache)  # warm the cache for two cells
        warm = run_grid(cells, cache=cache, executor=executor())
        assert warm.from_cache == 2 and warm.computed == 4
        assert _canonical(warm.rows) == _canonical(run_grid(cells).rows)

    def test_plans_sharing_a_directory_journal_independently(self, tmp_path):
        """The journal is keyed by plan fingerprint, so a different plan run
        in the same directory neither resumes nor disturbs the first one."""
        first = run_shard(_echo_cells(4), 2, 0, tmp_path)
        other = run_shard(_echo_cells(5), 2, 0, tmp_path)
        assert other.resumed == 0 and other.computed == other.cells
        again = run_shard(_echo_cells(4), 2, 0, tmp_path)
        assert again.resumed == first.cells and again.computed == 0

    def test_plan_file_of_other_plan_rejected(self, tmp_path):
        write_plan(tmp_path, _echo_cells(4), shards=2)
        write_plan(tmp_path, _echo_cells(4), shards=2)  # idempotent
        with pytest.raises(InvalidParameterError, match="different plan"):
            write_plan(tmp_path, _echo_cells(5), shards=2)


class TestShardJournal:
    """run_shard / ShardedExecutor journal into one WAL-mode workspace
    database; resume state is a journal query."""

    def test_shards_journal_into_one_database(self, tmp_path):
        cells = _echo_cells(5)
        for shard_index in range(2):
            result = run_shard(cells, 2, shard_index, tmp_path)
            assert result.path == tmp_path / SHARD_DB_NAME
        assert [path.name for path in tmp_path.iterdir()] == [SHARD_DB_NAME]
        artifacts = _journaled(cells, 2, tmp_path)
        merged = merge_artifacts(cells, artifacts)
        assert _canonical(merged.rows) == _canonical(run_grid(cells).rows)

    def test_rerun_resumes_from_the_journal(self, tmp_path):
        cells = _echo_cells(5)
        first = run_shard(cells, 2, 0, tmp_path)
        assert first.computed == first.cells and first.resumed == 0
        again = run_shard(cells, 2, 0, tmp_path)
        assert again.computed == 0
        assert again.resumed == first.cells

    def test_killed_invocation_keeps_journaled_cells(self, tmp_path):
        marker = tmp_path / "marker"
        cells = _echo_cells(3) + [
            GridCell(
                figure="f",
                runner="_test_exec_flaky",
                params={"marker": str(marker)},
                master_seed=3,
            )
        ]
        with pytest.raises(RuntimeError, match="flaky cell failed"):
            run_shard(cells, 1, 0, tmp_path)
        store = workspace_store(tmp_path)
        journaled = store.journal_entries(plan_fingerprint(cells))
        store.close()
        assert len(journaled) == 3  # the echo cells committed per completion
        marker.touch()
        second = run_shard(cells, 1, 0, tmp_path)
        assert second.resumed == 3
        assert second.computed == 1

    def test_no_resume_clears_only_this_shards_rows(self, tmp_path):
        cells = _echo_cells(6)
        run_shard(cells, 2, 0, tmp_path)
        run_shard(cells, 2, 1, tmp_path)
        forced = run_shard(
            cells, 2, 0, tmp_path, resume=False
        )
        assert forced.computed == forced.cells and forced.resumed == 0
        # shard 1's journal rows survived the forced recompute of shard 0
        other = run_shard(cells, 2, 1, tmp_path)
        assert other.resumed == other.cells

    def test_inline_sharded_executor_with_cache(self, tmp_path):
        cells = _echo_cells(5)
        result = run_grid(
            cells,
            executor=ShardedExecutor(
                2,
                launch="inline",
                directory=tmp_path / "shards",
                cache_dir=tmp_path / "cache",
            ),
        )
        assert _canonical(result.rows) == _canonical(run_grid(cells).rows)
        # the shared cell store serves a later non-sharded run
        warm = run_grid(cells, cache=tmp_path / "cache")
        assert warm.from_cache == 5 and warm.computed == 0

    def test_resumed_entries_match_the_original_rows(self, tmp_path):
        cells = _echo_cells(4)
        run_shard(cells, 1, 0, tmp_path)
        (original,) = _journaled(cells, 1, tmp_path)
        again = run_shard(cells, 1, 0, tmp_path)
        assert again.resumed == 4 and again.computed == 0
        (resumed,) = _journaled(cells, 1, tmp_path)
        assert [entry["rows"] for entry in resumed["entries"]] == [
            entry["rows"] for entry in original["entries"]
        ]
        assert {entry["source"] for entry in resumed["entries"]} == {"resumed"}
        merged = merge_artifacts(cells, [resumed])
        assert _canonical(merged.rows) == _canonical(run_grid(cells).rows)
        assert merged.summary()["resumed"] == 4

    def test_undecodable_journal_entry_is_recomputed(self, tmp_path):
        cells = _echo_cells(4)
        run_shard(cells, 1, 0, tmp_path)
        with workspace_store(tmp_path) as store:
            store._conn.execute(
                "UPDATE shard_journal SET entry = '{torn' WHERE config_hash = ?",
                (cells[2].config_hash,),
            )
            store._conn.commit()
        again = run_shard(cells, 1, 0, tmp_path)
        assert again.resumed == 3 and again.computed == 1
        merged = merge_artifacts(cells, _journaled(cells, 1, tmp_path))
        assert _canonical(merged.rows) == _canonical(run_grid(cells).rows)


class TestCachedParity:
    """The cell store is an implementation detail: the fig2 rows are
    byte-identical for serial, pool-4 and 2-shard execution, cold and warm."""

    def test_fig2_serial_cold_and_warm(self, fig2_cells, fig2_serial_rows, tmp_path):
        cache = CellStore.from_options(tmp_path / "cache")
        cold = run_grid(fig2_cells, executor=SerialExecutor(), cache=cache)
        warm = run_grid(fig2_cells, executor=SerialExecutor(), cache=cache)
        assert warm.from_cache == len(fig2_cells)
        assert _canonical(cold.rows) == _canonical(fig2_serial_rows)
        assert _canonical(warm.rows) == _canonical(fig2_serial_rows)
        cache.close()

    def test_fig2_pool4(self, fig2_cells, fig2_serial_rows, tmp_path):
        pool = run_grid(
            fig2_cells, executor=ProcessPoolExecutor(workers=4), cache=tmp_path / "cache"
        )
        assert _canonical(pool.rows) == _canonical(fig2_serial_rows)

    def test_fig2_two_shards_with_cache(self, fig2_cells, fig2_serial_rows, tmp_path):
        sharded = run_grid(
            fig2_cells,
            executor=ShardedExecutor(
                2,
                launch="inline",
                directory=tmp_path / "shards",
                cache_dir=tmp_path / "cache",
            ),
        )
        assert _canonical(sharded.rows) == _canonical(fig2_serial_rows)


class TestExecutorSeam:
    def test_shard_positions_partition_the_plan(self):
        positions = [shard_positions(10, 3, index) for index in range(3)]
        assert sorted(p for chunk in positions for p in chunk) == list(range(10))

    def test_cached_cells_never_reach_the_executor(self, tmp_path):
        cells = _echo_cells(4)
        run_grid(cells, cache=tmp_path / "cache")

        class CountingExecutor(SerialExecutor):
            seen = 0

            def execute(self, tasks, record):
                CountingExecutor.seen += len(tasks)
                super().execute(tasks, record)

        warm = run_grid(cells, cache=tmp_path / "cache", executor=CountingExecutor())
        assert CountingExecutor.seen == 0
        assert warm.from_cache == 4

    def test_executor_dropping_cells_raises(self):
        class LossyExecutor(Executor):
            def execute(self, tasks, record):
                pass  # records nothing

        with pytest.raises(GridExecutionError, match="without results"):
            run_grid(_echo_cells(3), executor=LossyExecutor())

    def test_resolve_executor_choices(self):
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        pool = resolve_executor(None, 6)
        assert isinstance(pool, ProcessPoolExecutor) and pool.workers == 6
        explicit = SerialExecutor()
        assert resolve_executor(explicit, 8) is explicit

    def test_resolve_executor_rejects_non_executor(self):
        with pytest.raises(InvalidParameterError):
            run_grid([], executor="serial")

    def test_threaded_executor_keeps_draining_on_cell_failure(self, tmp_path):
        """Surviving cells are still recorded (cached) before the error."""
        cells = _echo_cells(4) + [
            GridCell(figure="f", runner="_test_exec_boom", params={}, master_seed=3)
        ]
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid(cells, executor=ThreadedExecutor(workers=3), cache=cache_dir)
        retry = run_grid(_echo_cells(4), cache=cache_dir)
        assert retry.from_cache == 4 and retry.computed == 0

    def test_threaded_executor_single_worker_falls_back_to_serial(self):
        result = run_grid(_echo_cells(3), executor=ThreadedExecutor(workers=1))
        assert _canonical(result.rows) == _canonical(
            run_grid(_echo_cells(3), executor=SerialExecutor()).rows
        )

    def test_invalid_executor_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProcessPoolExecutor(workers=0)
        with pytest.raises(InvalidParameterError):
            ThreadedExecutor(workers=0)
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(0)
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(2, launch="carrier-pigeon")
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(2, workers=0)

    def test_summary_reports_executor_name(self):
        result = run_grid(_echo_cells(2), executor=SerialExecutor())
        assert result.summary()["executor"] == "SerialExecutor"
        assert result.summary()["resumed"] == 0
