"""Executor-parity test suite.

For scaled-down Fig. 2 and Fig. 5 plans, the executors — serial, process
pool, threads and remote workers — must produce byte-identical rows; and
resuming an interrupted run from the cell cache must recompute only the
missing cells, whichever executor runs them.
"""

import json
import os
import random
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.exceptions import GridExecutionError, InvalidParameterError
from repro.experiments.cellstore import DEFAULT_DB_NAME
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
from repro.experiments.remote import RemoteExecutor
from repro.experiments.reident_smp import plan_reidentification_smp
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


@cell_runner("_test_exec_slow")
def _exec_slow_cell(params, rng):
    time.sleep(params["sleep"])
    return [{"value": params["value"]}]


@cell_runner("_test_exec_flaky")
def _exec_flaky_cell(params, rng):
    if not os.path.exists(params["marker"]):
        raise RuntimeError("flaky cell failed")
    return [{"value": "recovered"}]


@cell_runner("_test_exec_numpy")
def _exec_numpy_cell(params, rng):
    return [{"value": np.int64(params["value"]), "draw": np.float64(rng.random())}]


@cell_runner("_test_exec_where")
def _exec_where_cell(params, rng):
    return [{"pid": os.getpid(), "thread": threading.get_ident()}]


def _echo_cells(count: int, master_seed: int = 3) -> list[GridCell]:
    return [
        GridCell(
            figure="f", runner="_test_exec_echo", params={"value": v}, master_seed=master_seed
        )
        for v in range(count)
    ]


#: Factories of the in-process executors, by name.
LOCAL_EXECUTORS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessPoolExecutor(workers=2),
    "thread": lambda: ThreadedExecutor(workers=2),
}

each_local_executor = pytest.mark.parametrize(
    "make_executor", list(LOCAL_EXECUTORS.values()), ids=list(LOCAL_EXECUTORS)
)


def _run_in_parts(cells, parts, cache_dir, seed):
    """Run ``cells`` as ``parts`` separate, disjoint run_grid calls in a
    shuffled order, cycling through the local executors."""
    positions = list(range(len(cells)))
    random.Random(seed).shuffle(positions)
    chunks = [positions[offset::parts] for offset in range(parts)]
    makers = list(LOCAL_EXECUTORS.values())
    for number, chunk in enumerate(chunks):
        part = [cells[position] for position in sorted(chunk)]
        run_grid(part, executor=makers[number % len(makers)](), cache=cache_dir)


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

    def test_fig2_remote_workers_match_serial(self, fig2_cells, fig2_serial_rows):
        """Two spawned remote_worker subprocesses lease the fig2 cells."""
        remote = run_grid(fig2_cells, executor=RemoteExecutor(workers=2))
        assert _canonical(remote.rows) == _canonical(fig2_serial_rows)
        assert remote.computed == len(fig2_cells)

    def test_fig5_remote_workers_match_serial(self, fig5_cells, fig5_serial_rows):
        remote = run_grid(fig5_cells, executor=RemoteExecutor(workers=2))
        assert _canonical(remote.rows) == _canonical(fig5_serial_rows)

    @pytest.mark.parametrize("parts", [2, 3, 5])
    def test_fig2_runs_over_disjoint_parts_assemble_identically(
        self, fig2_cells, fig2_serial_rows, parts, tmp_path
    ):
        """Separate runs over disjoint parts of the plan, in any order and on
        any executor, leave a cache that serves the whole plan unchanged."""
        cache_dir = tmp_path / "cache"
        _run_in_parts(fig2_cells, parts, cache_dir, seed=parts)
        whole = run_grid(fig2_cells, cache=cache_dir)
        assert whole.from_cache == len(fig2_cells) and whole.computed == 0
        assert _canonical(whole.rows) == _canonical(fig2_serial_rows)

    @pytest.mark.parametrize("parts", [2, 3, 5])
    def test_fig5_runs_over_disjoint_parts_assemble_identically(
        self, fig5_cells, fig5_serial_rows, parts, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        _run_in_parts(fig5_cells, parts, cache_dir, seed=parts)
        whole = run_grid(fig5_cells, cache=cache_dir)
        assert whole.from_cache == len(fig5_cells) and whole.computed == 0
        assert _canonical(whole.rows) == _canonical(fig5_serial_rows)


class TestResume:
    """The cell cache stores each cell as it completes, so an interrupted
    run keeps its finished work and a rerun computes only what is missing."""

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ProcessPoolExecutor(workers=2), ThreadedExecutor(workers=2)],
        ids=["serial", "process", "thread"],
    )
    def test_failing_cell_keeps_every_other_cell_and_rerun_computes_only_it(
        self, executor, tmp_path
    ):
        marker = tmp_path / "marker"
        cells = _echo_cells(3) + [
            GridCell(
                figure="f",
                runner="_test_exec_flaky",
                params={"marker": str(marker)},
                master_seed=3,
            )
        ]
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="flaky cell failed"):
            run_grid(cells, executor=executor, cache=cache_dir)
        with CellStore.from_options(cache_dir) as store:
            assert len(store) == 3  # the echo cells were stored on completion
        marker.touch()
        again = run_grid(cells, executor=executor, cache=cache_dir)
        assert again.from_cache == 3 and again.computed == 1
        assert again.rows[-1] == {"value": "recovered"}

    def test_deleted_cell_row_is_recomputed_alone(
        self, fig2_cells, fig2_serial_rows, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        run_grid(fig2_cells, cache=cache_dir)
        # simulate an interruption: one completed cell never reached the store
        dropped = fig2_cells[len(fig2_cells) // 2]
        with sqlite3.connect(cache_dir / DEFAULT_DB_NAME) as conn:
            conn.execute("DELETE FROM cells WHERE config_hash = ?", (dropped.config_hash,))
        conn.close()
        resumed = run_grid(fig2_cells, cache=cache_dir)
        assert resumed.computed == 1
        assert resumed.from_cache == len(fig2_cells) - 1
        (recomputed,) = [o for o in resumed.outcomes if o.source == "computed"]
        assert recomputed.cell.config_hash == dropped.config_hash
        assert _canonical(resumed.rows) == _canonical(fig2_serial_rows)

    @each_local_executor
    def test_rerun_serves_every_completed_cell_from_the_cache(
        self, make_executor, tmp_path
    ):
        cells = _echo_cells(5)
        cold = run_grid(cells, executor=make_executor(), cache=tmp_path / "cache")
        assert cold.computed == 5 and cold.from_cache == 0
        warm = run_grid(cells, executor=make_executor(), cache=tmp_path / "cache")
        assert warm.from_cache == 5 and warm.computed == 0
        assert _canonical(warm.rows) == _canonical(cold.rows)

    @each_local_executor
    def test_deleted_cell_rows_are_the_only_ones_recomputed(
        self, make_executor, tmp_path
    ):
        cells = _echo_cells(6)
        cache_dir = tmp_path / "cache"
        cold = run_grid(cells, cache=cache_dir)
        dropped = {cells[1].config_hash, cells[4].config_hash}
        with sqlite3.connect(cache_dir / DEFAULT_DB_NAME) as conn:
            conn.executemany(
                "DELETE FROM cells WHERE config_hash = ?", [(h,) for h in dropped]
            )
        conn.close()
        resumed = run_grid(cells, executor=make_executor(), cache=cache_dir)
        recomputed = {o.cell.config_hash for o in resumed.outcomes if o.source == "computed"}
        assert recomputed == dropped
        assert resumed.from_cache == 4
        assert _canonical(resumed.rows) == _canonical(cold.rows)

    @each_local_executor
    def test_undecodable_cell_row_is_recomputed_alone(self, make_executor, tmp_path):
        """A torn payload in cells.sqlite is a miss, never a crash or a
        wrong row: the rerun recomputes that cell and rewrites it."""
        cells = _echo_cells(4)
        cache_dir = tmp_path / "cache"
        cold = run_grid(cells, cache=cache_dir)
        with sqlite3.connect(cache_dir / DEFAULT_DB_NAME) as conn:
            conn.execute(
                "UPDATE cells SET rows = '{torn' WHERE config_hash = ?",
                (cells[2].config_hash,),
            )
        conn.close()
        resumed = run_grid(cells, executor=make_executor(), cache=cache_dir)
        assert resumed.computed == 1 and resumed.from_cache == 3
        assert resumed.outcomes[2].source == "computed"
        assert _canonical(resumed.rows) == _canonical(cold.rows)
        healed = run_grid(cells, cache=cache_dir)
        assert healed.from_cache == 4

    @each_local_executor
    def test_partially_warm_cache_computes_only_the_other_cells(
        self, make_executor, tmp_path
    ):
        cells = _echo_cells(6)
        cache_dir = tmp_path / "cache"
        run_grid(cells[:2], cache=cache_dir)
        warm = run_grid(cells, executor=make_executor(), cache=cache_dir)
        assert [o.source for o in warm.outcomes] == ["cache"] * 2 + ["computed"] * 4
        assert _canonical(warm.rows) == _canonical(run_grid(cells).rows)

    @each_local_executor
    def test_bounded_cache_recomputes_evicted_cells_identically(
        self, make_executor, tmp_path
    ):
        cells = _echo_cells(5)
        cache = CellStore.from_options(tmp_path / "cache", max_entries=2)
        try:
            cold = run_grid(cells, executor=make_executor(), cache=cache)
            assert len(cache) == 2
            again = run_grid(cells, executor=make_executor(), cache=cache)
        finally:
            cache.close()
        assert again.from_cache + again.computed == 5
        assert again.computed >= 3  # only two entries could survive
        assert _canonical(again.rows) == _canonical(cold.rows)

    @each_local_executor
    def test_one_cache_directory_serves_overlapping_plans(
        self, make_executor, tmp_path
    ):
        """Entries are keyed by cell, not by plan: a larger plan sharing
        cells with an earlier one reuses them."""
        cache_dir = tmp_path / "cache"
        first = run_grid(_echo_cells(4), executor=make_executor(), cache=cache_dir)
        second = run_grid(_echo_cells(6), executor=make_executor(), cache=cache_dir)
        assert first.computed == 4
        assert second.from_cache == 4 and second.computed == 2
        again = run_grid(_echo_cells(4), cache=cache_dir)
        assert again.from_cache == 4
        assert _canonical(again.rows) == _canonical(first.rows)

    @each_local_executor
    def test_plans_with_different_master_seeds_do_not_collide(
        self, make_executor, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        first = run_grid(_echo_cells(4), executor=make_executor(), cache=cache_dir)
        other = run_grid(
            _echo_cells(4, master_seed=4), executor=make_executor(), cache=cache_dir
        )
        assert other.computed == 4 and other.from_cache == 0
        assert _canonical(other.rows) != _canonical(first.rows)
        again = run_grid(_echo_cells(4), cache=cache_dir)
        assert again.from_cache == 4
        assert _canonical(again.rows) == _canonical(first.rows)

    @each_local_executor
    def test_numpy_scalar_rows_are_identical_cold_and_warm(
        self, make_executor, tmp_path
    ):
        cells = [
            GridCell(figure="f", runner="_test_exec_numpy", params={"value": v}, master_seed=3)
            for v in range(4)
        ]
        cold = run_grid(cells, executor=make_executor(), cache=tmp_path / "cache")
        warm = run_grid(cells, executor=make_executor(), cache=tmp_path / "cache")
        assert warm.from_cache == 4
        assert _canonical(warm.rows) == _canonical(
            [{"value": int(r["value"]), "draw": float(r["draw"])} for r in cold.rows]
        )
        assert all(type(row["value"]) is int for row in warm.rows)

    @each_local_executor
    def test_identical_cells_are_computed_once(self, make_executor, tmp_path):
        cells = _echo_cells(3) + _echo_cells(3)
        result = run_grid(cells, executor=make_executor(), cache=tmp_path / "cache")
        assert result.computed == 3 and result.deduplicated == 3
        assert result.rows[3:] == result.rows[:3]
        with CellStore.from_options(tmp_path / "cache") as store:
            assert len(store) == 3

    @each_local_executor
    def test_summary_counts_every_source(self, make_executor, tmp_path):
        cells = _echo_cells(4)
        cache_dir = tmp_path / "cache"
        run_grid(cells[:1], cache=cache_dir)
        result = run_grid(
            cells + cells[2:3], executor=make_executor(), cache=cache_dir
        )
        summary = result.summary()
        assert (summary["cells"], summary["from_cache"], summary["computed"]) == (5, 1, 3)
        assert summary["deduplicated"] == 1 and summary["missing"] == 0
        assert [t["source"] for t in summary["cell_timings"]] == [
            "cache", "computed", "computed", "computed", "dedup"
        ]
        assert summary["executor"] == type(make_executor()).__name__

    @each_local_executor
    def test_on_cell_complete_sees_each_computed_cell_once(
        self, make_executor, tmp_path
    ):
        """The observer runs in the calling thread, once per computed cell,
        and never for cells served from the cache."""
        cells = _echo_cells(5)
        cache_dir = tmp_path / "cache"
        run_grid(cells[:2], cache=cache_dir)
        seen = []
        run_grid(
            cells,
            executor=make_executor(),
            cache=cache_dir,
            on_cell_complete=lambda o: seen.append((o, threading.get_ident())),
        )
        assert sorted(o.cell.config_hash for o, _ in seen) == sorted(
            cell.config_hash for cell in cells[2:]
        )
        assert {o.source for o, _ in seen} == {"computed"}
        assert {ident for _, ident in seen} == {threading.get_ident()}


class TestCachedParity:
    """The cell store is an implementation detail: the fig2 rows are
    byte-identical for serial and pool-4 execution, cold and warm."""

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

    def test_fig2_thread_pool_cold_and_warm(self, fig2_cells, fig2_serial_rows, tmp_path):
        cold = run_grid(
            fig2_cells, executor=ThreadedExecutor(workers=4), cache=tmp_path / "cache"
        )
        warm = run_grid(
            fig2_cells, executor=ThreadedExecutor(workers=4), cache=tmp_path / "cache"
        )
        assert warm.from_cache == len(fig2_cells)
        assert _canonical(cold.rows) == _canonical(fig2_serial_rows)
        assert _canonical(warm.rows) == _canonical(fig2_serial_rows)

    def test_fig2_remote_workers_fill_the_cache(self, fig2_cells, fig2_serial_rows, tmp_path):
        """Rows leased out to remote workers are stored by the coordinator,
        so a later local run is served from the cache."""
        remote = run_grid(
            fig2_cells, executor=RemoteExecutor(workers=2), cache=tmp_path / "cache"
        )
        warm = run_grid(fig2_cells, cache=tmp_path / "cache")
        assert warm.from_cache == len(fig2_cells) and warm.computed == 0
        assert _canonical(remote.rows) == _canonical(fig2_serial_rows)
        assert _canonical(warm.rows) == _canonical(fig2_serial_rows)

    @each_local_executor
    def test_fig5_warm_cache_filled_by_another_executor(
        self, make_executor, fig5_cells, fig5_serial_rows, tmp_path
    ):
        """Entries written by a process pool serve every executor."""
        run_grid(fig5_cells, executor=ProcessPoolExecutor(workers=2), cache=tmp_path / "cache")
        warm = run_grid(fig5_cells, executor=make_executor(), cache=tmp_path / "cache")
        assert warm.from_cache == len(fig5_cells)
        assert _canonical(warm.rows) == _canonical(fig5_serial_rows)


class TestExecutorSeam:
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

    @pytest.mark.parametrize(
        "executor_class", [ProcessPoolExecutor, ThreadedExecutor], ids=["process", "thread"]
    )
    def test_pool_executor_keeps_draining_on_cell_failure(self, executor_class, tmp_path):
        """Surviving cells are still recorded (cached) before the error,
        even though the failing cell finishes first."""
        slow = [
            GridCell(
                figure="f",
                runner="_test_exec_slow",
                params={"value": v, "sleep": 0.3},
                master_seed=3,
            )
            for v in range(4)
        ]
        boom = GridCell(figure="f", runner="_test_exec_boom", params={}, master_seed=3)
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="cell exploded"):
            run_grid([boom] + slow, executor=executor_class(workers=3), cache=cache_dir)
        retry = run_grid(slow, cache=cache_dir)
        assert retry.from_cache == 4 and retry.computed == 0

    @pytest.mark.parametrize(
        "executor_class", [ProcessPoolExecutor, ThreadedExecutor], ids=["process", "thread"]
    )
    def test_pool_executor_records_on_the_calling_thread(self, executor_class):
        """Pool workers hand rows back; only the calling thread records."""
        recorded = []

        def record(index, rows, elapsed):
            recorded.append((index, threading.get_ident()))

        tasks = list(enumerate(_echo_cells(6)))
        executor_class(workers=3).execute(tasks, record)
        assert sorted(index for index, _ in recorded) == list(range(6))
        assert {ident for _, ident in recorded} == {threading.get_ident()}

    @pytest.mark.parametrize(
        "executor_class", [ProcessPoolExecutor, ThreadedExecutor], ids=["process", "thread"]
    )
    @pytest.mark.parametrize(
        ("workers", "count"), [(1, 3), (3, 1)], ids=["one_worker", "one_task"]
    )
    def test_pool_executor_runs_in_the_calling_thread_when_a_pool_cannot_help(
        self, executor_class, workers, count
    ):
        cells = [
            GridCell(figure="f", runner="_test_exec_where", params={"n": n}, master_seed=3)
            for n in range(count)
        ]
        result = run_grid(cells, executor=executor_class(workers=workers))
        assert result.rows == [
            {"pid": os.getpid(), "thread": threading.get_ident()}
        ] * count

    @pytest.mark.parametrize(
        ("executor_class", "where"),
        [(ProcessPoolExecutor, "pid"), (ThreadedExecutor, "thread")],
        ids=["process", "thread"],
    )
    def test_pool_executor_runs_many_tasks_in_its_pool(self, executor_class, where):
        cells = [
            GridCell(figure="f", runner="_test_exec_where", params={"n": n}, master_seed=3)
            for n in range(4)
        ]
        result = run_grid(cells, executor=executor_class(workers=2))
        caller = {"pid": os.getpid(), "thread": threading.get_ident()}[where]
        assert caller not in {row[where] for row in result.rows}

    @pytest.mark.parametrize(
        "executor_class", [ProcessPoolExecutor, ThreadedExecutor], ids=["process", "thread"]
    )
    def test_pool_executor_reports_its_name_and_worker_count(self, executor_class):
        result = run_grid(_echo_cells(3), executor=executor_class(workers=3))
        assert result.summary()["workers"] == 3
        assert result.summary()["executor"] == executor_class.__name__
        assert _canonical(result.rows) == _canonical(run_grid(_echo_cells(3)).rows)

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

    def test_summary_reports_executor_name(self):
        result = run_grid(_echo_cells(2), executor=SerialExecutor())
        assert result.summary()["executor"] == "SerialExecutor"
        assert "resumed" not in result.summary()
