"""Unit tests for the WAL-mode SQLite cell store."""

import json
import sqlite3
import threading
import warnings

import numpy as np
import pytest

from repro.core.retry import RetryPolicy
from repro.exceptions import InvalidParameterError
from repro.experiments.cellstore import (
    CELLSTORE_SCHEMA_VERSION,
    SQLiteCellStore,
    _MIGRATIONS,
    _statements,
)
from repro.experiments.grid import (
    GRID_SCHEMA_VERSION,
    CellStore,
    GridCell,
    cell_runner,
    run_grid,
)


@cell_runner("_test_store_echo")
def _store_echo_cell(params, rng):
    return [{"value": params.get("value", 0)}]


def cell(value: int, seed: int = 42) -> GridCell:
    return GridCell(
        figure="f", runner="_test_store_echo", params={"value": value}, master_seed=seed
    )


@pytest.fixture
def store(tmp_path):
    store = SQLiteCellStore.for_directory(tmp_path / "cache")
    yield store
    store.close()


class TestCellsTable:
    def test_roundtrip(self, store):
        assert store.get(cell(1)) is None
        assert store.put(cell(1), [{"value": 1, "draw": 4}], elapsed=0.1) is not None
        assert store.get(cell(1)) == [{"value": 1, "draw": 4}]
        assert len(store) == 1

    def test_wal_mode_and_schema_version(self, store):
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store.schema_version() == CELLSTORE_SCHEMA_VERSION

    def test_key_mismatch_is_a_miss(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET key = 'tampered'")
        store._conn.commit()
        assert store.get(cell(1)) is None

    def test_master_seed_mismatch_is_a_miss(self, store):
        store.put(cell(1, seed=42), [{"value": 1}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET master_seed = 7")
        store._conn.commit()
        assert store.get(cell(1)) is None

    def test_corrupt_rows_payload_is_a_miss(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store._conn.execute("UPDATE cells SET rows = '{not json'")
        store._conn.commit()
        assert store.get(cell(1)) is None

    def test_overwrite_keeps_one_entry(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store.put(cell(1), [{"value": 2}], elapsed=0.0)
        assert len(store) == 1
        assert store.get(cell(1)) == [{"value": 2}]

    def test_stats_shape(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["journal_entries"] == 0
        assert stats["runs"] == 0
        assert stats["schema_version"] == CELLSTORE_SCHEMA_VERSION

    def test_run_grid_serves_second_run_from_cache(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path / "cache")
        cells = [cell(v) for v in range(3)]
        cold = run_grid(cells, cache=store)
        assert cold.computed == 3 and cold.from_cache == 0
        warm = run_grid(cells, cache=store)
        assert warm.computed == 0 and warm.from_cache == 3
        assert warm.rows == cold.rows
        store.close()

    def test_unusable_path_raises_invalid_parameter(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(InvalidParameterError):
            SQLiteCellStore.for_directory(blocker / "cache")

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            SQLiteCellStore.for_directory(tmp_path, max_entries=0)
        with pytest.raises(InvalidParameterError):
            SQLiteCellStore.for_directory(tmp_path, max_bytes=0)

    def test_non_list_rows_payload_is_a_miss(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store._conn.execute("""UPDATE cells SET rows = '{"value": 1}'""")
        store._conn.commit()
        assert store.get(cell(1)) is None

    def test_master_seeds_key_distinct_entries(self, store):
        store.put(cell(1, seed=1), [{"value": "a"}], elapsed=0.0)
        store.put(cell(1, seed=2), [{"value": "b"}], elapsed=0.0)
        assert len(store) == 2
        assert store.get(cell(1, seed=1)) == [{"value": "a"}]
        assert store.get(cell(1, seed=2)) == [{"value": "b"}]

    def test_numpy_scalar_rows_are_stored_as_plain_json(self, store):
        store.put(cell(1), [{"value": np.int64(3), "acc": np.float64(0.25)}], elapsed=0.0)
        rows = store.get(cell(1))
        assert rows == [{"value": 3, "acc": 0.25}]
        assert type(rows[0]["value"]) is int
        assert type(rows[0]["acc"]) is float

    def test_miss_creates_no_entry(self, store):
        assert store.get(cell(1)) is None
        assert len(store) == 0
        assert store.stats()["total_bytes"] == 0

    def test_second_connection_sees_committed_entries(self, tmp_path):
        first = SQLiteCellStore.for_directory(tmp_path)
        second = SQLiteCellStore.for_directory(tmp_path)
        try:
            first.put(cell(1), [{"value": 1}], elapsed=0.0)
            assert second.get(cell(1)) == [{"value": 1}]
        finally:
            first.close()
            second.close()

    def test_put_records_the_cell_metadata(self, store):
        store.put(cell(1), [{"value": 1}], elapsed=0.5)
        row = store._conn.execute(
            "SELECT runner, schema, master_seed, elapsed, size_bytes, rows FROM cells"
        ).fetchone()
        assert row["runner"] == "_test_store_echo"
        assert row["schema"] == GRID_SCHEMA_VERSION
        assert row["master_seed"] == 42
        assert row["elapsed"] == 0.5
        assert row["size_bytes"] == len(row["rows"].encode("utf-8"))


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=2)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)  # oldest write...
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        assert store.get(cell(0)) is not None  # ...but refreshed: hot
        store.put(cell(2), [{"value": 2}], elapsed=0.0)
        assert store.get(cell(0)) is not None
        assert store.get(cell(1)) is None  # the stale entry went
        assert store.stats()["evicted"] == 1
        store.close()

    def test_newest_entry_never_evicted(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=1)
        for value in range(3):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert len(store) == 1
        assert store.get(cell(2)) is not None
        store.close()

    def test_max_bytes_bound(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        entry_size = store.stats()["total_bytes"]
        store.close()
        bounded = SQLiteCellStore.for_directory(tmp_path, max_bytes=3 * entry_size)
        for value in range(1, 7):
            bounded.put(cell(value), [{"value": value}], elapsed=0.0)
        stats = bounded.stats()
        assert stats["total_bytes"] <= bounded.max_bytes
        assert stats["entries"] < 7
        bounded.close()

    def test_unbounded_store_keeps_everything(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        for value in range(5):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert len(store) == 5
        assert store.stats()["evicted"] == 0
        store.close()

    def test_repeatedly_read_entry_survives_every_eviction(self, tmp_path):
        # LRU, not FIFO by write time: a hit refreshes the entry, so the
        # hottest cell outlives every later write
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=2)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        for value in range(1, 6):
            assert store.get(cell(0)) is not None
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert store.get(cell(0)) == [{"value": 0}]
        assert store.get(cell(5)) == [{"value": 5}]
        assert len(store) == 2
        assert store.stats()["evicted"] == 4
        store.close()

    def test_overwrites_do_not_inflate_total_bytes(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_bytes=10**6)
        for _ in range(20):
            store.put(cell(1), [{"value": 1}], elapsed=0.0)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == len('[{"value":1}]')
        assert stats["evicted"] == 0
        store.close()

    def test_out_of_band_deletions_do_not_evict_spuriously(self, tmp_path):
        # the bounds are checked against the table itself, so rows deleted
        # by another connection never make a later put evict live entries
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=4)
        for value in range(3):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        other = sqlite3.connect(store.path)
        other.execute(
            "DELETE FROM cells WHERE config_hash IN (?, ?)",
            (cell(0).config_hash, cell(1).config_hash),
        )
        other.commit()
        other.close()
        for value in range(3, 5):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        assert len(store) == 3
        assert store.stats()["evicted"] == 0
        store.close()

    def test_entry_and_byte_bounds_apply_together(self, tmp_path):
        entry_size = len('[{"value":0}]')
        store = SQLiteCellStore.for_directory(
            tmp_path, max_entries=3, max_bytes=2 * entry_size
        )
        for value in range(5):
            store.put(cell(value), [{"value": value}], elapsed=0.0)
        stats = store.stats()
        assert stats["entries"] == 2  # the byte bound is the tighter one
        assert stats["total_bytes"] <= 2 * entry_size
        assert store.get(cell(4)) == [{"value": 4}]
        store.close()

    def test_eviction_failure_degrades_to_warning(self, tmp_path, monkeypatch):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=1)
        store.put(cell(0), [{"value": 0}], elapsed=0.0)
        real_retry_write = store._retry_write

        def failing_eviction(action, fn):
            if action == "eviction":
                raise sqlite3.OperationalError("disk I/O error")
            return real_retry_write(action, fn)

        monkeypatch.setattr(store, "_retry_write", failing_eviction)
        with pytest.warns(RuntimeWarning, match="cell store eviction failed"):
            assert store.put(cell(1), [{"value": 1}], elapsed=0.0) == store.path
        # both entries are still there (eviction failed), but the run went on
        assert len(store) == 2
        assert store.stats()["evicted"] == 0
        store.close()

    def test_stats_report_the_configured_bounds(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path, max_entries=10, max_bytes=10**6)
        stats = store.stats()
        assert stats["max_entries"] == 10
        assert stats["max_bytes"] == 10**6
        assert stats["directory"] == str(tmp_path)
        assert stats["path"] == str(tmp_path / "cells.sqlite")
        assert stats["evicted"] == 0
        store.close()


class TestMigrations:
    def test_fresh_database_lands_at_current_version(self, store):
        assert store.schema_version() == CELLSTORE_SCHEMA_VERSION == len(_MIGRATIONS)

    def test_old_database_upgrades_in_place(self, tmp_path):
        # hand-build a version-1 database (tables, no indexes), then reopen
        path = tmp_path / "cells.sqlite"
        conn = sqlite3.connect(path)
        for statement in _statements(_MIGRATIONS[0]):
            conn.execute(statement)
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        store = SQLiteCellStore(path)
        assert store.schema_version() == CELLSTORE_SCHEMA_VERSION
        indexes = {
            row[0]
            for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        assert "idx_cells_last_used" in indexes
        store.close()

    def test_newer_database_is_refused(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {CELLSTORE_SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(InvalidParameterError, match="newer"):
            SQLiteCellStore(path)

    def test_concurrent_openers_apply_each_migration_once(self, tmp_path, monkeypatch):
        # shard workers open a fresh journal database at the same moment: an
        # opener that read version 0 before another one migrated must not
        # re-run the CREATE TABLE scripts
        path = tmp_path / "shards.sqlite"
        SQLiteCellStore(path).close()
        real_version = SQLiteCellStore.schema_version
        stale = {"reads": 1}

        def stale_first_read(self):
            if stale["reads"]:
                stale["reads"] -= 1
                return 0
            return real_version(self)

        monkeypatch.setattr(SQLiteCellStore, "schema_version", stale_first_read)
        store = SQLiteCellStore(path)
        assert real_version(store) == CELLSTORE_SCHEMA_VERSION
        store.close()

    def test_reopening_is_idempotent(self, tmp_path):
        first = SQLiteCellStore.for_directory(tmp_path)
        first.put(cell(1), [{"value": 1}], elapsed=0.0)
        first.close()
        second = SQLiteCellStore.for_directory(tmp_path)
        assert second.get(cell(1)) == [{"value": 1}]
        assert second.schema_version() == CELLSTORE_SCHEMA_VERSION
        second.close()


class TestShardJournal:
    def entry(self, value: int) -> dict:
        return {"config_hash": f"hash-{value}", "rows": [{"value": value}]}

    def test_append_and_query(self, store):
        for value in range(4):
            assert store.journal_append("plan-a", value % 2, self.entry(value))
        recovered = store.journal_entries("plan-a")
        assert set(recovered) == {f"hash-{v}" for v in range(4)}
        assert store.journal_entries("plan-b") == {}

    def test_append_is_idempotent_per_cell(self, store):
        store.journal_append("plan-a", 0, self.entry(1))
        store.journal_append("plan-a", 1, {"config_hash": "hash-1", "rows": [{"value": 9}]})
        recovered = store.journal_entries("plan-a")
        assert len(recovered) == 1
        assert recovered["hash-1"]["rows"] == [{"value": 9}]  # the upsert won

    def test_clear_one_shard_keeps_the_others(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        store.journal_append("plan-a", 1, self.entry(1))
        assert store.journal_clear("plan-a", shard_index=0) == 1
        assert set(store.journal_entries("plan-a")) == {"hash-1"}
        assert store.journal_clear("plan-a") == 1
        assert store.journal_entries("plan-a") == {}

    def test_undecodable_entry_rows_are_skipped(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        store._conn.execute("UPDATE shard_journal SET entry = '{torn'")
        store._conn.commit()
        assert store.journal_entries("plan-a") == {}

    def test_records_keep_shard_index_in_append_order(self, store):
        for value, shard_index in ((2, 1), (0, 0), (1, 1)):
            store.journal_append("plan-a", shard_index, self.entry(value))
        records = [
            (shard_index, entry["config_hash"])
            for shard_index, entry in store.journal_records("plan-a")
        ]
        assert records == [(1, "hash-2"), (0, "hash-0"), (1, "hash-1")]

    def test_entry_without_config_hash_is_refused_with_a_warning(self, store):
        with pytest.warns(RuntimeWarning, match="journal append failed"):
            assert store.journal_append("plan-a", 0, {"rows": []}) is False
        assert store.journal_entries("plan-a") == {}

    def test_non_object_entries_are_skipped(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        store.journal_append("plan-a", 0, self.entry(1))
        store._conn.execute(
            "UPDATE shard_journal SET entry = '[1, 2]' WHERE config_hash = 'hash-0'"
        )
        store._conn.commit()
        assert set(store.journal_entries("plan-a")) == {"hash-1"}

    def test_clearing_an_unknown_plan_removes_nothing(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        assert store.journal_clear("plan-b") == 0
        assert store.journal_clear("plan-a", shard_index=3) == 0
        assert set(store.journal_entries("plan-a")) == {"hash-0"}

    def test_journal_is_separate_from_the_cells_table(self, store):
        store.journal_append("plan-a", 0, self.entry(0))
        assert len(store) == 0
        assert store.stats()["journal_entries"] == 1


class TestRunsLedger:
    def test_record_and_read_back_newest_first(self, store):
        first = store.record_run("run_grid", figure="fig2", summary={"cells": 3})
        second = store.record_run("run_shard", figure="fig2", summary={"cells": 1})
        ledger = store.runs_ledger()
        assert [entry["run_id"] for entry in ledger] == [second, first]
        assert ledger[1]["kind"] == "run_grid"
        assert ledger[1]["summary"] == {"cells": 3}
        assert ledger[1]["finished_at"] >= ledger[1]["started_at"]

    def test_filter_and_limit(self, store):
        for index in range(5):
            store.record_run("run_shard", summary={"i": index})
        store.record_run("merge_shards", summary={})
        assert len(store.runs_ledger(limit=2)) == 2
        kinds = {entry["kind"] for entry in store.runs_ledger(kind="run_shard")}
        assert kinds == {"run_shard"}

    def test_explicit_timestamps_are_kept(self, store):
        store.record_run("run_grid", started_at=10.0, finished_at=12.5)
        (entry,) = store.runs_ledger()
        assert (entry["started_at"], entry["finished_at"]) == (10.0, 12.5)
        assert entry["figure"] is None
        assert entry["summary"] == {}

    def test_undecodable_summary_reads_back_as_none(self, store):
        store.record_run("run_grid", summary={"cells": 1})
        store._conn.execute("UPDATE runs SET summary = '{torn'")
        store._conn.commit()
        (entry,) = store.runs_ledger()
        assert entry["kind"] == "run_grid"
        assert entry["summary"] is None


class TestStoreSeam:
    def test_from_options_builds_the_sqlite_store(self, tmp_path):
        assert CellStore.from_options(None) is None
        store = CellStore.from_options(tmp_path / "cache", max_entries=3)
        assert isinstance(store, SQLiteCellStore)
        assert store.path == tmp_path / "cache" / "cells.sqlite"
        assert store.max_entries == 3
        store.close()

    def test_run_grid_with_a_directory_path_closes_its_store(self, tmp_path, monkeypatch):
        closed = []
        real_close = SQLiteCellStore.close
        monkeypatch.setattr(
            SQLiteCellStore, "close", lambda self: (closed.append(self), real_close(self))
        )
        cells = [cell(v) for v in range(2)]
        run_grid(cells, cache=tmp_path / "cache")
        assert len(closed) == 1
        warm = run_grid(cells, cache=str(tmp_path / "cache"))
        assert warm.from_cache == 2
        assert len(closed) == 2

    def test_run_grid_leaves_a_caller_store_open(self, store):
        run_grid([cell(1)], cache=store)
        assert store.get(cell(1)) == [{"value": 1}]

    def test_old_json_cache_entries_are_ignored(self, tmp_path):
        # a cache directory of an older layout (one JSON file per cell) is
        # neither read nor removed: its cells are recomputed once
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        stale = cache_dir / f"{cell(1).config_hash}.json"
        stale.write_text(json.dumps({"key": cell(1).key, "rows": [{"value": -1}]}))
        result = run_grid([cell(1)], cache=cache_dir)
        assert result.computed == 1
        assert result.rows == [{"value": 1}]
        assert stale.exists()

    def test_invalid_cache_argument_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_grid([], cache=123)

    def test_a_custom_store_needs_only_get_put_and_stats(self):
        class MemoryStore(CellStore):
            def __init__(self):
                self.entries = {}

            def get(self, cell):
                return self.entries.get(cell.config_hash)

            def put(self, cell, rows, elapsed):
                self.entries[cell.config_hash] = list(rows)

            def stats(self):
                return {"entries": len(self.entries)}

        memory = MemoryStore()
        cells = [cell(v) for v in range(2)]
        assert run_grid(cells, cache=memory).computed == 2
        assert run_grid(cells, cache=memory).from_cache == 2
        memory.close()  # the seam's default close is a no-op

    def test_context_manager_closes_the_connection(self, tmp_path):
        with SQLiteCellStore.for_directory(tmp_path) as store:
            store.put(cell(1), [{"value": 1}], elapsed=0.0)
        with pytest.raises(sqlite3.ProgrammingError):
            store._conn.execute("SELECT 1")
        with SQLiteCellStore.for_directory(tmp_path) as reopened:
            assert reopened.get(cell(1)) == [{"value": 1}]

    def test_close_is_idempotent(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        store.close()
        store.close()

    def test_from_options_passes_the_byte_bound(self, tmp_path):
        store = CellStore.from_options(tmp_path, max_bytes=4096)
        assert store.max_bytes == 4096
        assert store.max_entries is None
        store.close()


class TestDegradation:
    def test_failures_degrade_to_one_warning_per_category(self, tmp_path):
        # each distinct (action, errno) failure category warns exactly once;
        # repeats of an already-warned category stay silent
        store = SQLiteCellStore.for_directory(tmp_path)
        store.put(cell(1), [{"value": 1}], elapsed=0.0)
        store.close()  # every later query raises sqlite3.ProgrammingError
        with pytest.warns(RuntimeWarning, match="cell store read failed"):
            assert store.get(cell(1)) is None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # new categories each warn once...
            assert store.put(cell(2), [{"value": 2}], elapsed=0.0) is None
            assert store.journal_append("plan", 0, {"config_hash": "h"}) is False
            assert store.journal_entries("plan") == {}
            assert store.record_run("run_grid") is None
            assert store.runs_ledger() == []
            assert store.stats()["entries"] == 0
        actions = [str(w.message) for w in caught]
        assert len(actions) == 6  # write, journal append/read, ledger append/read, stats
        assert [a for a in actions if "write failed" in a]
        assert [a for a in actions if "journal append failed" in a]
        # ...then every repeat degrades silently
        with warnings.catch_warnings(record=True) as repeat:
            warnings.simplefilter("always")
            assert store.get(cell(1)) is None
            assert store.put(cell(3), [{"value": 3}], elapsed=0.0) is None
            assert store.journal_entries("plan") == {}
            assert store.runs_ledger() == []
            assert len(store) == 0
            assert store.stats()["entries"] == 0
        assert repeat == []

    def test_run_grid_completes_with_failing_store(self, tmp_path):
        store = SQLiteCellStore.for_directory(tmp_path)
        store.close()
        cells = [cell(v) for v in range(3)]
        with pytest.warns(RuntimeWarning, match="cell store"):
            result = run_grid(cells, cache=store)
        assert result.computed == 3
        assert [row["value"] for row in result.rows] == [0, 1, 2]

    def test_same_action_with_a_different_errno_warns_again(self, store):
        with pytest.warns(RuntimeWarning, match="read-only cache dir"):
            store._warn_io("write", PermissionError(13, "read-only cache dir"))
        with pytest.warns(RuntimeWarning, match="no space left"):
            store._warn_io("write", OSError(28, "no space left on device"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store._warn_io("write", OSError(28, "no space left on device"))
        assert caught == []


class TestWriteContention:
    """Two writers on one database: bounded retry, then warned miss."""

    @staticmethod
    def _tiny_policy(max_retries: int = 2) -> RetryPolicy:
        return RetryPolicy(
            max_retries=max_retries, base_delay=0.001, max_delay=0.002, jitter=0.0
        )

    def test_locked_db_degrades_to_warned_miss_not_exception(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        store = SQLiteCellStore(
            path, busy_timeout_ms=5, retry_policy=self._tiny_policy()
        )
        blocker = sqlite3.connect(path)
        try:
            blocker.execute("BEGIN IMMEDIATE")  # hold the write lock
            with pytest.warns(RuntimeWarning, match="cell store write failed"):
                assert store.put(cell(1), [{"value": 1}], elapsed=0.0) is None
        finally:
            blocker.rollback()
            blocker.close()
        # once the co-writer is gone the same store writes normally again
        assert store.put(cell(1), [{"value": 1}], elapsed=0.0) == path
        assert store.get(cell(1)) == [{"value": 1}]
        store.close()

    def test_retry_outlasts_a_transient_lock(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        store = SQLiteCellStore(
            path,
            busy_timeout_ms=50,
            retry_policy=RetryPolicy(
                max_retries=40, base_delay=0.05, max_delay=0.05, jitter=0.0
            ),
        )
        blocker = sqlite3.connect(path, check_same_thread=False)
        blocker.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, lambda: (blocker.rollback(), blocker.close()))
        release.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert store.put(cell(7), [{"value": 7}], elapsed=0.0) == path
            assert caught == []
        finally:
            release.join()
            store.close()

    def test_two_writers_share_one_journal(self, tmp_path):
        path = tmp_path / "cells.sqlite"
        first = SQLiteCellStore(path)
        second = SQLiteCellStore(path)
        try:
            for index in range(4):
                writer = first if index % 2 == 0 else second
                assert writer.journal_append(
                    "plan", index % 2, {"config_hash": f"h{index}", "value": index}
                )
            assert set(first.journal_entries("plan")) == {"h0", "h1", "h2", "h3"}
            assert second.journal_entries("plan") == first.journal_entries("plan")
        finally:
            first.close()
            second.close()

    def test_non_lock_errors_are_not_retried(self, tmp_path):
        store = SQLiteCellStore(
            tmp_path / "cells.sqlite", retry_policy=self._tiny_policy(max_retries=50)
        )
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: nowhere")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            store._retry_write("write", broken)
        assert len(attempts) == 1  # retrying cannot fix a schema error
        store.close()
