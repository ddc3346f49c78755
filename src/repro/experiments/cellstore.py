"""WAL-mode SQLite cell store: cache entries and run ledger.

The grid engine's only persistent state lives in **one SQLite database**,
``<cache-dir>/cells.sqlite``, with two tables:

* ``cells`` — the completed-cell memo (``config_hash`` primary key, rows as
  canonical JSON, ``last_used_at`` refreshed on every hit so eviction is a
  single indexed least-recently-used delete).  Cells are stored as they
  complete, so rerunning an interrupted figure on the same store resumes
  it: only the missing cells are computed;
* ``runs`` — a ledger of every CLI figure run with its JSON execution
  summary, so a long sweep's history is queryable.

The database is opened with ``journal_mode=WAL`` (readers never block the
writer), ``synchronous=NORMAL`` and a short per-attempt ``busy_timeout``;
write transactions that still find the database locked are retried on the
bounded, deterministically jittered backoff schedule of
:mod:`repro.core.retry` before degrading to the store's usual warned miss —
a wedged co-writer costs a few seconds, never a 30 s stall.  The schema is
created and upgraded through the ordered migration scripts in
:data:`_MIGRATIONS`, tracked by SQLite's ``user_version`` pragma — opening
an old database applies only the missing migrations, and a database written
by a *newer* library version is refused instead of corrupted.

:class:`SQLiteCellStore` implements the
:class:`~repro.experiments.grid.CellStore` seam, including its
degrade-to-a-warned-miss contract: no storage failure may abort a grid run
that can still compute its cells.  SQLite's WAL mode needs every writer on
one host.  Cache directories written by older versions of this package
(one JSON file per cell) are ignored; their cells are recomputed once.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TypeVar

from ..core.retry import RetryPolicy, retry_call
from ..exceptions import InvalidParameterError
from .grid import GRID_SCHEMA_VERSION, CellStore, GridCell, _jsonable

T = TypeVar("T")

#: Database file name used when a store is built from a cache *directory*
#: (``--cache-dir X`` → ``X/cells.sqlite``).
DEFAULT_DB_NAME = "cells.sqlite"

#: How long one write *attempt* waits on a locked database.  Deliberately
#: short: contention is handled by the bounded, jittered retry schedule of
#: :data:`DEFAULT_WRITE_RETRY_POLICY`, not by camping on the lock — a wedged
#: writer degrades to a warned miss in a few seconds, not after 30.
DEFAULT_BUSY_TIMEOUT_MS = 250

#: Bounded backoff between write attempts on a locked database.  Worst-case
#: total wait ≈ 7 × 0.25 s lock waits + 2.5 s of backoff — a few seconds,
#: after which the write degrades to the store's usual warned miss.
DEFAULT_WRITE_RETRY_POLICY = RetryPolicy(
    max_retries=6, base_delay=0.05, max_delay=1.0, multiplier=2.0, jitter=0.1
)


class _DatabaseLockedError(sqlite3.OperationalError):
    """SQLITE_BUSY/SQLITE_LOCKED — the one retryable write failure."""


def _tag_locked(fn: Callable[[], T]) -> T:
    """Run ``fn``, re-raising lock contention as :class:`_DatabaseLockedError`.

    Every other ``OperationalError`` (corrupt schema, disk full, ...) keeps
    its type and is *not* retried — retrying cannot fix it.
    """
    try:
        return fn()
    except _DatabaseLockedError:
        raise
    except sqlite3.OperationalError as exc:
        text = str(exc).lower()
        if "locked" in text or "busy" in text:
            raise _DatabaseLockedError(str(exc)) from exc
        raise


#: Ordered, append-only migration scripts; ``PRAGMA user_version`` records
#: how many have been applied.  Never edit an existing script — append a new
#: one, so any database version on disk upgrades along the same path.
_MIGRATIONS: tuple[str, ...] = (
    # 1: the three core tables
    """
    CREATE TABLE cells (
        config_hash  TEXT PRIMARY KEY,
        key          TEXT NOT NULL,
        schema       INTEGER NOT NULL,
        runner       TEXT NOT NULL,
        master_seed  INTEGER NOT NULL,
        rows         TEXT NOT NULL,
        elapsed      REAL NOT NULL,
        size_bytes   INTEGER NOT NULL,
        created_at   REAL NOT NULL,
        last_used_at REAL NOT NULL
    );
    CREATE TABLE shard_journal (
        fingerprint TEXT NOT NULL,
        shard_index INTEGER NOT NULL,
        config_hash TEXT NOT NULL,
        entry       TEXT NOT NULL,
        created_at  REAL NOT NULL,
        PRIMARY KEY (fingerprint, config_hash)
    );
    CREATE TABLE runs (
        run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
        kind        TEXT NOT NULL,
        figure      TEXT,
        started_at  REAL NOT NULL,
        finished_at REAL NOT NULL,
        summary     TEXT NOT NULL
    );
    """,
    # 2: the indexes behind LRU eviction and journal resume queries
    """
    CREATE INDEX idx_cells_last_used ON cells (last_used_at);
    CREATE INDEX idx_journal_fingerprint ON shard_journal (fingerprint, shard_index);
    """,
    # 3: sharded execution and its journal are gone
    """
    DROP INDEX IF EXISTS idx_journal_fingerprint;
    DROP TABLE IF EXISTS shard_journal;
    """,
)

#: Schema version a freshly created database ends up at.
CELLSTORE_SCHEMA_VERSION = len(_MIGRATIONS)


def _statements(script: str) -> list[str]:
    """Split a migration script into individual SQL statements."""
    return [part.strip() for part in script.split(";") if part.strip()]


def _compact_json(value: Any) -> str:
    """Compact JSON encoding of an already-jsonable value."""
    return json.dumps(value, separators=(",", ":"))


class SQLiteCellStore(CellStore):
    """One WAL-mode SQLite database holding cells and the run ledger.

    Parameters
    ----------
    path:
        Database file.  Use :meth:`for_directory` to follow the CLI
        convention of ``<cache-dir>/cells.sqlite``.
    max_entries, max_bytes:
        Optional bounds on the ``cells`` table (count / cumulative stored
        row-payload bytes).  Eviction is least-recently-used: :meth:`get`
        refreshes ``last_used_at`` on every hit and :meth:`put` deletes the
        stalest entries (never the one just written) with one indexed
        query — no directory scan.
    busy_timeout_ms:
        ``PRAGMA busy_timeout`` — how long one write *attempt* waits on a
        lock before the bounded retry schedule takes over.
    retry_policy:
        Backoff between write attempts on a locked database (defaults to
        :data:`DEFAULT_WRITE_RETRY_POLICY`).  When the schedule is
        exhausted the write degrades to the usual warned miss instead of
        raising — concurrent runs sharing one cache directory never abort
        each other.

    Error contract: construction fails fast with
    :class:`~repro.exceptions.InvalidParameterError` on an unusable path,
    while every later storage failure degrades to a once-warned miss/no-op
    so a grid run keeps computing.
    """

    def __init__(
        self,
        path: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.path = Path(path)
        self.directory = self.path.parent
        self.retry_policy = DEFAULT_WRITE_RETRY_POLICY if retry_policy is None else retry_policy
        if max_entries is not None and int(max_entries) < 1:
            raise InvalidParameterError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and int(max_bytes) < 1:
            raise InvalidParameterError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = None if max_entries is None else int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._evicted = 0
        self._warned: set[tuple[str, int | None]] = set()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.path, timeout=busy_timeout_ms / 1000.0)
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            self._migrate()
        except (OSError, sqlite3.Error) as exc:
            raise InvalidParameterError(
                f"cell store {self.path} is not usable: {exc}"
            ) from exc

    @classmethod
    def for_directory(
        cls,
        directory: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> "SQLiteCellStore":
        """The store backing a cache *directory*: ``<directory>/cells.sqlite``."""
        return cls(
            Path(directory) / DEFAULT_DB_NAME,
            max_entries=max_entries,
            max_bytes=max_bytes,
            retry_policy=retry_policy,
        )

    # ------------------------------------------------------------------ #
    # schema migrations
    # ------------------------------------------------------------------ #
    def schema_version(self) -> int:
        """The database's current migration level (``PRAGMA user_version``)."""
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def _migrate(self) -> None:
        """Apply every migration the database has not seen yet, in order."""
        version = self.schema_version()
        if version > len(_MIGRATIONS):
            raise InvalidParameterError(
                f"cell store {self.path} has schema version {version}, newer than "
                f"this library's {CELLSTORE_SCHEMA_VERSION}; refusing to touch it"
            )
        for number in range(version + 1, len(_MIGRATIONS) + 1):
            self._retry_write("migrate", functools.partial(self._apply_migration, number))

    def _apply_migration(self, number: int) -> None:
        """Apply migration ``number`` unless a concurrent opener already has.

        One transaction per migration: a crash mid-upgrade leaves the
        database at the previous consistent version, not in between.  The
        version is re-read under the write lock because several processes
        may open a fresh database at the same moment.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            if self.schema_version() < number:
                for statement in _statements(_MIGRATIONS[number - 1]):
                    self._conn.execute(statement)
                self._conn.execute(f"PRAGMA user_version = {number}")
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------ #
    # shared plumbing
    # ------------------------------------------------------------------ #
    def _warn_io(self, action: str, exc: Exception) -> None:
        """Warn once per ``(action, errno)`` category that storage I/O fails.

        A boolean guard would let the first failure (say, a locked read)
        permanently suppress reports of later, differently-caused failures
        (a full disk on write); keying on the category surfaces each
        distinct failure mode exactly once per store instance.  sqlite3
        errors carry no ``errno``, so they key on ``(action, None)``.
        """
        category = (action, getattr(exc, "errno", None))
        if category in self._warned:
            return
        self._warned.add(category)
        warnings.warn(
            f"cell store {action} failed for {self.path} ({exc}); "
            "continuing without the store (cells are recomputed, not persisted)",
            RuntimeWarning,
            stacklevel=3,
        )

    def _retry_write(self, action: str, fn: Callable[[], T]) -> T:
        """Run one write transaction, retrying briefly while the DB is locked.

        ``SQLITE_BUSY``/``SQLITE_LOCKED`` surviving the short per-attempt
        ``busy_timeout`` is retried on the bounded backoff schedule of
        ``self.retry_policy`` (jitter deterministically keyed on
        ``action``); the final failure propagates so each caller's usual
        warned-miss degrade path handles it.  Non-lock errors are never
        retried.
        """
        return retry_call(
            lambda: _tag_locked(fn),
            self.retry_policy,
            key=action,
            retry_on=(_DatabaseLockedError,),
        )

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close never fails in practice
            pass

    def __enter__(self) -> "SQLiteCellStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the cells table (the CellStore seam)
    # ------------------------------------------------------------------ #
    def get(self, cell: GridCell) -> "list[dict[str, Any]] | None":
        """Cached rows of ``cell``, or ``None`` on a miss.

        A hit refreshes the entry's ``last_used_at`` (best-effort), so a
        bounded store evicts stale entries before hot ones.
        """
        try:
            row = self._conn.execute(
                "SELECT key, master_seed, rows FROM cells WHERE config_hash = ?",
                (cell.config_hash,),
            ).fetchone()
        except sqlite3.Error as exc:
            self._warn_io("read", exc)
            return None
        if row is None:
            return None
        # guard against (astronomically unlikely) hash collisions and
        # tampered entries
        if row["key"] != cell.key or int(row["master_seed"]) != int(cell.master_seed):
            return None
        try:
            rows = json.loads(row["rows"])
        except (json.JSONDecodeError, TypeError):
            return None
        if not isinstance(rows, list):
            return None
        try:
            with self._conn:
                self._conn.execute(
                    "UPDATE cells SET last_used_at = ? WHERE config_hash = ?",
                    (time.time(), cell.config_hash),
                )
        except sqlite3.Error:
            pass  # the LRU refresh is best-effort
        return rows

    def put(
        self, cell: GridCell, rows: Sequence[Mapping[str, Any]], elapsed: float
    ) -> "Path | None":
        """Persist the rows of a freshly computed cell.

        Returns the database path, or ``None`` when the write failed (the
        run continues uncached).
        """
        payload = _compact_json([_jsonable(row) for row in rows])
        now = time.time()

        def write() -> None:
            with self._conn:
                self._conn.execute(
                    """
                    INSERT INTO cells (config_hash, key, schema, runner, master_seed,
                                       rows, elapsed, size_bytes, created_at, last_used_at)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    ON CONFLICT(config_hash) DO UPDATE SET
                        rows = excluded.rows,
                        elapsed = excluded.elapsed,
                        size_bytes = excluded.size_bytes,
                        last_used_at = excluded.last_used_at
                    """,
                    (
                        cell.config_hash,
                        cell.key,
                        GRID_SCHEMA_VERSION,
                        cell.runner,
                        int(cell.master_seed),
                        payload,
                        float(elapsed),
                        len(payload.encode("utf-8")),
                        now,
                        now,
                    ),
                )

        try:
            self._retry_write("write", write)
        except sqlite3.Error as exc:
            self._warn_io("write", exc)
            return None
        self._enforce_bounds(protect=cell.config_hash)
        return self.path

    def _enforce_bounds(self, protect: "str | None" = None) -> None:
        """Evict least-recently-used cells until the configured bounds hold.

        One indexed pass over ``last_used_at`` order — no directory scan;
        the entry named by ``protect`` (the one just written) survives.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        try:
            count, total = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0) FROM cells"
            ).fetchone()
            doomed: list[tuple[str]] = []
            if (self.max_entries is not None and count > self.max_entries) or (
                self.max_bytes is not None and total > self.max_bytes
            ):
                for row in self._conn.execute(
                    "SELECT config_hash, size_bytes FROM cells "
                    "ORDER BY last_used_at, rowid"
                ):
                    over_entries = (
                        self.max_entries is not None and count > self.max_entries
                    )
                    over_bytes = self.max_bytes is not None and total > self.max_bytes
                    if not (over_entries or over_bytes):
                        break
                    if row["config_hash"] == protect:
                        continue
                    doomed.append((row["config_hash"],))
                    count -= 1
                    total -= int(row["size_bytes"])
            if doomed:

                def delete() -> None:
                    with self._conn:
                        self._conn.executemany(
                            "DELETE FROM cells WHERE config_hash = ?", doomed
                        )

                self._retry_write("eviction", delete)
                self._evicted += len(doomed)
        except sqlite3.Error as exc:
            self._warn_io("eviction", exc)

    def stats(self) -> dict[str, Any]:
        """Current store occupancy, configured bounds and table sizes."""
        try:
            entries, total = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0) FROM cells"
            ).fetchone()
            runs = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            version = self.schema_version()
        except sqlite3.Error as exc:
            self._warn_io("stats", exc)
            entries = total = runs = version = 0
        return {
            "directory": str(self.directory),
            "path": str(self.path),
            "entries": int(entries),
            "total_bytes": int(total),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "evicted": self._evicted,
            "runs": int(runs),
            "schema_version": int(version),
        }

    def __len__(self) -> int:
        try:
            return int(self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0])
        except sqlite3.Error as exc:
            self._warn_io("read", exc)
            return 0

    # ------------------------------------------------------------------ #
    # the runs ledger
    # ------------------------------------------------------------------ #
    def record_run(
        self,
        kind: str,
        figure: str | None = None,
        summary: Mapping[str, Any] | None = None,
        started_at: float | None = None,
        finished_at: float | None = None,
    ) -> int | None:
        """Append one invocation to the run ledger; returns its ``run_id``.

        ``kind`` names the entry point (``"run_grid"``, ...); ``summary``
        is any JSON-able execution summary.  Failures degrade to ``None`` —
        the ledger is bookkeeping, never a reason to fail a finished run.
        """
        now = time.time()

        def append() -> "int | None":
            with self._conn:
                cursor = self._conn.execute(
                    "INSERT INTO runs (kind, figure, started_at, finished_at, summary) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        str(kind),
                        None if figure is None else str(figure),
                        now if started_at is None else float(started_at),
                        now if finished_at is None else float(finished_at),
                        _compact_json(_jsonable(dict(summary or {}))),
                    ),
                )
            row_id = cursor.lastrowid  # None only on a non-INSERT cursor
            return None if row_id is None else int(row_id)

        try:
            return self._retry_write("ledger append", append)
        except sqlite3.Error as exc:
            self._warn_io("ledger append", exc)
            return None

    def runs_ledger(
        self, limit: int | None = None, kind: str | None = None
    ) -> list[dict[str, Any]]:
        """The ledger, newest first (optionally filtered / truncated)."""
        query = "SELECT run_id, kind, figure, started_at, finished_at, summary FROM runs"
        params: list[Any] = []
        if kind is not None:
            query += " WHERE kind = ?"
            params.append(str(kind))
        query += " ORDER BY run_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        try:
            rows = self._conn.execute(query, params).fetchall()
        except sqlite3.Error as exc:
            self._warn_io("ledger read", exc)
            return []
        ledger: list[dict[str, Any]] = []
        for row in rows:
            try:
                summary = json.loads(row["summary"])
            except (json.JSONDecodeError, TypeError):
                summary = None
            ledger.append(
                {
                    "run_id": int(row["run_id"]),
                    "kind": row["kind"],
                    "figure": row["figure"],
                    "started_at": float(row["started_at"]),
                    "finished_at": float(row["finished_at"]),
                    "summary": summary,
                }
            )
        return ledger
