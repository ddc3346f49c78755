"""Sharded, resumable grid execution.

A figure's cell plan can be split into ``N`` deterministic shards that
execute in *separate invocations* — different processes on one host, or
different points in time — and merge back into the canonical figure
artifact.  Every shard invocation of a plan journals its completed cells
into the workspace's one WAL-mode :data:`SHARD_DB_NAME` database (SQLite
WAL needs all writers on one host; spreading cells across machines is the
job of :class:`repro.experiments.remote.RemoteExecutor`):

* :func:`shard_positions` assigns cells to shards round-robin over the plan
  order, so any ``(shards, shard_index)`` pair names the same subset on every
  invocation of the same plan;
* :func:`run_shard` executes one shard resumably: cells of the same
  :func:`plan_fingerprint` already in the journal are *resumed* instead of
  recomputed, so an interrupted invocation picks up where it stopped;
* :func:`journal_artifacts` reads the journal back as one in-memory partial
  artifact per shard, and :func:`merge_artifacts` combines such artifacts —
  in any order, from any shard count — into the full plan's rows, with
  completeness checking that names the missing cells instead of silently
  truncating;
* :class:`ShardedExecutor` plugs the whole cycle behind the
  :class:`repro.experiments.grid.Executor` seam, launching one
  ``python -m repro.experiments.shard_worker`` subprocess per shard (or
  running shards inline) and merging the journal back into the grid result.

Because every cell derives its random stream from the master seed and its
own key alone (independent of placement), sharded execution is byte-identical
to serial and process-pool execution; ``tests/experiments/test_executors.py``
enforces this.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from .cellstore import SQLiteCellStore

from ..exceptions import GridExecutionError, InvalidParameterError, ShardMergeError
from .grid import (
    GRID_SCHEMA_VERSION,
    CellOutcome,
    CellStore,
    Executor,
    GridCell,
    RecordFn,
    _jsonable,
    canonical_json,
    run_grid,
)

#: File name of the serialized plan inside a shard directory.
PLAN_FILE = "plan.json"

#: Database file holding a workspace's shard completion journal: every
#: shard invocation of a plan appends its completed cells to this one
#: WAL-mode database, and the merge reads the journal back with one query
#: per plan fingerprint.
SHARD_DB_NAME = "shards.sqlite"


def workspace_store(directory: str | Path) -> "SQLiteCellStore":
    """Open (creating if needed) a workspace's shard-journal database.

    The journal is *not* a cell cache: it holds shard completion records
    keyed by plan fingerprint, lives at a fixed path inside the workspace,
    and has no bounds — so ``CellStore.from_options`` (which wires
    user-facing cache options) is deliberately not involved.
    """
    from .cellstore import SQLiteCellStore

    return SQLiteCellStore(  # reprolint: disable=REPRO401
        Path(directory) / SHARD_DB_NAME
    )


# --------------------------------------------------------------------------- #
# plan identity and shard assignment
# --------------------------------------------------------------------------- #
def plan_fingerprint(cells: Sequence[GridCell]) -> str:
    """Content hash identifying a cell plan (order-sensitive).

    Two invocations agree on shard membership and merge validity iff they
    agree on this fingerprint, which covers the grid schema version and every
    cell's full configuration in plan order.
    """
    payload = canonical_json(
        {
            "schema": GRID_SCHEMA_VERSION,
            "cells": [cell.payload() for cell in cells],
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def validate_shards(shards: int, shard_index: int | None = None) -> int:
    """Validate a shard count (and optionally an index into it)."""
    if int(shards) < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    shards = int(shards)
    if shard_index is not None and not 0 <= int(shard_index) < shards:
        raise InvalidParameterError(
            f"shard_index must be in [0, {shards}), got {shard_index}"
        )
    return shards


def shard_positions(n_cells: int, shards: int, shard_index: int) -> list[int]:
    """Plan positions assigned to ``shard_index`` (round-robin over order)."""
    shards = validate_shards(shards, shard_index)
    return list(range(int(shard_index), int(n_cells), shards))


def plan_workspace(root: str | Path, cells: Sequence[GridCell]) -> Path:
    """Per-plan shard workspace inside a shared ``root`` directory.

    Keyed by the plan fingerprint, so one persistent root serves many plans
    (figures, scales, seeds) without their plan files colliding.
    Both the CLI shard paths and :class:`ShardedExecutor` resolve workspaces
    through this helper, so they agree on the layout.
    """
    return Path(root) / plan_fingerprint(cells)[:16]


# --------------------------------------------------------------------------- #
# plan files and journal artifacts
# --------------------------------------------------------------------------- #
def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory, so a fresh rename survives power loss.

    Platforms that cannot open directories for fsync (e.g. Windows) simply
    skip this step — it strengthens durability, never correctness.
    """
    fd = None
    try:
        fd = os.open(directory, os.O_RDONLY)
        os.fsync(fd)
    except OSError:
        pass
    finally:
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass


def _write_json_atomic(path: Path, payload: Any) -> Path:
    """Write ``payload`` as JSON via a temp file + fsync + ``os.replace``.

    Crash-atomic: readers never observe a torn file, and the temp file is
    fsynced *before* the rename (plus a best-effort fsync of the directory
    after it) so a power loss cannot surface an empty or torn renamed file.
    Used for plan files, which concurrent invocations may race to write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def write_plan(directory: str | Path, cells: Sequence[GridCell], shards: int) -> Path:
    """Persist the plan file a shard worker needs to recreate the cells.

    Idempotent for the same plan; a *different* plan already occupying the
    directory is an operator error (its shard workers would load the wrong
    cells) and raises instead of silently overwriting.
    """
    shards = validate_shards(shards)
    fingerprint = plan_fingerprint(cells)
    path = Path(directory) / PLAN_FILE
    if path.exists():
        existing = load_plan(path)
        if existing["plan_hash"] != fingerprint or existing["shards"] != shards:
            raise InvalidParameterError(
                f"shard directory {directory} already holds a different plan "
                f"(hash {existing['plan_hash'][:12]}..., {existing['shards']} shards); "
                "use a fresh directory per (figure, scale, seed, shard count)"
            )
        return path
    return _write_json_atomic(
        path,
        {
            "schema": GRID_SCHEMA_VERSION,
            "plan_hash": fingerprint,
            "shards": shards,
            "cells": [cell.payload() for cell in cells],
        },
    )


def load_plan(path: str | Path) -> dict[str, Any]:
    """Load a plan file into ``{plan_hash, shards, cells: [GridCell, ...]}``."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"cannot read plan file {path}: {exc}") from exc
    try:
        cells = [GridCell.from_payload(entry) for entry in payload["cells"]]
        plan = {
            "schema": int(payload["schema"]),
            "plan_hash": str(payload["plan_hash"]),
            "shards": validate_shards(payload["shards"]),
            "cells": cells,
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed plan file {path}: {exc}") from exc
    if plan["schema"] != GRID_SCHEMA_VERSION:
        raise InvalidParameterError(
            f"plan file {path} has grid schema {plan['schema']}, "
            f"this library uses {GRID_SCHEMA_VERSION}"
        )
    return plan


def journal_artifacts(
    store: "SQLiteCellStore", fingerprint: str, shards: int
) -> list[dict[str, Any]]:
    """Reassemble per-shard in-memory artifacts from a journal database.

    One ``shard_journal`` query per plan fingerprint; the returned mappings
    (``plan_hash``, ``shards``, ``shard_index``, ``entries``, ``path``) feed
    straight into :func:`merge_artifacts`.
    """
    shards = validate_shards(shards)
    entries_by_shard: dict[int, list[dict[str, Any]]] = {
        index: [] for index in range(shards)
    }
    for shard_index, entry in store.journal_records(fingerprint):
        entries_by_shard.setdefault(shard_index, []).append(entry)
    return [
        {
            "schema": GRID_SCHEMA_VERSION,
            "plan_hash": fingerprint,
            "shards": shards,
            "shard_index": shard_index,
            "entries": entries,
            "path": f"{store.path}#shard-{shard_index}",
        }
        for shard_index, entries in sorted(entries_by_shard.items())
    ]


def _cell_descriptor(entry: Mapping[str, Any]) -> str:
    """Human-readable identity of a cell in error messages."""
    return f"{entry['runner']}:{canonical_json(entry.get('params', {}))}"


# --------------------------------------------------------------------------- #
# executing one shard (resumably)
# --------------------------------------------------------------------------- #
@dataclass
class ShardRunResult:
    """Outcome of one :func:`run_shard` invocation."""

    path: Path
    plan_hash: str
    shards: int
    shard_index: int
    cells: int
    computed: int
    resumed: int
    from_cache: int
    deduplicated: int

    def summary(self) -> dict[str, Any]:
        """JSON-serializable invocation summary (printed by the CLI)."""
        return {
            "shard_index": self.shard_index,
            "shards": self.shards,
            "plan_hash": self.plan_hash,
            "cells": self.cells,
            "computed": self.computed,
            "resumed": self.resumed,
            "from_cache": self.from_cache,
            "deduplicated": self.deduplicated,
            "journal": str(self.path),
        }


def run_shard(
    cells: Sequence[GridCell],
    shards: int,
    shard_index: int,
    directory: str | Path,
    *,
    workers: int = 1,
    cache: "CellStore | str | Path | None" = None,
    resume: bool = True,
) -> ShardRunResult:
    """Execute one shard of a plan and journal its completed cells.

    Every completed cell is committed to the workspace's
    :data:`SHARD_DB_NAME` journal as it finishes; concurrent shard
    invocations append to the same database (WAL mode plus
    ``busy_timeout`` serialize them).  Resumable: any entry of the *same*
    plan fingerprint already in the journal — whichever invocation computed
    it — is reused (``resumed``) and only the missing cells are recomputed,
    so re-invoking an interrupted shard finishes the remainder.
    ``resume=False`` first drops this shard's journal rows (other shards'
    completed work stays valid).
    """
    cells = list(cells)
    shards = validate_shards(shards, shard_index)
    fingerprint = plan_fingerprint(cells)

    def journal(outcome: CellOutcome) -> None:
        store.journal_append(
            fingerprint,
            shard_index,
            {
                "config_hash": outcome.cell.config_hash,
                "key": outcome.cell.key,
                "figure": outcome.cell.figure,
                "runner": outcome.cell.runner,
                "params": outcome.cell.payload()["params"],
                # runners may return numpy scalars; store plain JSON types
                "rows": _jsonable(outcome.rows),
                "elapsed": outcome.elapsed,
                "source": outcome.source,
            },
        )

    with workspace_store(directory) as store:
        previous: dict[str, dict[str, Any]] = {}
        if resume:
            previous = store.journal_entries(fingerprint)
        else:
            store.journal_clear(fingerprint, shard_index=shard_index)

        # duplicate work inside the shard is computed once (first occurrence)
        seen: set[str] = set()
        missing: list[GridCell] = []
        resumed = 0
        mine = 0
        duplicates = 0
        for position in shard_positions(len(cells), shards, shard_index):
            cell = cells[position]
            mine += 1
            config_hash = cell.config_hash
            if config_hash in seen:
                duplicates += 1
            elif config_hash in previous:
                resumed += 1
                # re-journaled so the merge reports the cell as resumed
                entry = {**previous[config_hash], "source": "resumed"}
                store.journal_append(fingerprint, shard_index, entry)
            else:
                missing.append(cell)
            seen.add(config_hash)

        result = (
            run_grid(missing, workers=workers, cache=cache, on_cell_complete=journal)
            if missing
            else None
        )
        if result is not None:
            # cells served by the cache stage never hit the completion hook
            for outcome in result.outcomes:
                if outcome.source == "cache":
                    journal(outcome)
    return ShardRunResult(
        path=store.path,
        plan_hash=fingerprint,
        shards=shards,
        shard_index=shard_index,
        cells=mine,
        computed=result.computed if result is not None else 0,
        resumed=resumed,
        from_cache=result.from_cache if result is not None else 0,
        deduplicated=duplicates + (result.deduplicated if result is not None else 0),
    )


# --------------------------------------------------------------------------- #
# merging partial artifacts
# --------------------------------------------------------------------------- #
@dataclass
class MergedShards:
    """Full-plan rows reassembled from per-shard partial artifacts."""

    rows: list[dict[str, Any]]
    outcomes: list[CellOutcome]
    plan_hash: str
    artifacts: list[str]

    @property
    def n_cells(self) -> int:
        return len(self.outcomes)

    def summary(self) -> dict[str, Any]:
        """JSON-serializable merge summary (mirrors ``GridResult.summary``)."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.source] = counts.get(outcome.source, 0) + 1
        return {
            "cells": self.n_cells,
            "computed": counts.get("computed", 0),
            "from_cache": counts.get("cache", 0),
            "deduplicated": counts.get("dedup", 0),
            "resumed": counts.get("resumed", 0),
            "missing": 0,  # merge_artifacts raises on incomplete plans
            "workers": 0,  # the merge itself executes nothing
            "executor": "merged-shards",
            "plan_hash": self.plan_hash,
            "artifacts": list(self.artifacts),
            # summed per-cell compute time — NOT wall clock (the shards ran
            # in other invocations), hence not named elapsed_seconds
            "cell_seconds_total": sum(outcome.elapsed for outcome in self.outcomes),
        }


def merge_artifacts(
    cells: Sequence[GridCell],
    artifacts: Sequence[Mapping[str, Any]],
) -> MergedShards:
    """Merge per-shard partial artifacts into the plan's canonical rows.

    An artifact is a mapping with the plan's ``plan_hash`` and the shard's
    ``entries`` (``config_hash``, ``runner``, ``params``, ``rows``, ...), as
    :func:`journal_artifacts` returns them.

    The merge is keyed by cell config hash and reassembles rows in *plan
    order*, so it is invariant to the order the artifacts are given in and
    to the shard count that produced them (merging a 2-way and a 3-way split
    of the same plan yields identical rows).  Safety properties:

    * an artifact or entry lacking a required field is rejected;
    * every artifact must carry the plan's fingerprint (stale or foreign
      partials are rejected);
    * a cell appearing in several artifacts with *identical* rows is fine
      (re-merges and overlapping resumed runs are idempotent); differing rows
      raise :class:`ShardMergeError` naming the conflicting cells;
    * planned cells absent from every artifact raise :class:`ShardMergeError`
      naming the absent configs — never a bare ``KeyError``, never a silently
      truncated figure.
    """
    cells = list(cells)
    fingerprint = plan_fingerprint(cells)
    loaded = list(artifacts)

    for artifact in loaded:
        name = artifact.get("path", "<in-memory>")
        for field in ("plan_hash", "entries"):
            if field not in artifact:
                raise ShardMergeError(f"shard artifact {name} lacks the {field!r} field")
        for entry in artifact["entries"]:
            if "config_hash" not in entry or "rows" not in entry:
                raise ShardMergeError(
                    f"shard artifact {name} has an entry that lacks "
                    "'config_hash' or 'rows'"
                )
        if str(artifact["plan_hash"]) != fingerprint:
            raise ShardMergeError(
                f"shard artifact {artifact.get('path', '<in-memory>')} belongs to a "
                f"different plan (hash {str(artifact['plan_hash'])[:12]}... != "
                f"{fingerprint[:12]}...)"
            )

    by_hash: dict[str, dict[str, Any]] = {}
    conflicting: list[str] = []
    for artifact in loaded:
        for entry in artifact["entries"]:
            config_hash = str(entry["config_hash"])
            if config_hash in by_hash:
                ours = canonical_json(by_hash[config_hash]["rows"])
                theirs = canonical_json(entry["rows"])
                if ours != theirs:
                    conflicting.append(_cell_descriptor(entry))
                continue
            by_hash[config_hash] = dict(entry)
    if conflicting:
        raise ShardMergeError(
            f"{len(conflicting)} cells appear in several shard artifacts with "
            f"differing rows (e.g. {conflicting[0]}); the partials mix "
            "incompatible runs",
            conflicting=conflicting,
        )

    missing = [cell for cell in cells if cell.config_hash not in by_hash]
    if missing:
        descriptors = [
            _cell_descriptor({"runner": cell.runner, "params": cell.params})
            for cell in missing
        ]
        shown = "; ".join(descriptors[:5]) + ("; ..." if len(descriptors) > 5 else "")
        raise ShardMergeError(
            f"{len(missing)} of {len(cells)} planned cells are absent from the "
            f"merged shard artifacts: {shown}",
            missing=descriptors,
        )

    outcomes = [
        CellOutcome(
            cell=cell,
            rows=list(by_hash[cell.config_hash]["rows"]),
            elapsed=float(by_hash[cell.config_hash].get("elapsed", 0.0)),
            source=str(by_hash[cell.config_hash].get("source", "computed")),
        )
        for cell in cells
    ]
    rows: list[dict[str, Any]] = []
    for outcome in outcomes:
        rows.extend(outcome.rows)
    return MergedShards(
        rows=rows,
        outcomes=outcomes,
        plan_hash=fingerprint,
        artifacts=[str(artifact.get("path", "<in-memory>")) for artifact in loaded],
    )


# --------------------------------------------------------------------------- #
# workspace garbage collection
# --------------------------------------------------------------------------- #
#: Default GC age threshold: workspaces untouched for a week are orphans.
DEFAULT_GC_MAX_AGE_SECONDS = 7 * 24 * 3600.0


def _newest_mtime(directory: Path) -> float:
    """Most recent modification time of a workspace or anything inside it.

    A concurrent invocation that still owns the workspace keeps appending to
    its journal database (and its WAL file), so *any* fresh file (not just
    the old ``plan.json``) must protect the whole workspace from the sweep.
    """
    try:
        newest = directory.stat().st_mtime
    except OSError:
        return float("-inf")
    for child in directory.rglob("*"):
        try:
            newest = max(newest, child.stat().st_mtime)
        except OSError:
            continue
    return newest


def gc_shard_workspaces(
    root: str | Path,
    max_age_seconds: float = DEFAULT_GC_MAX_AGE_SECONDS,
    *,
    now: float | None = None,
) -> dict[str, Any]:
    """Sweep orphaned per-plan shard workspaces under a persistent root.

    Interrupted cached ``--shards N`` runs can leave per-pending-set
    workspaces behind (successful unbounded-cache runs prune their own).
    This sweep removes every workspace directory whose newest content is
    older than ``max_age_seconds`` and **never** touches younger ones — a
    workspace an active concurrent run owns is protected because that run
    keeps refreshing its journal.  Returns a JSON-able
    summary naming the removed and kept workspaces.
    """
    if float(max_age_seconds) < 0:
        raise InvalidParameterError(
            f"max_age_seconds must be >= 0, got {max_age_seconds}"
        )
    root = Path(root)
    reference = time.time() if now is None else float(now)
    removed: list[str] = []
    kept: list[str] = []
    if root.is_dir():
        for entry in sorted(root.iterdir()):
            if not entry.is_dir():
                continue  # stray files are not workspaces; leave them alone
            age = reference - _newest_mtime(entry)
            if age > float(max_age_seconds):
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry.name)
            else:
                kept.append(entry.name)
    return {
        "root": str(root),
        "max_age_seconds": float(max_age_seconds),
        "removed": removed,
        "kept": kept,
    }


# --------------------------------------------------------------------------- #
# the sharded executor
# --------------------------------------------------------------------------- #
def _worker_env() -> dict[str, str]:
    """Environment for shard-worker subprocesses (repro importable)."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


class ShardedExecutor(Executor):
    """Execute a grid as ``N`` shard invocations and merge their journal.

    Each shard runs as a separate ``python -m repro.experiments.shard_worker``
    subprocess (``launch="subprocess"``, the default — the same entrypoint a
    cluster scheduler would launch per machine) or inline in this process
    (``launch="inline"``, no interpreter startup cost).  The plan file and
    the :data:`SHARD_DB_NAME` journal land under ``directory``, in a
    per-plan subdirectory named after the plan fingerprint — so one
    persistent directory can serve many grids (a whole benchmark sweep) and
    a changed pending-cell set (e.g. after cache eviction) starts a fresh
    workspace instead of colliding with the old plan.  Giving a persistent
    directory makes a run resumable — a re-invocation of the same plan
    skips every cell already in the journal — while ``None`` uses a
    temporary directory discarded after the merge.

    ``workers`` is the per-shard process-pool size handed to each shard's
    ``run_grid`` call; subprocess shards additionally run concurrently with
    each other.  ``cache_dir`` hands every shard worker the shared on-disk
    cell store, so cells computed by the shards that *did* finish survive
    an interrupted run even without a persistent ``directory`` (matching
    the in-process executors, which cache per completion).
    """

    def __init__(
        self,
        shards: int,
        *,
        directory: "str | Path | None" = None,
        launch: str = "subprocess",
        workers: int = 1,
        python: str | None = None,
        cache_dir: "str | Path | None" = None,
        cache_max_entries: int | None = None,
        cache_max_bytes: int | None = None,
    ) -> None:
        self.shards = validate_shards(shards)
        if launch not in ("subprocess", "inline"):
            raise InvalidParameterError(
                f"launch must be 'subprocess' or 'inline', got {launch!r}"
            )
        if int(workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.directory = None if directory is None else Path(directory)
        self.launch = launch
        self.workers = int(workers)
        self.python = python or sys.executable
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.cache_max_entries = cache_max_entries
        self.cache_max_bytes = cache_max_bytes

    @property
    def total_workers(self) -> int:
        """Configured parallelism across all shards (for run summaries)."""
        return self.shards * self.workers

    def execute(self, tasks: Sequence[tuple[int, GridCell]], record: RecordFn) -> None:
        tasks = list(tasks)
        cells = [cell for _, cell in tasks]
        if self.directory is not None:
            # per-plan workspace: many plans can share one persistent root
            self._execute_in(plan_workspace(self.directory, cells), tasks, cells, record)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as scratch:
                self._execute_in(Path(scratch), tasks, cells, record)

    def _execute_in(
        self,
        directory: Path,
        tasks: list[tuple[int, GridCell]],
        cells: list[GridCell],
        record: RecordFn,
    ) -> None:
        plan_path = write_plan(directory, cells, self.shards)
        if self.launch == "inline":
            cache = CellStore.from_options(
                self.cache_dir,
                max_entries=self.cache_max_entries,
                max_bytes=self.cache_max_bytes,
            )
            try:
                for shard_index in range(self.shards):
                    run_shard(
                        cells,
                        self.shards,
                        shard_index,
                        directory,
                        workers=self.workers,
                        cache=cache,
                    )
            finally:
                if cache is not None:
                    cache.close()
        else:
            self._launch_subprocesses(plan_path, directory)
        with workspace_store(directory) as store:
            artifacts = journal_artifacts(store, plan_fingerprint(cells), self.shards)
        merged = merge_artifacts(cells, artifacts)
        for (index, _), outcome in zip(tasks, merged.outcomes):
            # preserve worker-side provenance ("cache" hits, "resumed"
            # cells) so the parent summary reports it truthfully
            source = outcome.source if outcome.source in ("cache", "resumed") else "computed"
            record(index, outcome.rows, outcome.elapsed, source)
        if (
            self.directory is not None
            and self.cache_dir is not None
            and self.cache_max_entries is None
            and self.cache_max_bytes is None
        ):
            # every merged cell now lives in the (unbounded) shared cell
            # cache, which makes the shard journal redundant — prune the
            # per-plan workspace so persistent roots do not accumulate one
            # directory per pending-set variant.  Without a cache — or with
            # a bounded one that may evict the cells — the workspace remains
            # the resume state, so it is kept.
            shutil.rmtree(directory, ignore_errors=True)

    def _worker_command(self, plan_path: Path, directory: Path, shard_index: int) -> list[str]:
        command = [
            self.python,
            "-m",
            "repro.experiments.shard_worker",
            "--plan",
            str(plan_path),
            "--shard-index",
            str(shard_index),
            "--dir",
            str(directory),
            "--workers",
            str(self.workers),
        ]
        if self.cache_dir is not None:
            command += ["--cache-dir", str(self.cache_dir)]
            if self.cache_max_entries is not None:
                command += ["--cache-max-entries", str(self.cache_max_entries)]
            if self.cache_max_bytes is not None:
                command += ["--cache-max-bytes", str(self.cache_max_bytes)]
        return command

    def _launch_subprocesses(self, plan_path: Path, directory: Path) -> None:
        env = _worker_env()
        # cap concurrent shard workers so shards x per-shard pool workers
        # cannot oversubscribe the machine; a sliding window (not waves)
        # starts the next shard the moment any running one exits.  Worker
        # stderr goes to files, not pipes, so a chatty worker can never
        # dead-lock against an unread pipe buffer.
        concurrency = max(1, (os.cpu_count() or 4) // self.workers)
        pending = list(range(self.shards))
        running: list[tuple[int, "subprocess.Popen[bytes]", Path]] = []
        failures: list[str] = []
        try:
            while pending or running:
                while pending and len(running) < concurrency:
                    shard_index = pending.pop(0)
                    stderr_path = directory / f".shard-{shard_index:04d}.stderr"
                    with open(stderr_path, "wb") as stderr_handle:
                        process = subprocess.Popen(
                            self._worker_command(plan_path, directory, shard_index),
                            env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=stderr_handle,
                        )
                    running.append((shard_index, process, stderr_path))
                still_running: list[tuple[int, "subprocess.Popen[bytes]", Path]] = []
                for shard_index, process, stderr_path in running:
                    if process.poll() is None:
                        still_running.append((shard_index, process, stderr_path))
                        continue
                    if process.returncode != 0:
                        try:
                            lines = stderr_path.read_text(errors="replace").strip().splitlines()
                        except OSError:
                            lines = []
                        tail = "\n".join(lines[-5:])
                        failures.append(
                            f"shard {shard_index} exited {process.returncode}: {tail}"
                        )
                    stderr_path.unlink(missing_ok=True)
                running = still_running
                if running:
                    time.sleep(0.05)
        finally:
            for _, process, _ in running:  # only on an unexpected exception
                process.kill()
        if failures:
            raise GridExecutionError(
                f"{len(failures)} of {self.shards} shard workers failed — "
                + " | ".join(failures)
            )
