"""Unit tests for the lease-based remote executor.

Lease mechanics (expiry, stealing, dedup, conflicts, backoff) are tested on
:class:`LeaseTable` directly with a hand-advanced clock — no sleeping, no
timing races.  End-to-end tests run in-process worker threads against a real
coordinator and assert byte-identical artifacts with the serial engine.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.retry import RetryPolicy
from repro.exceptions import GridExecutionError, InvalidParameterError
from repro.experiments.grid import GridCell, SerialExecutor, cell_runner, run_grid
from repro.experiments.remote import (
    DEFAULT_SHUTDOWN_GRACE,
    ChaosConfig,
    LeaseTable,
    RemoteExecutor,
    parse_chaos,
    parse_listen,
    wait_for_worker_exit,
    worker_loop,
)


@cell_runner("_test_remote_echo")
def _remote_echo_cell(params, rng):
    # deterministic per-cell rows that actually consume the derived stream
    return [{"value": params.get("value", 0), "draw": float(rng.random())}]


@cell_runner("_test_remote_boom")
def _remote_boom_cell(params, rng):
    raise RuntimeError("cell exploded")


def cell(value: int, runner: str = "_test_remote_echo") -> GridCell:
    return GridCell(
        figure="f", runner=runner, params={"value": value}, master_seed=42
    )


def tasks(n: int) -> list[tuple[int, GridCell]]:
    return [(i, cell(i)) for i in range(n)]


FAST = RetryPolicy(max_retries=3, base_delay=0.001, max_delay=0.002, jitter=0.0)


# --------------------------------------------------------------------------- #
# chaos parsing
# --------------------------------------------------------------------------- #
class TestParseChaos:
    def test_empty_is_inactive(self) -> None:
        assert not parse_chaos(None).active
        assert not parse_chaos("").active
        assert not parse_chaos("  ").active

    def test_single_directives(self) -> None:
        assert parse_chaos("kill_after:3").kill_after == 3
        assert parse_chaos("drop_heartbeat:2").drop_heartbeat == 2
        assert parse_chaos("delay_completion:1.5").delay_completion == 1.5

    def test_combined_directives(self) -> None:
        chaos = parse_chaos("kill_after:3, drop_heartbeat:2")
        assert chaos.kill_after == 3
        assert chaos.drop_heartbeat == 2
        assert chaos.delay_completion is None

    def test_scope_matches_worker_index(self) -> None:
        assert parse_chaos("kill_after:3@0", worker_index=0).kill_after == 3
        assert parse_chaos("kill_after:3@0", worker_index=1).kill_after is None
        assert parse_chaos("kill_after:3@0", worker_index=None).kill_after is None

    def test_scoped_directive_beside_unscoped(self) -> None:
        chaos = parse_chaos("kill_after:3,drop_heartbeat:2@1", worker_index=1)
        assert chaos.kill_after == 3
        assert chaos.drop_heartbeat == 2
        other = parse_chaos("kill_after:3,drop_heartbeat:2@1", worker_index=0)
        assert other.kill_after == 3
        assert other.drop_heartbeat is None

    @pytest.mark.parametrize(
        "value",
        [
            "explode:1",  # unknown directive
            "kill_after",  # missing argument
            "kill_after:",  # empty argument
            "kill_after:x",  # non-integer
            "kill_after:-1",  # negative
            "drop_heartbeat:0",  # must be >= 1
            "delay_completion:-0.5",  # negative
            "kill_after:3@zero",  # non-integer scope
        ],
    )
    def test_malformed_directives_fail_loudly(self, value: str) -> None:
        with pytest.raises(InvalidParameterError):
            parse_chaos(value, worker_index=0)

    def test_from_env_reads_scope(self) -> None:
        env = {"REPRO_CHAOS": "kill_after:2@1", "REPRO_WORKER_INDEX": "1"}
        assert ChaosConfig.from_env(env).kill_after == 2
        env["REPRO_WORKER_INDEX"] = "0"
        assert not ChaosConfig.from_env(env).active
        assert not ChaosConfig.from_env({}).active


# --------------------------------------------------------------------------- #
# the lease table, on a hand-advanced clock
# --------------------------------------------------------------------------- #
class TestLeaseTable:
    def test_grants_follow_plan_order(self) -> None:
        table = LeaseTable(tasks(3), lease_timeout=10.0)
        first = table.lease("wa", now=0.0)
        second = table.lease("wb", now=0.0)
        assert first["config_hash"] == cell(0).config_hash
        assert second["config_hash"] == cell(1).config_hash
        assert first["heartbeat_interval"] == pytest.approx(2.5)
        assert first["runner"] == "_test_remote_echo"

    def test_leased_cell_is_not_regranted_while_fresh(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0)
        assert table.lease("wa", now=0.0) is not None
        # the only cell is in flight and too young to steal
        assert table.lease("wb", now=1.0) is None

    def test_heartbeat_keeps_a_lease_alive(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0)
        grant = table.lease("wa", now=0.0)
        assert table.heartbeat(grant["lease_id"], now=8.0)
        assert table.expire(now=15.0) == []  # beat at t=8 → fresh until t=18
        assert table.expire(now=18.5) == [grant["lease_id"]]
        assert not table.heartbeat(grant["lease_id"], now=19.0)

    def test_expired_lease_requeues_with_backoff(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0, retry_policy=FAST)
        grant = table.lease("wa", now=0.0)
        assert table.expire(now=10.5) == [grant["lease_id"]]
        # immediately after expiry the cell sits in backoff
        assert table.lease("wb", now=10.5001) is None
        regrant = table.lease("wb", now=11.0)  # backoff (1ms) long elapsed
        assert regrant is not None
        assert regrant["config_hash"] == grant["config_hash"]
        kinds = [event["event"] for event in table.events]
        assert "lease_expired" in kinds and "cell_requeued" in kinds

    def test_exhausted_retries_fail_the_run_naming_the_cell(self) -> None:
        table = LeaseTable(
            tasks(1), lease_timeout=10.0, max_retries=1, retry_policy=FAST
        )
        config_hash = cell(0).config_hash
        table.lease("wa", now=0.0)
        table.expire(now=11.0)  # attempt 1: re-queued
        assert table.lease("wa", now=12.0) is not None
        table.expire(now=23.0)  # attempt 2: exceeds max_retries=1
        assert table.failure is not None
        assert config_hash in table.failure
        assert table.lease("wb", now=24.0) is None  # failed runs grant nothing

    def test_steal_only_after_steal_after_and_never_to_the_holder(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=20.0, steal_after=5.0)
        grant = table.lease("wa", now=0.0)
        table.heartbeat(grant["lease_id"], now=4.0)
        assert table.lease("wb", now=4.9) is None  # too early to steal
        # keep the original lease un-expired but old enough to steal
        table.heartbeat(grant["lease_id"], now=5.0)
        assert table.lease("wa", now=6.0) is None  # holder cannot steal its own
        stolen = table.lease("wb", now=6.0)
        assert stolen is not None
        assert stolen["config_hash"] == grant["config_hash"]
        assert any(event["event"] == "lease_stolen" for event in table.events)

    def test_steal_respects_max_leases_per_cell(self) -> None:
        table = LeaseTable(
            tasks(1), lease_timeout=20.0, steal_after=1.0, max_leases_per_cell=2
        )
        table.lease("wa", now=0.0)
        assert table.lease("wb", now=2.0) is not None  # second lease (steal)
        assert table.lease("wc", now=4.0) is None  # at the cap

    def test_steal_prefers_the_stalest_heartbeat(self) -> None:
        table = LeaseTable(tasks(2), lease_timeout=30.0, steal_after=1.0)
        first = table.lease("wa", now=0.0)
        second = table.lease("wb", now=0.0)
        table.heartbeat(first["lease_id"], now=2.0)  # fresher
        table.heartbeat(second["lease_id"], now=1.0)  # stalest
        stolen = table.lease("wc", now=5.0)
        assert stolen["config_hash"] == second["config_hash"]

    def test_first_completion_wins_and_duplicate_is_deduped(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0)
        config_hash = cell(0).config_hash
        rows = [{"value": 0, "draw": 0.5}]
        first = table.lease("wa", now=0.0)
        second = table.lease("wb", now=6.0)  # steal (steal_after = 5.0)
        assert second is not None
        assert (
            table.complete(
                config_hash, rows, 0.1, now=7.0,
                lease_id=first["lease_id"], worker_id="wa",
            )
            == "completed"
        )
        assert (
            table.complete(
                config_hash, list(rows), 0.2, now=8.0,
                lease_id=second["lease_id"], worker_id="wb",
            )
            == "duplicate"
        )
        assert table.failure is None
        assert table.all_done
        # delivered exactly once, with the winner's elapsed
        assert table.pop_completions() == [(0, rows, 0.1)]
        assert table.pop_completions() == []

    def test_conflicting_completion_fails_naming_the_config_hash(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0)
        config_hash = cell(0).config_hash
        table.complete(config_hash, [{"value": 1}], 0.1, now=0.0, worker_id="wa")
        verdict = table.complete(
            config_hash, [{"value": 2}], 0.1, now=1.0, worker_id="wb"
        )
        assert verdict == "conflict"
        assert table.failure is not None
        assert config_hash in table.failure
        assert "wb" in table.failure

    def test_late_completion_from_expired_lease_still_wins(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0, retry_policy=FAST)
        grant = table.lease("wa", now=0.0)
        table.expire(now=11.0)  # wa presumed dead...
        verdict = table.complete(
            cell(0).config_hash, [{"value": 0}], 0.3, now=11.5,
            lease_id=grant["lease_id"], worker_id="wa",
        )
        assert verdict == "completed"  # ...but its rows arrived first
        assert table.all_done

    def test_worker_error_requeues_and_counts_an_attempt(self) -> None:
        table = LeaseTable(
            tasks(1), lease_timeout=10.0, max_retries=0, retry_policy=FAST
        )
        grant = table.lease("wa", now=0.0)
        verdict = table.complete(
            cell(0).config_hash, None, 0.0, now=1.0,
            lease_id=grant["lease_id"], worker_id="wa",
            error="RuntimeError: cell exploded",
        )
        assert verdict == "error"
        # max_retries=0: the first failed attempt already exhausts the cell
        assert table.failure is not None
        assert "cell exploded" in table.failure

    def test_unknown_completion_is_reported_not_crashed(self) -> None:
        table = LeaseTable(tasks(1), lease_timeout=10.0)
        assert table.complete("nope", [], 0.0, now=0.0) == "unknown"
        assert table.failure is None

    def test_duplicate_config_hash_rejected(self) -> None:
        with pytest.raises(InvalidParameterError, match="duplicate config hash"):
            LeaseTable([(0, cell(1)), (1, cell(1))])

    def test_counts_and_register(self) -> None:
        table = LeaseTable(tasks(2), lease_timeout=10.0)
        assert table.register(None, now=0.0) == "w0"
        assert table.register("named", now=0.0) == "named"
        table.lease("w0", now=0.0)
        counts = table.counts()
        assert counts["cells"] == 2
        assert counts["done"] == 0
        assert counts["leased"] == 1
        assert counts["workers"] == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_timeout": 0.0},
            {"max_retries": -1},
            {"max_leases_per_cell": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs: dict) -> None:
        with pytest.raises(InvalidParameterError):
            LeaseTable(tasks(1), **kwargs)


def test_parse_listen() -> None:
    assert parse_listen("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_listen("0.0.0.0:8765") == ("0.0.0.0", 8765)
    for bad in ("8765", ":8765", "host:", "host:x", "host:70000"):
        with pytest.raises(InvalidParameterError):
            parse_listen(bad)


# --------------------------------------------------------------------------- #
# graceful-shutdown wait: hand-advanced clock, no real sleeping
# --------------------------------------------------------------------------- #
class _FakeClock:
    """Hand-advanced monotonic clock whose ``sleep`` just adds time."""

    def __init__(self) -> None:
        self.now = 100.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class _FakeProc:
    """Stands in for a subprocess.Popen: exits after ``exit_at`` (clock time)."""

    def __init__(self, clock: _FakeClock, exit_at: float | None) -> None:
        self._clock = clock
        self._exit_at = exit_at

    def poll(self) -> int | None:
        if self._exit_at is not None and self._clock.now >= self._exit_at:
            return 0
        return None


class TestWaitForWorkerExit:
    def test_returns_true_when_workers_exit_within_grace(self) -> None:
        clock = _FakeClock()
        procs = [
            (0, _FakeProc(clock, exit_at=100.5), None),
            (1, _FakeProc(clock, exit_at=101.0), None),
        ]
        assert wait_for_worker_exit(
            procs, grace=2.0, poll_interval=0.25, clock=clock, sleep=clock.sleep
        )
        # stopped polling as soon as the slowest worker was gone
        assert clock.now == pytest.approx(101.0)
        assert clock.sleeps == [0.25] * 4

    def test_returns_false_on_timeout_without_overshooting(self) -> None:
        clock = _FakeClock()
        procs = [(0, _FakeProc(clock, exit_at=None), None)]  # never exits
        assert not wait_for_worker_exit(
            procs, grace=2.0, poll_interval=0.25, clock=clock, sleep=clock.sleep
        )
        # gave up at (not past) the deadline: grace / poll_interval sleeps
        assert clock.now == pytest.approx(102.0)
        assert clock.sleeps == [0.25] * 8

    def test_already_exited_workers_need_no_sleep(self) -> None:
        clock = _FakeClock()
        procs = [(0, _FakeProc(clock, exit_at=0.0), None)]
        assert wait_for_worker_exit(
            procs, grace=2.0, poll_interval=0.25, clock=clock, sleep=clock.sleep
        )
        assert clock.sleeps == []

    def test_no_procs_is_immediate(self) -> None:
        clock = _FakeClock()
        assert wait_for_worker_exit(
            [], grace=2.0, poll_interval=0.25, clock=clock, sleep=clock.sleep
        )
        assert clock.sleeps == []

    def test_zero_grace_polls_once_without_sleeping(self) -> None:
        clock = _FakeClock()
        procs = [(0, _FakeProc(clock, exit_at=None), None)]
        assert not wait_for_worker_exit(
            procs, grace=0.0, poll_interval=0.25, clock=clock, sleep=clock.sleep
        )
        assert clock.sleeps == []

    def test_invalid_parameters_rejected(self) -> None:
        with pytest.raises(InvalidParameterError):
            wait_for_worker_exit([], grace=-1.0)
        with pytest.raises(InvalidParameterError):
            wait_for_worker_exit([], poll_interval=0.0)

    def test_executor_exposes_configurable_grace(self) -> None:
        executor = RemoteExecutor(workers=0, shutdown_grace=0.5)
        assert executor.shutdown_grace == 0.5
        assert RemoteExecutor(workers=0).shutdown_grace == DEFAULT_SHUTDOWN_GRACE
        with pytest.raises(InvalidParameterError):
            RemoteExecutor(workers=0, shutdown_grace=-0.1)


# --------------------------------------------------------------------------- #
# end-to-end: real coordinator, in-process worker threads
# --------------------------------------------------------------------------- #
def run_remote(cells, worker_chaos, **executor_kwargs):
    """Run ``cells`` on a RemoteExecutor with one thread per chaos config."""
    executor_kwargs.setdefault("lease_timeout", 2.0)
    executor_kwargs.setdefault("retry_policy", FAST)
    executor = RemoteExecutor(workers=0, **executor_kwargs)
    summaries: list[dict] = []

    def work(chaos: ChaosConfig) -> None:
        if not executor.ready.wait(timeout=10.0):
            return
        summaries.append(
            worker_loop(
                executor.address, chaos=chaos, retry_policy=RetryPolicy(max_retries=3)
            )
        )

    threads = [
        threading.Thread(target=work, args=(chaos,), daemon=True)
        for chaos in worker_chaos
    ]
    for thread in threads:
        thread.start()
    try:
        result = run_grid(cells, executor=executor)
    finally:
        for thread in threads:
            thread.join(timeout=10.0)
    return result, summaries


class TestRemoteExecutorEndToEnd:
    def test_single_worker_matches_serial_byte_for_byte(self) -> None:
        cells = [cell(v) for v in range(6)]
        serial = run_grid(cells, executor=SerialExecutor())
        remote, summaries = run_remote(cells, [ChaosConfig()])
        assert json.dumps(remote.rows, sort_keys=True) == json.dumps(
            serial.rows, sort_keys=True
        )
        assert remote.computed == 6
        assert sum(s["completed"] for s in summaries) == 6

    def test_three_workers_match_serial(self) -> None:
        cells = [cell(v) for v in range(8)]
        serial = run_grid(cells, executor=SerialExecutor())
        remote, _ = run_remote(cells, [ChaosConfig()] * 3)
        assert remote.rows == serial.rows

    def test_killed_worker_is_recovered_and_artifact_unchanged(self) -> None:
        cells = [cell(v) for v in range(6)]
        serial = run_grid(cells, executor=SerialExecutor())
        # worker 0 dies holding its 3rd lease; the survivor finishes the grid.
        # The survivor reports slowly, so a descheduled worker 0 still gets to
        # its 3rd lease on a loaded machine instead of finding the grid done.
        remote, summaries = run_remote(
            cells,
            [ChaosConfig(kill_after=2), ChaosConfig(delay_completion=0.05)],
            lease_timeout=0.5,
        )
        assert remote.rows == serial.rows
        killed = [s for s in summaries if s["killed"]]
        assert len(killed) == 1 and killed[0]["completed"] == 2

    def test_failing_cell_raises_grid_execution_error(self) -> None:
        cells = [cell(0, runner="_test_remote_boom")]
        with pytest.raises(GridExecutionError, match="cell exploded"):
            run_remote(cells, [ChaosConfig()], max_retries=1, lease_timeout=2.0)

    def test_event_log_is_written_with_summary(self, tmp_path) -> None:
        log = tmp_path / "events.jsonl"
        cells = [cell(v) for v in range(3)]
        run_remote(cells, [ChaosConfig()], event_log=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = {line["event"] for line in lines}
        assert {"worker_registered", "lease_granted", "cell_completed"} <= kinds
        assert lines[-1]["event"] == "summary"
        assert lines[-1]["done"] == 3

    def test_summary_reports_the_local_worker_count(self, capsys) -> None:
        assert RemoteExecutor(workers=3).workers == 3
        result, _ = run_remote([cell(v) for v in range(2)], [ChaosConfig()])
        assert result.summary()["workers"] == 0  # external workers only
        assert "remote coordinator listening on http://127.0.0.1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"lease_timeout": 0.0},
            {"max_retries": -1},
            {"poll_interval": 0.0},
            {"listen": "nonsense"},
        ],
    )
    def test_invalid_parameters(self, kwargs: dict) -> None:
        with pytest.raises(InvalidParameterError):
            RemoteExecutor(**kwargs)
