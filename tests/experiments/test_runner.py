"""Tests for the experiment registry and CLI."""

import json
import os
import select
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.cellstore import SQLiteCellStore
from repro.experiments.grid import SerialExecutor
from repro.experiments.runner import (
    available_experiments,
    figure_spec,
    main,
    run_experiment,
)


SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


#: CLI flags selecting each non-serial executor.
EXECUTOR_FLAGS = {
    "process": ["--workers", "2"],
    "thread": ["--executor", "thread", "--workers", "2"],
    "remote": ["--remote-workers", "2"],
}


def _stored(cache_dir) -> dict:
    """Occupancy of the cell store in ``cache_dir``."""
    with SQLiteCellStore.for_directory(cache_dir) as store:
        return store.stats()


class TestRegistry:
    def test_every_paper_figure_is_registered(self):
        expected = {f"fig{i}" for i in (1, 2, 3, 4, 5, 6)} | {
            f"fig{i}" for i in range(9, 18)
        }
        assert set(available_experiments()) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("fig99")

    def test_unknown_experiment_error_lists_valid_figures(self):
        """The error message must name every valid figure id."""
        with pytest.raises(InvalidParameterError) as excinfo:
            run_experiment("fig99")
        message = str(excinfo.value)
        assert "fig99" in message
        for figure in available_experiments():
            assert figure in message

    def test_fig1_runs_and_returns_rows(self):
        rows = run_experiment("fig1", quick=True)
        assert rows
        assert {"protocol", "epsilon", "expected_acc_pct"} <= set(rows[0])

    def test_fig1_parallel_matches_sequential(self):
        sequential = run_experiment("fig1", quick=True, workers=1)
        parallel = run_experiment("fig1", quick=True, workers=2)
        assert sequential == parallel

    def test_grid_info_reports_cells(self):
        info = {}
        run_experiment("fig1", quick=True, grid_info=info)
        assert info["cells"] == 10  # 2 metrics x 5 protocols
        assert info["computed"] == 10
        assert info["from_cache"] == 0
        assert info["executor"] == "SerialExecutor"

    def test_explicit_executor_matches_default(self):
        default = run_experiment("fig1", quick=True)
        explicit = run_experiment("fig1", quick=True, executor=SerialExecutor())
        assert default == explicit

    def test_figure_spec_plan_and_postprocess_compose(self):
        """run_experiment is exactly plan -> run_grid -> postprocess."""
        from repro.experiments.grid import run_grid

        spec = figure_spec("fig1", quick=True)
        cells = spec.plan(None)
        assert len(cells) == 10
        rows = spec.postprocess(run_grid(cells).rows)
        assert rows == run_experiment("fig1", quick=True)

    def test_figure_spec_rejects_unknown_figure(self):
        with pytest.raises(InvalidParameterError):
            figure_spec("fig99")


class TestCli:
    def test_main_prints_table(self, capsys):
        assert main(["fig1", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "protocol" in output
        assert "GRR" in output

    def test_main_rejects_unknown_figure_with_nonzero_exit(self, capsys):
        """An unknown figure exits non-zero and lists the valid ids on stderr."""
        assert main(["fig99", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        for figure in ("fig1", "fig2", "fig17"):
            assert figure in err

    def test_main_uses_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        # one database holds every cell; no per-cell JSON files
        assert (cache_dir / "cells.sqlite").exists()
        assert list(cache_dir.glob("*.json")) == []
        assert _stored(cache_dir)["entries"] == 10
        # warm rerun is served entirely from the cache and prints the same table
        assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_main_writes_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["fig1", "--no-cache", "--out", str(out_dir), "--workers", "2"]) == 0
        capsys.readouterr()
        figure_dir = out_dir / "fig1"
        rows = json.loads((figure_dir / "rows.json").read_text())
        meta = json.loads((figure_dir / "meta.json").read_text())
        assert rows and rows[0]["protocol"]
        assert meta["figure"] == "fig1"
        assert meta["grid"]["cells"] == 10
        assert meta["grid"]["workers"] == 2
        assert (figure_dir / "table.txt").read_text().startswith("figure")

    def test_main_rejects_quick_and_full_together(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--quick", "--full"])

    def test_main_rejects_cache_dir_that_is_a_file(self, tmp_path, capsys):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        assert main(["fig1", "--cache-dir", str(not_a_dir)]) == 2
        assert "not usable" in capsys.readouterr().err


class TestCliCacheBounds:
    def test_cache_max_entries_caps_the_cache_dir_during_a_sweep(
        self, tmp_path, capsys
    ):
        """fig1 computes 10 cells; the bounded cache keeps at most 4."""
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--cache-dir", str(cache_dir), "--cache-max-entries", "4"]) == 0
        capsys.readouterr()
        assert _stored(cache_dir)["entries"] <= 4

    def test_cache_max_bytes_caps_the_cache_dir_during_a_sweep(self, tmp_path, capsys):
        unbounded = tmp_path / "unbounded"
        assert main(["fig1", "--cache-dir", str(unbounded)]) == 0
        capsys.readouterr()
        budget = _stored(unbounded)["total_bytes"] // 3
        bounded = tmp_path / "bounded"
        assert main(["fig1", "--cache-dir", str(bounded), "--cache-max-bytes", str(budget)]) == 0
        capsys.readouterr()
        assert 0 < _stored(bounded)["total_bytes"] <= budget

    def test_cache_bounds_hold_under_a_process_pool(self, tmp_path, capsys):
        """Pool workers hand their rows back to the parent, whose store
        enforces the bounds, so --workers N cannot overflow a bounded cache."""
        cache_dir = tmp_path / "cache"
        code = main(
            ["fig1", "--cache-dir", str(cache_dir), "--cache-max-entries", "4",
             "--workers", "2"]
        )
        assert code == 0
        capsys.readouterr()
        assert _stored(cache_dir)["entries"] <= 4

    def test_invalid_bound_exits_2(self, tmp_path, capsys):
        # rejected by argparse before any run state is touched
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--cache-dir", str(cache_dir), "--cache-max-entries", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-max-entries" in err
        assert "positive integer" in err


class TestCliArgumentValidation:
    """Bad numeric flags fail at parse time: exit 2, naming flag and value."""

    @pytest.mark.parametrize(
        ("flag", "value", "expected"),
        [
            ("--workers", "0", "positive integer"),
            ("--workers", "-2", "positive integer"),
            ("--lease-timeout", "0", "positive number"),
            ("--cache-max-entries", "banana", "positive integer"),
            ("--cache-max-bytes", "0", "positive integer"),
            ("--remote-workers", "-1", "non-negative integer"),
            ("--lease-timeout", "-3", "positive number"),
            ("--queue-size", "0", "positive integer"),
        ],
    )
    def test_invalid_values_exit_2_naming_the_flag(
        self, capsys, flag, value, expected
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert expected in err
        assert value in err

    def test_max_retries_rejects_negatives_but_allows_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--max-retries", "-1"])
        assert excinfo.value.code == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_bad_listen_address_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--remote-listen", "nonsense"])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_remote_conflicts_with_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--remote-workers", "2", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--remote-workers" in capsys.readouterr().err

    def test_remote_tuning_flags_require_remote_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--lease-timeout", "5"])
        assert excinfo.value.code == 2
        assert "--remote-listen or --remote-workers" in capsys.readouterr().err


class TestCliKernelsAndExecutor:
    """--kernel-backend / --executor: parse-time validation and parity."""

    def test_unknown_kernel_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--kernel-backend", "cuda"])
        assert excinfo.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err

    def test_numba_backend_without_numba_is_a_clear_error(self, capsys):
        from repro.kernels import numba_available

        if numba_available():
            pytest.skip("numba installed: the explicit request succeeds")
        assert main(["fig1", "--no-cache", "--kernel-backend", "numba"]) == 2
        assert "numba is not importable" in capsys.readouterr().err

    def test_bogus_backend_env_var_exits_2(self, capsys, monkeypatch):
        from repro.kernels import KERNEL_BACKEND_ENV

        monkeypatch.setenv(KERNEL_BACKEND_ENV, "bogus")
        assert main(["fig1", "--no-cache"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_serial_executor_conflicts_with_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--executor", "serial", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--executor serial" in capsys.readouterr().err

    def test_executor_conflicts_with_remote_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--executor", "thread", "--remote-workers", "2"])
        assert excinfo.value.code == 2
        assert "remote execution" in capsys.readouterr().err

    def test_threaded_cli_artifact_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial"
        assert main(
            ["fig1", "--no-cache", "--executor", "serial", "--out", str(serial_out)]
        ) == 0
        threaded_out = tmp_path / "threaded"
        assert main(
            ["fig1", "--no-cache", "--executor", "thread", "--workers", "3",
             "--kernel-backend", "auto", "--out", str(threaded_out)]
        ) == 0
        capsys.readouterr()
        assert (threaded_out / "fig1" / "rows.json").read_bytes() == (
            serial_out / "fig1" / "rows.json"
        ).read_bytes()
        meta = json.loads((threaded_out / "fig1" / "meta.json").read_text())
        assert meta["kernel_backend"] in ("numpy", "numba")
        assert meta["grid"]["executor"] == "ThreadedExecutor"


    @pytest.mark.parametrize(
        "argv",
        (["--workers", "2"], ["--executor", "process", "--workers", "2"]),
        ids=["workers", "executor"],
    )
    def test_process_pool_cli_artifact_matches_serial(self, tmp_path, capsys, argv):
        serial_out, pool_out = tmp_path / "serial", tmp_path / "pool"
        assert main(["fig1", "--no-cache", "--out", str(serial_out)]) == 0
        assert main(["fig1", "--no-cache", *argv, "--out", str(pool_out)]) == 0
        capsys.readouterr()
        assert (pool_out / "fig1" / "rows.json").read_bytes() == (
            serial_out / "fig1" / "rows.json"
        ).read_bytes()
        grid = json.loads((pool_out / "fig1" / "meta.json").read_text())["grid"]
        assert grid["executor"] == "ProcessPoolExecutor" and grid["workers"] == 2


class TestCliRemote:
    def test_remote_workers_artifact_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial"
        assert main(["fig1", "--no-cache", "--out", str(serial_out)]) == 0
        capsys.readouterr()
        remote_out = tmp_path / "remote"
        event_log = tmp_path / "events.jsonl"
        code = main(
            ["fig1", "--no-cache", "--remote-workers", "2",
             "--out", str(remote_out), "--remote-log", str(event_log)]
        )
        capsys.readouterr()
        assert code == 0
        assert (remote_out / "fig1" / "rows.json").read_bytes() == (
            serial_out / "fig1" / "rows.json"
        ).read_bytes()
        lines = [json.loads(line) for line in event_log.read_text().splitlines()]
        assert lines[-1]["event"] == "summary"
        assert {"worker_spawned", "lease_granted", "cell_completed"} <= {
            line["event"] for line in lines
        }

    def test_external_workers_find_the_announced_address(self, tmp_path, capsys):
        """--remote-listen HOST:0 --remote-workers 0 prints the bound address
        on stderr; two separately started remote_worker processes serve the
        figure, and its rows match a serial run byte for byte."""
        serial_out = tmp_path / "serial"
        assert main(["fig1", "--no-cache", "--out", str(serial_out)]) == 0
        capsys.readouterr()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        remote_out = tmp_path / "remote"
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "fig1", "--no-cache",
             "--remote-listen", "127.0.0.1:0", "--remote-workers", "0",
             "--out", str(remote_out)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            ready, _, _ = select.select([coordinator.stderr], [], [], 60)
            assert ready, "the coordinator never announced its address"
            line = coordinator.stderr.readline()
            prefix = "remote coordinator listening on "
            assert line.startswith(prefix), line
            url = line[len(prefix):].strip()
            assert url.startswith("http://127.0.0.1:") and not url.endswith(":0")
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.experiments.remote_worker",
                     "--coordinator", url],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for _ in range(2)
            ]
            stdout, _ = coordinator.communicate(timeout=120)
            assert coordinator.returncode == 0
        finally:
            # a worker that starts after the last cell finds the coordinator
            # gone and retries before giving up; only the rows are the contract
            for proc in [coordinator, *workers]:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert "remote coordinator" not in stdout
        assert (remote_out / "fig1" / "rows.json").read_bytes() == (
            serial_out / "fig1" / "rows.json"
        ).read_bytes()


class TestCliCellStore:
    """The run ledger and the figure-less maintenance command --show-runs."""

    @pytest.mark.parametrize(
        "argv",
        (
            ["fig1", "--cache-backend", "sqlite"],
            ["fig1", "--cache-backend", "json"],
            ["--migrate-cache"],
            ["fig1", "--shards", "2"],
            ["fig1", "--shard-index", "0"],
            ["fig1", "--merge-shards"],
            ["fig1", "--shard-dir", "shards"],
            ["fig1", "--gc-shards"],
            ["fig1", "--gc-max-age", "60"],
        ),
    )
    def test_removed_store_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert next(arg for arg in argv if arg.startswith("--")) in err

    def test_deleted_cell_row_is_recomputed_alone(self, tmp_path, capsys):
        """Resuming is a rerun on the same --cache-dir: a cell missing from
        cells.sqlite is the only one computed, and the rows do not change."""
        cache_dir = tmp_path / "cache"
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["fig1", "--cache-dir", str(cache_dir), "--out", str(first)]) == 0
        with sqlite3.connect(cache_dir / "cells.sqlite") as conn:
            conn.execute("DELETE FROM cells WHERE rowid = (SELECT MIN(rowid) FROM cells)")
        conn.close()
        assert main(["fig1", "--cache-dir", str(cache_dir), "--out", str(second)]) == 0
        capsys.readouterr()
        assert (second / "fig1" / "rows.json").read_bytes() == (
            first / "fig1" / "rows.json"
        ).read_bytes()
        grid = json.loads((second / "fig1" / "meta.json").read_text())["grid"]
        assert grid["computed"] == 1 and grid["from_cache"] == 9

    @pytest.mark.parametrize(
        "argv", list(EXECUTOR_FLAGS.values()), ids=list(EXECUTOR_FLAGS)
    )
    def test_warm_cache_serves_every_executor(self, tmp_path, capsys, argv):
        """A cache filled by a serial run serves the whole figure to any
        executor, with the same rows."""
        cache_dir = tmp_path / "cache"
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert main(["fig1", "--cache-dir", str(cache_dir), "--out", str(cold)]) == 0
        assert main(
            ["fig1", "--cache-dir", str(cache_dir), *argv, "--out", str(warm)]
        ) == 0
        capsys.readouterr()
        assert (warm / "fig1" / "rows.json").read_bytes() == (
            cold / "fig1" / "rows.json"
        ).read_bytes()
        grid = json.loads((warm / "fig1" / "meta.json").read_text())["grid"]
        assert grid["computed"] == 0 and grid["from_cache"] == 10

    @pytest.mark.parametrize(
        "argv", list(EXECUTOR_FLAGS.values()), ids=list(EXECUTOR_FLAGS)
    )
    def test_deleted_cell_rows_are_recomputed_by_every_executor(
        self, tmp_path, capsys, argv
    ):
        cache_dir = tmp_path / "cache"
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["fig1", "--cache-dir", str(cache_dir), "--out", str(first)]) == 0
        with sqlite3.connect(cache_dir / "cells.sqlite") as conn:
            conn.execute(
                "DELETE FROM cells WHERE rowid IN (SELECT rowid FROM cells LIMIT 3)"
            )
        conn.close()
        assert main(
            ["fig1", "--cache-dir", str(cache_dir), *argv, "--out", str(second)]
        ) == 0
        capsys.readouterr()
        assert (second / "fig1" / "rows.json").read_bytes() == (
            first / "fig1" / "rows.json"
        ).read_bytes()
        grid = json.loads((second / "fig1" / "meta.json").read_text())["grid"]
        assert grid["computed"] == 3 and grid["from_cache"] == 7
        assert _stored(cache_dir)["entries"] == 10

    def test_figure_run_records_run_ledger(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "--show-runs"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 1
        entry = lines[0]
        assert entry["kind"] == "run_grid"
        assert entry["figure"] == "fig1"
        assert entry["summary"]["cells"] == 10

    def test_default_cache_dir_is_one_database_in_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["fig1"]) == 0
        capsys.readouterr()
        assert [path.name for path in (tmp_path / ".repro-cache").iterdir()
                if not path.name.startswith("cells.sqlite-")] == ["cells.sqlite"]
        assert _stored(tmp_path / ".repro-cache")["entries"] == 10

    def test_no_cache_creates_no_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fig1", "--no-cache"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_warm_run_is_recorded_as_served_from_the_store(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
            capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "--show-runs", "1"]) == 0
        (entry,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert entry["summary"]["from_cache"] == 10
        assert entry["summary"]["computed"] == 0

    def test_show_runs_on_a_fresh_cache_dir_prints_nothing(self, tmp_path, capsys):
        assert main(["--cache-dir", str(tmp_path / "cache"), "--show-runs"]) == 0
        assert capsys.readouterr().out == ""

    def test_show_runs_limit(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for _ in range(3):
            assert main(["fig1", "--cache-dir", str(cache_dir)]) == 0
            capsys.readouterr()
        assert main(["--cache-dir", str(cache_dir), "--show-runs", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_figure_required_without_maintenance_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["--no-cache"])

    def test_maintenance_flags_reject_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--show-runs"])

    def test_maintenance_flags_reject_no_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["--no-cache", "--show-runs"])

    def test_maintenance_flags_reject_remote_and_executor_flags(self, capsys):
        for extra in (["--remote-workers", "1"], ["--remote-listen", "127.0.0.1:0"],
                      ["--executor", "thread"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["--show-runs", *extra])
            assert excinfo.value.code == 2
            assert "remote-execution or executor" in capsys.readouterr().err

    def test_maintenance_flags_reject_out(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--show-runs", "--out", str(tmp_path / "figs")])
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_no_cache_rejects_cache_bounds(self, capsys):
        for bound in (["--cache-max-entries", "4"],
                      ["--cache-max-bytes", "1024"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["fig1", "--no-cache", *bound])
            assert excinfo.value.code == 2
            assert "--no-cache" in capsys.readouterr().err

    def test_maintenance_on_unusable_cache_dir_exits_2(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        assert main(["--cache-dir", str(occupied), "--show-runs"]) == 2
        assert "error" in capsys.readouterr().err


class TestCliService:
    """The figure-less --serve / --snapshot collection-service paths."""

    @pytest.mark.parametrize(
        "argv",
        (
            ["--serve", "127.0.0.1:0"],  # no --attribute
            ["--serve", "127.0.0.1:0", "--snapshot", "http://h:1"],
            ["fig1", "--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--executor", "thread"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--remote-workers", "1"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--show-runs"],
            ["--serve", "127.0.0.1:0", "--attribute", "a:GRR:4:1.0",
             "--out", "x"],
            ["--window", "tumbling:5"],  # server knobs without --serve
            ["--attribute", "a:GRR:4:1.0"],
            ["--queue-size", "4"],
            ["--snapshot", "http://h:1", "--window", "tumbling:5"],
            ["--snapshot", "http://h:1", "--queue-size", "4"],
        ),
    )
    def test_service_flag_conflicts_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_serve_starts_registers_and_stops(self, capsys):
        from repro.experiments.runner import _service_main, build_parser
        from repro.service.client import CollectionClient

        args = build_parser().parse_args(
            ["--serve", "127.0.0.1:0",
             "--attribute", "age:GRR:8:1.0",
             "--attribute", "city:OUE:4:2.0",
             "--window", "sliding:60x4", "--queue-size", "8"]
        )
        probed = {}

        def probe():
            # runs while the service is live; the URL was printed already
            url = capsys.readouterr().out.strip().split()[-1]
            client = CollectionClient(url)
            probed.update(client.stats()["attributes"])

        assert _service_main(args, stop=probe) == 0
        assert sorted(probed) == ["age", "city"]
        assert probed["age"]["window"] == "sliding:60x4"

    def test_serve_rejects_bad_attribute_spec(self, capsys):
        from repro.experiments.runner import _service_main, build_parser

        args = build_parser().parse_args(
            ["--serve", "127.0.0.1:0", "--attribute", "nope"]
        )
        assert _service_main(args, stop=lambda: None) == 2
        assert "NAME:PROTOCOL:K:EPSILON" in capsys.readouterr().err

    def test_snapshot_prints_estimates_as_json_lines(self, capsys):
        from repro.experiments.runner import _service_main, build_parser
        from repro.service.client import CollectionClient
        from repro.service.server import CollectionService

        service = CollectionService()
        service.start()
        try:
            client = CollectionClient(service.url)
            client.register_attribute("age", "GRR", k=4, epsilon=1.0)
            client.register_attribute("city", "GRR", k=4, epsilon=1.0)
            client.send_batch("age", "b0", [0, 1, 2, 3])
            client.flush()
            args = build_parser().parse_args(["--snapshot", service.url])
            assert _service_main(args) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()]
            assert [line["attribute"] for line in lines] == ["age", "city"]
            assert lines[0]["n"] == 4 and len(lines[0]["estimates"]) == 4
            assert lines[1]["estimates"] is None  # no data yet
            # restricting to one attribute name
            args = build_parser().parse_args(
                ["--snapshot", service.url, "--attribute", "city"]
            )
            assert _service_main(args) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()]
            assert [line["attribute"] for line in lines] == ["city"]
        finally:
            service.stop()

    def test_snapshot_against_dead_service_exits_2(self, capsys):
        from repro.core.retry import RetryPolicy
        from repro.experiments.runner import _service_main, build_parser
        from repro.service.server import CollectionService

        # bind then release a port so nothing is listening there
        service = CollectionService()
        service.start()
        url = service.url
        service.stop()
        args = build_parser().parse_args(["--snapshot", url])
        import repro.experiments.runner as runner_module
        import repro.service.client as client_module

        original = client_module.CollectionClient

        def fast_client(base_url):
            return original(
                base_url,
                retry_policy=RetryPolicy(
                    max_retries=1, base_delay=1e-3, max_delay=1e-3, jitter=0.0
                ),
            )

        # _service_main imports CollectionClient from repro.service.client
        import unittest.mock as mock

        with mock.patch.object(client_module, "CollectionClient", fast_client):
            assert _service_main(args) == 2
        assert "error" in capsys.readouterr().err
