"""Unit tests of the benchmark's statistics and failure accounting."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, service_load, stats, trace  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_leaves_at_least_ten_samples_beyond(n, percentile):
    values = [float(v) for v in range(n)]
    got = stats.tail(values)
    if percentile is None:
        assert got is None
        return
    p, value, count = got
    assert (p, count) == (percentile, n)
    assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.nearest_rank(values, 50) == 3.0
    assert stats.nearest_rank(values, 100) == 5.0
    assert stats.nearest_rank(values, 0) == 1.0


def test_tail_label_states_the_sample_count():
    assert stats.tail_label([1.0] * 100, "s").endswith("(n=100)")
    assert "p90" in stats.tail_label([float(v) for v in range(100)], "s")
    assert "p9" not in stats.tail_label([1.0, 2.0], "s")


def test_due_latency_counts_from_due_and_lag_is_never_negative():
    latencies, lags = stats.due_latencies([
        (0.0, 0.5, 1.0),  # sent late: the wait counts in the latency
        (1.0, 0.9, 1.2),  # sent early: no negative lag
        (2.0, 2.0, 2.1),
    ])
    assert latencies == pytest.approx([1.0, 0.2, 0.1])
    assert lags == pytest.approx([0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        stats.due_latencies([(1.0, 1.0, 0.5)])


class _Traffic:
    def __init__(self):
        self.index = 0

    def new_batches(self, count):
        out = []
        for _ in range(count):
            out.append(("a", f"a-{self.index}", 0))
            self.index += 1
        return out


def test_ladder_schedule_is_open_loop_with_duplicates_and_reads():
    schedule = service_load.ladder_schedule(_Traffic(), rate=100.0, seconds=1.2, start=5.0)
    dues = [due for due, _, _ in schedule]
    batches = [item for _, kind, item in schedule if kind == "report"]
    reads = [item for _, kind, item in schedule if kind == "estimate"]
    # slots are spaced 1/rate apart whatever the server does
    assert dues == sorted(dues) and dues[0] == 5.0
    assert max(dues) < 5.0 + 1.2
    ids = [b[1] for b in batches]
    duplicates = len(ids) - len(set(ids))
    unique = len(set(ids))
    assert duplicates == unique // service_load.DUPLICATE_EVERY
    assert len(reads) == unique // service_load.ESTIMATE_EVERY
    # a re-delivery reuses the id of the batch just before it
    for first, second in zip(ids, ids[1:]):
        if first == second:
            assert (int(first.split("-")[1]) + 1) % service_load.DUPLICATE_EVERY == 0


def test_failed_frac():
    assert stats.failed_frac(0, 0) == 0.0
    assert stats.failed_frac(40, 4) == 0.1
    with pytest.raises(ValueError):
        stats.failed_frac(3, 4)


def _service_result(**overrides):
    result = {
        "attempted": 100,
        "failed": 0,
        "rungs": [{"rate": 50, "failed": 0}],
        "estimate_matches": {"grr": True, "olh": True, "oue": True},
        "server_stats": {
            "failed_batches": 0,
            "attributes": {"grr": {"duplicate_batches": 4}, "olh": {"duplicate_batches": 3}},
        },
        "expected_duplicates": 7,
    }
    result.update(overrides)
    return result


def test_service_failures_count_refusals_estimates_and_dedup():
    assert run.service_checks(_service_result())[:2] == (104, 0)
    attempted, failed, problems = run.service_checks(_service_result(
        failed=2,  # two requests refused with 429 or errored
        estimate_matches={"grr": False, "olh": True, "oue": True},
        expected_duplicates=8,
    ))
    assert (attempted, failed) == (104, 4)
    assert len(problems) == 2


def _figure_pair(cold_digest="d", warm_digest="d", served=18, table="t"):
    return {
        "cold": {"digest": cold_digest, "grid": {"computed": 18}, "table": "t"},
        "warm": {"digest": warm_digest, "grid": {"from_cache": served}, "table": table},
    }


def test_figure_failures_are_counted_per_cell_of_each_bad_pass():
    cells = run.FIGURE_CELLS
    assert run.figure_failures([_figure_pair()], None) == (0, [])
    assert run.figure_failures([_figure_pair()], "d")[0] == 0
    # the reference wins over the first pass
    assert run.figure_failures([_figure_pair()], "x")[0] == 2 * cells
    assert run.figure_failures([_figure_pair(warm_digest="e")], None)[0] == cells
    assert run.figure_failures([_figure_pair(served=17)], None)[0] == cells
    failed, problems = run.figure_failures([_figure_pair(served=0, table="u")], None)
    assert failed == cells and len(problems) == 2
    # without a reference, later pairs must reproduce the first cold pass
    assert run.figure_failures([_figure_pair(), _figure_pair("e", "e")], None)[0] == 2 * cells


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_a_child_past_the_run_budget_is_killed_with_its_children(tmp_path):
    bench = run.Run(tmp_path, "service-ingest", seed=0, seconds=1.0)
    bench.deadline = time.perf_counter() + 1.0
    pid_file = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    started = time.perf_counter()
    with pytest.raises(run.ChildFailed):
        bench.child(["-c", script], "sleeper")
    assert time.perf_counter() - started < 30
    stat = Path(f"/proc/{int(pid_file.read_text())}/stat")
    for _ in range(100):
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                break  # killed; a zombie until whoever adopted it reaps it
        except FileNotFoundError:
            break
        time.sleep(0.05)
    else:
        pytest.fail("the grandchild outlived the run")
    bench.close()
    assert not (tmp_path / ".perfbench-work").exists()
