"""The repository benchmark: one command, four workloads, fresh processes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reident-smp --seed 42 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload once untraced and once with every layer's
entry points wrapped in spans, and prints the per-layer metrics and the
tracing overhead.  Human-readable lines (environment block, every metric by
name and unit, tails with their sample counts, ``failed_frac``) come first;
the last line is the JSON result.  ``README.md`` defines each metric.

This process never imports the program: every measurement runs in a child
process started with ``src`` on ``PYTHONPATH``, and all scratch files live
under ``.perfbench-work/`` in the checkout and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import hostspeed, stats  # noqa: E402
from perfbench import trace as tracing  # noqa: E402
from perfbench.env import environment  # noqa: E402
from perfbench.grid_worker import reference_digests, rows_digest  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
WORKLOADS = ("reident-smp", "aif-rsfd", "figure-cli", "service-ingest")
SETUP_REPEATS = 3
#: Every child process must end before this many seconds into the run.
RUN_BUDGET_S = 170
FIGURE_ARGS = ["fig16", "--quick"]
#: Set in every child.  The GBDT's histogram product is a BLAS matmul whose
#: summation order follows the BLAS thread count, so with the default
#: (one thread per core) the aif-rsfd rows would depend on the machine's
#: cores and could not match the checked-in reference; one thread also
#: keeps a busy neighbour from stalling spinning BLAS threads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
FIGURE_CELLS = 18


class ChildFailed(RuntimeError):
    """A measuring process exited non-zero or timed out."""


class Run:
    """One benchmark invocation: its checkout, scratch directory and children."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = root / ".perfbench-work" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self._counter = 0
        self.kernel_backend: "str | None" = None
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def path(self, stem: str) -> Path:
        self._counter += 1
        return self.work / f"{self._counter:03d}-{stem}"

    def child(self, args: list[str], stem: str, stdout: "Path | None" = None) -> tuple[float, str]:
        """Run one child to completion; returns ``(wall seconds, stderr)``."""
        err_path = self.path(f"{stem}.stderr")
        out_handle = open(stdout, "w") if stdout is not None else subprocess.DEVNULL
        env = dict(self.env)
        try:
            with open(err_path, "w") as err:
                started = time.perf_counter()
                env["PERFBENCH_T_SPAWN"] = repr(started)
                # its own process group, so a kill also reaches the servers it started
                process = subprocess.Popen(
                    [sys.executable, *args], cwd=self.work, env=env, stdout=out_handle,
                    stderr=err, start_new_session=True,
                )
                try:
                    code = process.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
                except BaseException as exc:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()
                    if isinstance(exc, subprocess.TimeoutExpired):
                        raise ChildFailed(f"{stem} still running {RUN_BUDGET_S}s into the run") from exc
                    raise
                wall = time.perf_counter() - started
        finally:
            if stdout is not None:
                out_handle.close()
        stderr = err_path.read_text()
        if code != 0:
            raise ChildFailed(f"{stem} exited {code}:\n{stderr[-3000:]}")
        return wall, stderr

    def spec_child(self, script: str, spec: dict[str, Any], stem: str,
                   flags: "list[str] | None" = None) -> tuple[dict[str, Any], str]:
        spec_path, out_path = self.path(f"{stem}.spec.json"), self.path(f"{stem}.out.json")
        spec_path.write_text(json.dumps(spec))
        _, stderr = self.child([*(flags or []), str(HERE / script), str(spec_path), str(out_path)], stem)
        result = json.loads(out_path.read_text())
        self.kernel_backend = result.get("kernel_backend", self.kernel_backend)
        return result, stderr

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds something else


# --------------------------------------------------------------------------- #
# grid workloads: reident-smp, aif-rsfd
# --------------------------------------------------------------------------- #
def grid_spec(run: Run, mode: str, seconds: float, trace: bool = False,
              host_speed: bool = False) -> dict[str, Any]:
    return {"workload": run.workload, "seed": run.seed, "mode": mode, "seconds": seconds,
            "trace": trace, "hostspeed": host_speed}


def grid_end_to_end(run: Run) -> dict[str, Any]:
    setups, raw_setups = [], []
    for index in range(SETUP_REPEATS - 1):
        result, _ = run.spec_child("grid_worker.py", grid_spec(run, "setup", 0), f"setup{index}")
        setups.append(result["setup_s"])
        raw_setups.append(result["raw_setup_s"])
    result, _ = run.spec_child("grid_worker.py", grid_spec(run, "measure", run.seconds, host_speed=True),
                               "measure")
    setups.append(result["setup_s"])
    raw_setups.append(result["raw_setup_s"])
    lines = [
        setup_line(setups, raw_setups),
        f"cell_p50_s: {stats.tail_label(result['cell_times'], 's')} over {len(result['walls'])} passes",
        f"wall_s samples: {[round(x, 4) for x in result['walls']]} at the reference host speed, "
        f"{[round(x, 4) for x in result['raw_walls']]} as measured",
        host_speed_line(result["reference_samples"]),
        f"rows checked against: {result['checked_against']}",
    ] + [f"MISMATCH {m}" for m in result["mismatches"]]
    return {
        "metrics": {
            "setup_s": stats.median(setups),
            "wall_s": stats.median(result["walls"]),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "lines": lines,
    }


def grid_per_layer(run: Run) -> dict[str, Any]:
    half = run.seconds / 2
    plain, _ = run.spec_child("grid_worker.py", grid_spec(run, "measure", half), "untraced")
    traced, stderr = run.spec_child(
        "grid_worker.py", grid_spec(run, "measure", half, trace=True), "traced",
        flags=["-X", "importtime"],
    )
    summary = traced["trace"]
    metrics = tracing.layer_metrics(summary, per=len(traced["walls"]))
    metrics.update(tracing.parse_importtime(stderr))
    metrics.update(overhead(stats.median(traced["walls"]), stats.median(plain["walls"])))
    metrics["trace.unattributed_frac"] = unattributed(summary)
    return {
        "metrics": metrics,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "lines": [f"per-layer values are per pass ({len(traced['walls'])} traced passes)"]
        + [f"MISMATCH {m}" for m in plain["mismatches"] + traced["mismatches"]],
    }


# --------------------------------------------------------------------------- #
# figure-cli
# --------------------------------------------------------------------------- #
def read_rows_digest(out_dir: Path) -> str:
    return rows_digest(json.loads((out_dir / "fig16" / "rows.json").read_text()))


def figure_pair(run: Run, index: int, trace: bool, host_speed: bool = False) -> dict[str, Any]:
    """A cold pass against a fresh cache directory, then a warm pass.

    Each pass's ``wall`` is at the reference host speed when ``host_speed``
    (the samples cover ``main``; their speed factor scales the whole pass),
    and as measured otherwise; ``raw_wall`` is always as measured.
    """
    cache = run.path(f"cache{index}")
    passes = {}
    for kind in ("cold", "warm"):
        out_dir, result_path = run.path(f"{kind}{index}-out"), run.path(f"{kind}{index}.json")
        stdout_path = run.path(f"{kind}{index}.stdout")
        flags = ["-X", "importtime"] if trace and kind == "cold" else []
        wall, stderr = run.child(
            [*flags, str(HERE / "cli_pass.py"), str(result_path), *(["--trace"] if trace else []),
             *(["--host-speed"] if host_speed else []), "--", *FIGURE_ARGS, "--seed", str(run.seed),
             "--cache-dir", str(cache), "--out", str(out_dir)],
            f"{kind}{index}", stdout=stdout_path,
        )
        result = json.loads(result_path.read_text())
        meta = json.loads((out_dir / "fig16" / "meta.json").read_text())
        run.kernel_backend = meta.get("kernel_backend", run.kernel_backend)
        passes[kind] = dict(
            result, wall=hostspeed.at_reference_speed(wall, result["reference_samples"]),
            raw_wall=wall, stderr=stderr, digest=read_rows_digest(out_dir),
            table=stdout_path.read_text().split("artifact written to")[0], grid=meta["grid"],
        )
    return passes


def figure_failures(pairs: list[dict[str, Any]], expected: "str | None") -> tuple[int, list[str]]:
    """Cells failed: a pass that misses any check fails all its cells.

    Rows must match ``expected`` (else the first cold pass), each pass must
    compute or serve every cell, and the warm pass must print the cold table.
    """
    want = expected or pairs[0]["cold"]["digest"]
    failed, problems = 0, []
    for pair in pairs:
        for kind, served in (("cold", "computed"), ("warm", "from_cache")):
            one = pair[kind]
            issues = []
            if one["digest"] != want:
                issues.append(f"{kind} rows digest {one['digest'][:12]} != {want[:12]}")
            if one["grid"].get(served) != FIGURE_CELLS:
                issues.append(f"{kind} pass {served}={one['grid'].get(served)}, expected {FIGURE_CELLS}")
            if kind == "warm" and one["table"] != pair["cold"]["table"]:
                issues.append("warm table differs from cold table")
            if issues:
                failed += FIGURE_CELLS
                problems += issues
    return failed, problems


def figure_end_to_end(run: Run) -> dict[str, Any]:
    expected = reference_digests("figure-cli", run.seed)
    pairs = []
    deadline = time.perf_counter() + run.seconds
    while not pairs or time.perf_counter() + 0.5 * pair_time < deadline:
        started = time.perf_counter()
        pairs.append(figure_pair(run, len(pairs), trace=False, host_speed=True))
        pair_time = time.perf_counter() - started
    failed, problems = figure_failures(pairs, expected)
    cells = [t["elapsed_seconds"] for pair in pairs for t in pair["cold"]["grid"]["cell_timings"]]
    return {
        "metrics": {
            "setup_s": stats.median(p[k]["setup_s"] for p in pairs for k in ("cold", "warm")),
            "wall_s": stats.median(p["cold"]["wall"] for p in pairs),
            "peak_rss_mb": max(p[k]["peak_rss_mb"] for p in pairs for k in ("cold", "warm")),
        },
        "attempted": 2 * FIGURE_CELLS * len(pairs),
        "failed": failed,
        "lines": [
            setup_line([p[k]["setup_s"] for p in pairs for k in ("cold", "warm")],
                       [p[k]["raw_setup_s"] for p in pairs for k in ("cold", "warm")]),
            f"cell_p50_s: {stats.tail_label(cells, 's')} over {len(pairs)} cold passes",
            f"wall_s samples: {[round(p['cold']['wall'], 4) for p in pairs]} at the reference "
            f"host speed, {[round(p['cold']['raw_wall'], 4) for p in pairs]} as measured",
            f"warm_wall_s = {stats.median(p['warm']['wall'] for p in pairs):.6g} s "
            f"(samples {[round(p['warm']['wall'], 4) for p in pairs]} at the reference host speed, "
            f"{[round(p['warm']['raw_wall'], 4) for p in pairs]} as measured)",
            host_speed_line([x for p in pairs for k in ("cold", "warm") for x in p[k]["reference_samples"]]),
            f"rows checked against: {'reference' if expected else 'first cold pass'}",
        ] + [f"MISMATCH {p}" for p in problems],
    }


def figure_per_layer(run: Run) -> dict[str, Any]:
    plain = figure_pair(run, 0, trace=False)
    traced = figure_pair(run, 1, trace=True)
    summary = tracing.merge_summaries([traced["cold"]["trace"], traced["warm"]["trace"]])
    metrics = tracing.layer_metrics(summary)
    metrics.update(tracing.parse_importtime(traced["cold"]["stderr"]))
    metrics.update(overhead(traced["cold"]["wall"], plain["cold"]["wall"]))
    metrics["trace.unattributed_frac"] = unattributed(summary)
    failed, problems = figure_failures([plain, traced], reference_digests("figure-cli", run.seed))
    return {
        "metrics": metrics,
        "attempted": 4 * FIGURE_CELLS,
        "failed": failed,
        "lines": ["per-layer values are per cold+warm pair"] + [f"MISMATCH {p}" for p in problems],
    }


# --------------------------------------------------------------------------- #
# service-ingest
# --------------------------------------------------------------------------- #
def service_checks(result: dict[str, Any]) -> tuple[int, int, list[str]]:
    """Requests plus the three estimate checks and the duplicate count."""
    attempted = result["attempted"] + len(result["estimate_matches"]) + 1
    failed = result["failed"]
    problems = [f"{r['rate']}/s rung: {r['failed']} requests failed" for r in result["rungs"] if r["failed"]]
    for name, ok in result["estimate_matches"].items():
        if not ok:
            failed += 1
            problems.append(f"estimate of {name} is not byte-identical to a one-shot aggregate")
    attributes = result["server_stats"]["attributes"].values()
    duplicates = sum(a["duplicate_batches"] for a in attributes)
    if duplicates != result["expected_duplicates"]:
        failed += 1
        problems.append(f"server dropped {duplicates} duplicates, expected {result['expected_duplicates']}")
    server_failed = result["server_stats"]["failed_batches"]
    if server_failed:
        failed += server_failed
        problems.append(f"server failed to apply {server_failed} batches")
    return attempted, min(failed, attempted), problems


def service_spec(run: Run, trace: bool) -> dict[str, Any]:
    return {"seed": run.seed, "seconds": run.seconds, "trace": trace, "work_dir": str(run.work)}


def nominal_rung(result: dict[str, Any]) -> dict[str, Any]:
    return next(r for r in result["rungs"] if "summary" in r)


def nominal(result: dict[str, Any]) -> dict[str, Any]:
    """Latency samples of the nominal rung."""
    return nominal_rung(result)["summary"]


def service_lines(result: dict[str, Any]) -> list[str]:
    samples = nominal(result)
    hi = stats.tail(samples["ingest_ms"])
    sustained = [r["rate"] for r in result["rungs"] if r["sustained"]]
    return [
        f"ingest_p50_ms = {stats.median(samples['ingest_ms']):.4f} ms (n={len(samples['ingest_ms'])}); "
        + ", ".join(f"{k} {stats.median(v):.4f} ms" for k, v in samples["ingest_by_attribute_ms"].items()),
        f"ingest_p{hi[0]:g}_ms = {hi[1]:.4f} ms (n={hi[2]})" if hi else "ingest tail: too few samples",
        f"estimate_p50_ms = {stats.median(samples['estimate_ms']):.4f} ms (n={len(samples['estimate_ms'])})",
        f"sustained_batches_per_s = {max(sustained) if sustained else 0} batches/s",
    ] + [
        f"rung {r['rate']}/s: p{r['tail_pct']}={r['tail_ms']} ms, lag p50={r['lag_p50_ms']:.3f} ms, "
        f"drain {r['drain_s']:.4f} s, failed {r['failed']}, sustained={r['sustained']}"
        for r in result["rungs"]
    ]


def ingest_p50_s(result: dict[str, Any]) -> float:
    """Median ingest latency of each protocol at the nominal rate, averaged.

    The pooled median would sit wherever the GRR, OLH and OUE latency
    clusters happen to overlap, and jumps between runs.
    """
    per_protocol = nominal(result)["ingest_by_attribute_ms"].values()
    return sum(stats.median(v) for v in per_protocol) / len(per_protocol) / 1000.0


def ingest_p50_at_reference_s(result: dict[str, Any]) -> float:
    """:func:`ingest_p50_s` at the reference speed of the samples taken during the rung.

    The server is busy about a quarter of the time at the nominal rate, so
    a request's latency is mostly its own CPU work, which scales with the
    host's speed.
    """
    return ingest_p50_s(result) * hostspeed.speed_factor(nominal_rung(result)["reference_samples"])


def service_end_to_end(run: Run) -> dict[str, Any]:
    result, _ = run.spec_child("service_load.py", service_spec(run, False), "service")
    attempted, failed, problems = service_checks(result)
    return {
        "metrics": {
            "setup_s": stats.median(result["setups"]),
            "wall_s": ingest_p50_at_reference_s(result),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": attempted,
        "failed": failed,
        "lines": [setup_line(result["setups"], result["raw_setups"])] + service_lines(result)
        + [f"wall_s = ingest p50 averaged over the protocols: {ingest_p50_s(result) * 1000:.4f} ms "
           "as measured", host_speed_line(nominal_rung(result)["reference_samples"])]
        + [f"MISMATCH {p}" for p in problems],
    }


def service_per_layer(run: Run) -> dict[str, Any]:
    result, _ = run.spec_child("service_load.py", service_spec(run, True), "service")
    plain, traced = result["untraced"], result["traced"]
    plain_attempted, plain_failed, plain_problems = service_checks(plain)
    attempted, failed, problems = service_checks(traced)
    metrics = tracing.layer_metrics(result["trace"])
    metrics.update(result["importtime"])
    metrics.update(overhead(ingest_p50_s(traced), ingest_p50_s(plain)))
    metrics["trace.unattributed_frac"] = 0.0  # request spans have no enclosing root
    samples = nominal(traced)
    for name, values in samples["rtt_ms"].items():
        metrics[f"service.report_rtt_ms.{name}"] = stats.median(values)
    attributes = traced["server_stats"]["attributes"].values()
    metrics["service.accepted_batches"] = sum(a["batches"] for a in attributes)
    metrics["service.duplicate_batches"] = sum(a["duplicate_batches"] for a in attributes)
    metrics["service.rejected_batches"] = traced["server_stats"]["rejected_batches"]
    metrics["service.failed_batches"] = traced["server_stats"]["failed_batches"]
    lag_tail = stats.tail(samples["lag_ms"])
    metrics["service.generator_lag_ms"] = lag_tail[1] if lag_tail else max(samples["lag_ms"])
    return {
        "metrics": metrics,
        "attempted": plain_attempted + attempted,
        "failed": plain_failed + failed,
        "lines": ["per-layer values are totals over the traced server's schedule; "
                  "trace.overhead_* compares the nominal ingest p50 with the untraced server's",
                  f"service.generator_lag_ms is p{lag_tail[0]:g} (n={lag_tail[2]})" if lag_tail else ""]
        + [f"MISMATCH {p}" for p in plain_problems + problems],
    }


# --------------------------------------------------------------------------- #
# shared
# --------------------------------------------------------------------------- #
def cpu_steal_s() -> "float | None":
    """Seconds of CPU the hypervisor gave to others so far (``/proc/stat``)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_line(setups: "list[float]", raw_setups: "list[float]") -> str:
    return (f"setup_s samples: {[round(x, 4) for x in setups]} at the reference host speed, "
            f"{[round(x, 4) for x in raw_setups]} as measured")


def host_speed_line(samples: "list[float]") -> str:
    if not samples:
        return "host speed: no reference task sample"
    return (f"host speed: reference task p50 {stats.median(samples) * 1000:.2f} ms over {len(samples)} "
            f"samples, {hostspeed.REFERENCE_S * 1000:g} ms at the reference speed")


def overhead(traced_wall: float, plain_wall: float) -> dict[str, float]:
    return {
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    }


def unattributed(summary: dict[str, Any]) -> float:
    """Share of the traced passes spent outside every layer span."""
    root = summary["spans"].get("workload.pass")
    return root["self_s"] / root["total_s"] if root and root["total_s"] else 0.0


HANDLERS: dict[tuple[str, bool], Callable[[Run], dict[str, Any]]] = {}
for _name, _e2e, _layer in (
    ("reident-smp", grid_end_to_end, grid_per_layer),
    ("aif-rsfd", grid_end_to_end, grid_per_layer),
    ("figure-cli", figure_end_to_end, figure_per_layer),
    ("service-ingest", service_end_to_end, service_per_layer),
):
    HANDLERS[(_name, False)] = _e2e
    HANDLERS[(_name, True)] = _layer


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a checkout of the repository (no src/repro)", file=sys.stderr)
        return 2
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL, timeout=RUN_BUDGET_S,
    )
    run = Run(root, args.workload, args.seed, args.seconds)
    steal_before = cpu_steal_s()
    try:
        outcome = HANDLERS[(args.workload, bool(args.trace))](run)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    units = tracing.layer_metric_units() if args.trace else END_TO_END
    metrics = {name: {"value": float(outcome["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    attempted, failed = int(outcome["attempted"]), int(outcome["failed"])
    env = dict(environment(root, args.seed, run.kernel_backend), pinned=PINNED_ENV)
    steal_after = cpu_steal_s()
    if steal_before is not None and steal_after is not None:
        env["cpu_steal_s_during_run"] = round(steal_after - steal_before, 2)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in outcome["lines"]:
        if line:
            print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {stats.failed_frac(attempted, failed):.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
