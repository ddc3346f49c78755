"""The ``service-ingest`` workload: one load-generator process against
``python -m repro.service`` running in a subprocess.

Usage: ``python perfbench/service_load.py SPEC.json OUT.json``; the spec
gives ``seed``, ``seconds``, ``trace`` and ``work_dir``.

Three attributes, all at ε=1: GRR k=100, OLH k=100 and OUE k=16, so the
batches stress wire decode and validation differently.  Every batch holds
1024 reports, randomized before any timing from the seed.  Two sender
threads, one connection each, carry every request, so there are never more
than two connections.

* ``setup_s``: server launch until it has applied one warm-up batch per
  attribute (median of :data:`SETUP_REPEATS` launches), at the reference
  speed of a :func:`perfbench.hostspeed.probe` this process takes right
  after; ``raw_setups`` are as measured.
* The open loop: batches go out on a fixed schedule over the rate ladder
  :data:`LADDER`, interleaved across the attributes; every 5th batch is
  re-delivered under its original id, and one ``/estimate`` read goes out
  per :data:`ESTIMATE_EVERY` batches.  Latency counts from when a request
  was due.  ``ingest_*`` and ``wall_s`` (the median ingest latency of each
  protocol, averaged over the three, at the reference speed of the host
  samples a process beside this one takes during the rung) come from the
  nominal rung.  A rung is
  sustained when its tail latency stays within :data:`LATENCY_LIMIT_MS`,
  nothing failed, and the queue drains within :data:`DRAIN_LIMIT_S`
  afterwards.

At the end the served estimate of every attribute must be byte-identical
to a one-shot ``aggregate`` over the de-duplicated stream it accepted.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import hostspeed, stats  # noqa: E402
from perfbench import trace as tracing  # noqa: E402

#: ``(attribute, protocol, k)``, all at ε=1.
ATTRIBUTES = (("grr", "GRR", 100), ("olh", "OLH", 100), ("oue", "OUE", 16))
EPSILON = 1.0
BATCH_REPORTS = 1024
#: Distinct pre-randomized batches per attribute; its ``j``-th batch reuses entry ``j % POOL``.
POOL = 12
SETUP_REPEATS = 3
DUPLICATE_EVERY = 5
ESTIMATE_EVERY = 10
#: ``(batches per second, share of --seconds)``, in the order they run.  The
#: 50/s rung is nominal: the two before it warm the server up (the first
#: seconds of traffic after launch run up to twice as slow), and it is long
#: (625 deliveries at 20 s).  At 50/s the server is busy about a quarter of
#: the time, so its latency is mostly service time even when the shared host
#: runs at half speed; at 100/s it was busy half the time, and a slow spell
#: of the host multiplied the median latency by up to five by queueing.  The
#: rung that saturates the server runs last.
LADDER = ((100, 0.0625), (200, 0.0625), (50, 0.625), (400, 0.0625))
NOMINAL_RATE = 50
LATENCY_LIMIT_MS = 50.0
DRAIN_LIMIT_S = 0.25


def _service_args() -> list[str]:
    args = ["--listen", "127.0.0.1:0"]
    for name, protocol, k in ATTRIBUTES:
        args += ["--attribute", f"{name}:{protocol}:{k}:{EPSILON}"]
    return args


class Server:
    """One server subprocess, stopped with SIGINT like an interactive user would."""

    def __init__(self, work_dir: Path, label: str, trace_out: "Path | None" = None) -> None:
        here = Path(__file__).resolve().parent
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service", *_service_args()]
        else:
            command = [
                sys.executable, "-X", "importtime", str(here / "serve_traced.py"),
                str(trace_out), "--", *_service_args(),
            ]
        self.stderr_path = work_dir / f"server-{label}.stderr"
        self.t_spawn = time.perf_counter()
        with open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(
                f"server did not start: {line!r}; see {self.stderr_path.name}: "
                + self.stderr_path.read_text()[-2000:]
            )
        host, port = line.rsplit("http://", 1)[1].strip().split(":")
        self.host, self.port = host, int(port)

    def request(self, method: str, path: str, body: "bytes | None" = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def json(self, method: str, path: str) -> dict[str, Any]:
        status, raw = self.request(method, path, b"{}" if method == "POST" else None)
        if status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {status} {raw[:200]!r}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Traffic:
    """Pre-encoded batches plus the record of what the server accepted."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro.protocols.registry import make_protocol

        rng = np.random.default_rng([seed, 7031])
        self.pool: dict[str, list[bytes]] = {}
        self.reports: dict[str, list[Any]] = {}
        self.oracles: dict[str, Any] = {}
        for name, protocol, k in ATTRIBUTES:
            oracle = make_protocol(protocol, k=k, epsilon=EPSILON, rng=rng)
            weights = 1.0 / np.arange(1, k + 1)
            weights /= weights.sum()
            batches = [oracle.randomize_many(rng.choice(k, size=BATCH_REPORTS, p=weights))
                       for _ in range(POOL)]
            self.oracles[name] = oracle
            self.reports[name] = batches
            self.pool[name] = [json.dumps(np.asarray(b).tolist()).encode() for b in batches]
        self.accepted: dict[str, set[str]] = {name: set() for name, _, _ in ATTRIBUTES}
        self.deliveries = 0  # 202 replies, re-deliveries included
        self.next_index = 0
        self._lock = threading.Lock()

    def new_batches(self, count: int) -> list[tuple[str, str, int]]:
        """``count`` fresh ``(attribute, batch_id, pool_index)``, interleaved."""
        out = []
        for _ in range(count):
            index = self.next_index
            self.next_index += 1
            name = ATTRIBUTES[index % len(ATTRIBUTES)][0]
            out.append((name, f"{name}-{index:07d}", (index // len(ATTRIBUTES)) % POOL))
        return out

    def body(self, batch: tuple[str, str, int]) -> bytes:
        name, batch_id, pool_index = batch
        return (b'{"attribute":"' + name.encode() + b'","batch_id":"' + batch_id.encode()
                + b'","reports":' + self.pool[name][pool_index] + b"}")

    def record_accepted(self, batch: tuple[str, str, int]) -> None:
        with self._lock:
            self.deliveries += 1
            self.accepted[batch[0]].add(batch[1])

    def reference_matches(self, server: Server) -> dict[str, bool]:
        """Served estimate vs a one-shot ``aggregate`` of the accepted stream."""
        import numpy as np

        verdict = {}
        for name, _, _ in ATTRIBUTES:
            ids = sorted(self.accepted[name])
            pool_indices = [(int(i.rsplit("-", 1)[1]) // len(ATTRIBUTES)) % POOL for i in ids]
            chunks = (self.reports[name][p] for p in pool_indices)
            total = BATCH_REPORTS * len(ids)
            expected = self.oracles[name].aggregate(chunks, n=total)
            served = server.json("GET", f"/estimate?attribute={name}")
            got = np.asarray(served["estimates"], dtype=np.float64)
            verdict[name] = bool(
                served["n"] == total
                and got.tobytes() == np.asarray(expected.estimates, dtype=np.float64).tobytes()
            )
        return verdict


def send(server: Server, traffic: Traffic, schedule: list[tuple[float, str, Any]]) -> list[dict]:
    """Send ``(due, kind, item)`` requests over two connections, open loop.

    Each sender takes the next request only once its previous one finished,
    and waits until that request is due, so a slow server delays the
    requests behind it; the records keep due, send and finish times.
    """
    records: list[dict] = [{} for _ in schedule]
    cursor = [0]
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            due, kind, item = schedule[index]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                if kind == "estimate":
                    status, _ = server.request("GET", f"/estimate?attribute={item}")
                else:
                    status, _ = server.request("POST", "/report", traffic.body(item))
            except (OSError, http.client.HTTPException) as exc:
                status = f"error: {exc!r}"
            done = time.perf_counter()
            if kind != "estimate" and status == 202:
                traffic.record_accepted(item)
            records[index] = {"due": due, "sent": sent, "done": done, "kind": kind,
                              "attribute": item if kind == "estimate" else item[0],
                              "ok": status in (200, 202), "status": status}

    threads = [threading.Thread(target=sender) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def flush_time(server: Server) -> float:
    started = time.perf_counter()
    server.json("POST", "/flush")
    return time.perf_counter() - started


def warm_up(server: Server, traffic: Traffic) -> float:
    """One batch per attribute, applied; returns ``setup_s``."""
    records = send(server, traffic, [(0.0, "report", b) for b in traffic.new_batches(len(ATTRIBUTES))])
    server.json("POST", "/flush")
    if not all(r["ok"] for r in records):
        raise RuntimeError(f"warm-up batch refused: {[r['status'] for r in records]}")
    return time.perf_counter() - server.t_spawn


def ladder_schedule(traffic: Traffic, rate: float, seconds: float, start: float) -> list:
    """``(due, kind, item)`` for one rung: one delivery per ``1/rate`` slot.

    Every :data:`DUPLICATE_EVERY`-th batch takes the next slot again under
    its original id; every :data:`ESTIMATE_EVERY`-th batch is accompanied by
    an ``/estimate`` read due at the same time.
    """
    schedule: list[tuple[float, str, Any]] = []
    delivered = 0
    redeliver = None
    slot = 0
    while slot / rate < seconds:
        due = start + slot / rate
        slot += 1
        if redeliver is not None:
            schedule.append((due, "report", redeliver))
            redeliver = None
            continue
        (batch,) = traffic.new_batches(1)
        schedule.append((due, "report", batch))
        delivered += 1
        if delivered % DUPLICATE_EVERY == 0:
            redeliver = batch
        if delivered % ESTIMATE_EVERY == 0:
            name = ATTRIBUTES[(delivered // ESTIMATE_EVERY) % len(ATTRIBUTES)][0]
            schedule.append((due, "estimate", name))
    return schedule


def rung_summary(records: list[dict]) -> dict[str, Any]:
    """Due-time latencies, generator lag and per-attribute round trips (ms)."""
    reports = [r for r in records if r["kind"] == "report"]
    reads = [r for r in records if r["kind"] == "estimate"]
    ingest, lags = stats.due_latencies((r["due"], r["sent"], r["done"]) for r in reports)
    estimate, _ = stats.due_latencies((r["due"], r["sent"], r["done"]) for r in reads)
    rtt: dict[str, list[float]] = {name: [] for name, _, _ in ATTRIBUTES}
    by_attribute: dict[str, list[float]] = {name: [] for name, _, _ in ATTRIBUTES}
    for r, latency in zip(reports, ingest):
        rtt[r["attribute"]].append(1000 * (r["done"] - r["sent"]))
        by_attribute[r["attribute"]].append(1000 * latency)
    return {
        "ingest_ms": [1000 * x for x in ingest],
        "ingest_by_attribute_ms": by_attribute,
        "estimate_ms": [1000 * x for x in estimate],
        "lag_ms": [1000 * x for x in lags],
        "rtt_ms": rtt,
    }


def start_host_sampler() -> subprocess.Popen:
    """A process sampling the host speed (:func:`perfbench.hostspeed.main`).

    It samples beside this process, not in it: a sample holds the GIL for
    tens of milliseconds, which would stall the sender threads.
    """
    return subprocess.Popen(
        [sys.executable, hostspeed.__file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )


def stop_host_sampler(process: subprocess.Popen) -> list[float]:
    try:
        out, _ = process.communicate(timeout=10)  # closes its stdin: it prints and exits
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"host speed sampler exited {process.returncode}")
    return json.loads(out)


def run_ladder(server: Server, traffic: Traffic, seconds: float) -> tuple[list[dict], list[dict]]:
    """Every rung of :data:`LADDER`; returns the rung verdicts and all records."""
    rungs, everything = [], []
    for rate, share in LADDER:
        sampler = start_host_sampler() if rate == NOMINAL_RATE else None
        try:
            schedule = ladder_schedule(traffic, rate, share * seconds, time.perf_counter() + 0.05)
            records = send(server, traffic, schedule)
            drained_s = flush_time(server)
        finally:
            samples = stop_host_sampler(sampler) if sampler is not None else []
        summary = rung_summary(records)
        hi = stats.tail(summary["ingest_ms"])
        failed = sum(1 for r in records if not r["ok"])
        rungs.append({
            "rate": rate,
            "requests": len(records),
            "failed": failed,
            "tail_pct": hi[0] if hi else None,
            "tail_ms": hi[1] if hi else None,
            "lag_p50_ms": stats.median(summary["lag_ms"]),
            "drain_s": drained_s,
            "sustained": bool(failed == 0 and hi is not None
                              and hi[1] <= LATENCY_LIMIT_MS and drained_s <= DRAIN_LIMIT_S),
        })
        if rate == NOMINAL_RATE:
            rungs[-1]["summary"] = summary
            rungs[-1]["reference_samples"] = samples
        everything += records
    return rungs, everything


def measure(server: Server, traffic: Traffic, seconds: float) -> dict[str, Any]:
    rungs, records = run_ladder(server, traffic, seconds)
    server.json("POST", "/flush")
    return {
        "rungs": rungs,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "server_stats": server.json("GET", "/stats"),
        "estimate_matches": traffic.reference_matches(server),
        "peak_rss_mb": server.peak_rss_mb(),
        "expected_duplicates": traffic.deliveries - sum(len(i) for i in traffic.accepted.values()),
    }


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    seed, seconds, work_dir = int(spec["seed"]), float(spec["seconds"]), Path(spec["work_dir"])
    result: dict[str, Any] = {}
    if not spec.get("trace"):
        setups, raw_setups = [], []
        for repeat in range(SETUP_REPEATS):
            traffic = Traffic(seed)
            server = Server(work_dir, f"setup-{repeat}")
            try:
                raw_setups.append(warm_up(server, traffic))
                # the server is idle now; this process probes the same host
                setups.append(raw_setups[-1] * hostspeed.speed_factor(hostspeed.probe()))
                if repeat == SETUP_REPEATS - 1:
                    result.update(measure(server, traffic, seconds))
            finally:
                server.stop()
        result.update(setups=setups, raw_setups=raw_setups)
    else:
        # the same schedule at half length, untraced and then traced
        for label, trace_out in (("untraced", None), ("traced", work_dir / "server-trace.json")):
            traffic = Traffic(seed)
            server = Server(work_dir, label, trace_out=trace_out)
            try:
                warm_up(server, traffic)
                result[label] = measure(server, traffic, seconds / 2)
            finally:
                server.stop()
        result["trace"] = json.loads((work_dir / "server-trace.json").read_text())
        result["importtime"] = tracing.parse_importtime(server.stderr_path.read_text())
    from repro.kernels import active_backend_name

    result["kernel_backend"] = active_backend_name()
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
