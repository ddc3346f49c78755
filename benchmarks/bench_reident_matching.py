"""Benchmark — incremental re-identification engine vs the reference path.

Seven of the paper's figures (2, 4, 9-13) are RID-ACC-vs-#surveys curves,
so ``ReidentificationAttack.evaluate_profiling`` is the attacker-side
wall-clock bottleneck once GBDT training is fast (PR 3).  This benchmark

* times the incremental block-outer/snapshot-inner engine
  (:class:`repro.attacks.reidentification.ReidentificationAttack`) against
  the original per-snapshot full-recompute engine
  (``ReferenceReidentificationAttack`` from the test-only oracle
  ``tests/attacks/reidentification_reference.py``, imported by putting that
  directory on ``sys.path``) on the *same* delta-backed profiling result at
  fig-2 scale;
* measures each engine's peak memory with ``tracemalloc`` and compares the
  delta storage of :class:`~repro.attacks.profile.ProfilingResult` against
  the ``S`` dense snapshot copies it replaced;
* checks accuracy equivalence: the engines agree exactly on tie-free cells
  and are distributionally identical under ties, so their RID-ACC values per
  (#surveys, top-k) must agree within binomial noise;
* writes everything to a JSON artifact so CI can track the trajectory.

Run directly (this file is a script, not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_reident_matching.py --quick

``--quick`` shrinks the workload for CI smoke runs and skips the speedup
gate (machine-dependent); the default full run enforces the acceptance
threshold of a >= 5x ``evaluate_profiling`` speedup at fig-2 scale.  Exits
non-zero on any failed gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.attacks import ReidentificationAttack, build_profiles_smp, plan_surveys
from repro.datasets.loaders import load_dataset
from repro.exceptions import InvalidParameterError
from repro.kernels import (
    KERNEL_BACKEND_CHOICES,
    active_backend_name,
    get_backend,
    numba_available,
    set_backend,
)

# the pre-incremental engine is a test-only oracle
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "attacks"))
from reidentification_reference import ReferenceReidentificationAttack  # noqa: E402

#: Maximum |RID-ACC difference| (percentage points) tolerated between the
#: two engines for any (#surveys, top-k) point.  Tie-free decisions agree
#: exactly; tied decisions are independent draws of identical per-user hit
#: probabilities, so the gap is binomial noise — the gates below sit at
#: >= 5 sigma for the corresponding quick/full user counts.
QUICK_ACCURACY_GATE_PCT = 5.0
FULL_ACCURACY_GATE_PCT = 1.5


def warm_kernels() -> None:
    """Trigger JIT compilation of the distance kernels before any timing.

    A no-op for the NumPy backend; for numba this compiles the int16/int32
    specializations outside the timed region so the one-time compile cost
    does not pollute the backend comparison.
    """
    backend = get_backend()
    rows = np.zeros((2, 3), dtype=np.int64)
    background = np.zeros((2, 3), dtype=np.int64)
    attributes = np.arange(3, dtype=np.int64)
    for dtype in (np.int16, np.int32):
        out = np.zeros((2, 2), dtype=dtype)
        backend.distance_block(rows, background, attributes, -1, out)
        backend.distance_update(
            out,
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.int64),
            background[:, 0],
            -1,
        )


def timed(fn):
    """``(result, seconds, peak_bytes)`` of one call, traced by tracemalloc."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def run_engine(attack_cls, dataset, profiling, top_ks: tuple[int, ...]) -> dict:
    """One engine's full fig-2 workload: every top-k curve of one cell."""
    attack = attack_cls(dataset, rng=2)

    def workload():
        return {
            top_k: attack.evaluate_profiling(profiling, top_k=top_k, model="FK-RI")
            for top_k in top_ks
        }

    results, seconds, peak = timed(workload)
    return {
        "engine": attack_cls.__name__,
        "seconds": seconds,
        "peak_bytes": peak,
        "rid_acc_pct": {
            str(top_k): {
                str(surveys): 100.0 * result.accuracy
                for surveys, result in sorted(per_k.items())
            }
            for top_k, per_k in results.items()
        },
    }


def snapshot_storage(profiling) -> dict:
    """Delta storage vs the S dense snapshot copies it replaced."""
    n, d = profiling.shape
    dense_bytes = len(profiling.deltas) * n * d * 8
    delta_bytes = sum(
        delta.rows.nbytes + delta.attributes.nbytes + delta.values.nbytes
        for delta in profiling.deltas
    )
    return {
        "surveys": len(profiling.deltas),
        "dense_snapshot_bytes": dense_bytes,
        "delta_bytes": delta_bytes,
        "compression": dense_bytes / delta_bytes if delta_bytes else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI-smoke workload (seconds, not minutes)"
    )
    parser.add_argument("--n", type=int, default=None, help="number of users")
    parser.add_argument("--surveys", type=int, default=None, help="number of surveys")
    parser.add_argument("--epsilon", type=float, default=4.0, help="LDP budget")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="fail unless the full-scale evaluate_profiling speedup reaches "
        "this factor (ignored with --quick)",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=KERNEL_BACKEND_CHOICES,
        default=None,
        help="repro.kernels backend for the timed engines "
        "(default: REPRO_KERNEL_BACKEND, else auto)",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=3.0,
        help="with the numba backend active, fail unless the full-scale "
        "numba-over-numpy kernel speedup reaches this factor (ignored with "
        "--quick)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("bench_reident_matching.json"),
        help="path of the JSON artifact",
    )
    args = parser.parse_args(argv)
    try:
        set_backend(args.kernel_backend)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warm_kernels()

    if args.quick:
        n, num_surveys = 4000, 5
    else:
        # fig-2 scale: the full Adult collection, a long survey horizon
        n, num_surveys = None, 10
    n = args.n if args.n is not None else n
    num_surveys = args.surveys if args.surveys is not None else num_surveys
    top_ks = (1, 10)

    dataset = load_dataset("adult", n=n, rng=7)
    surveys = plan_surveys(dataset.d, num_surveys, rng=1)
    profiling = build_profiles_smp(
        dataset, surveys, protocol="GRR", epsilon=args.epsilon, metric="uniform", rng=3
    )
    storage = snapshot_storage(profiling)
    print(
        f"fig-2 workload  (n={dataset.n:,}, d={dataset.d}, surveys={num_surveys}, "
        f"epsilon={args.epsilon}, top_ks={top_ks}, "
        f"kernel backend={active_backend_name()})"
    )
    print(
        f"  profiling storage: deltas {storage['delta_bytes'] / 1e6:.1f} MB vs "
        f"{storage['surveys']} dense snapshots {storage['dense_snapshot_bytes'] / 1e6:.1f} MB "
        f"({storage['compression']:.1f}x smaller)"
    )

    new = run_engine(ReidentificationAttack, dataset, profiling, top_ks)
    old = run_engine(ReferenceReidentificationAttack, dataset, profiling, top_ks)
    speedup = old["seconds"] / new["seconds"]
    memory_ratio = old["peak_bytes"] / max(1, new["peak_bytes"])
    print(
        f"  incremental {new['seconds']:7.2f} s   reference {old['seconds']:7.2f} s   "
        f"speedup {speedup:.1f}x"
    )
    print(
        f"  peak memory: incremental {new['peak_bytes'] / 1e6:.1f} MB   "
        f"reference {old['peak_bytes'] / 1e6:.1f} MB   ({memory_ratio:.1f}x less)"
    )

    max_diff_pct = 0.0
    for top_k in top_ks:
        for surveys_done, new_pct in new["rid_acc_pct"][str(top_k)].items():
            old_pct = old["rid_acc_pct"][str(top_k)][surveys_done]
            max_diff_pct = max(max_diff_pct, abs(new_pct - old_pct))
            print(
                f"    top-{top_k:<2} surveys={surveys_done}: "
                f"incremental {new_pct:6.2f}%  reference {old_pct:6.2f}%"
            )
    print(f"  max |RID-ACC difference| {max_diff_pct:.3f} pct points")

    # numba-vs-numpy kernel comparison: the incremental engine's RNG stream
    # and integer distance state are backend-independent, so RID-ACC must
    # match exactly; the speedup is what the numba backend is for.
    kernel = {"backend": active_backend_name()}
    if active_backend_name() == "numba":
        set_backend("numpy")
        warm_kernels()
        numpy_run = run_engine(ReidentificationAttack, dataset, profiling, top_ks)
        set_backend("numba")
        kernel_speedup = numpy_run["seconds"] / new["seconds"]
        kernel.update(
            {
                "numpy_seconds": numpy_run["seconds"],
                "numba_seconds": new["seconds"],
                "kernel_speedup": kernel_speedup,
                "rid_acc_exact_match": numpy_run["rid_acc_pct"] == new["rid_acc_pct"],
            }
        )
        print(
            f"  kernel backends: numba {new['seconds']:7.2f} s   "
            f"numpy {numpy_run['seconds']:7.2f} s   "
            f"speedup {kernel_speedup:.1f}x   "
            f"exact RID-ACC match: {kernel['rid_acc_exact_match']}"
        )
    elif numba_available():
        print("  (numba available but not selected; no kernel comparison)")

    artifact = {
        "benchmark": "bench_reident_matching",
        "quick": args.quick,
        "config": {
            "n": dataset.n,
            "d": dataset.d,
            "num_surveys": num_surveys,
            "epsilon": args.epsilon,
            "top_ks": list(top_ks),
        },
        "storage": storage,
        "kernel": kernel,
        "incremental": new,
        "reference": old,
        "speedup": speedup,
        "peak_memory_ratio": memory_ratio,
        "max_rid_acc_diff_pct": max_diff_pct,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    print(f"\nartifact written to {args.out}")

    failed = False
    accuracy_gate = QUICK_ACCURACY_GATE_PCT if args.quick else FULL_ACCURACY_GATE_PCT
    if max_diff_pct > accuracy_gate:
        print(
            f"FAIL: RID-ACC gap {max_diff_pct:.3f} pct points > {accuracy_gate} "
            "(engines are no longer distributionally equivalent)"
        )
        failed = True
    if not args.quick and speedup < args.min_speedup:
        print(
            f"FAIL: evaluate_profiling speedup {speedup:.1f}x "
            f"< required {args.min_speedup:.1f}x"
        )
        failed = True
    if "kernel_speedup" in kernel:
        if not kernel["rid_acc_exact_match"]:
            print("FAIL: numba and numpy kernel backends disagree on RID-ACC")
            failed = True
        if not args.quick and kernel["kernel_speedup"] < args.min_kernel_speedup:
            print(
                f"FAIL: numba kernel speedup {kernel['kernel_speedup']:.1f}x "
                f"< required {args.min_kernel_speedup:.1f}x"
            )
            failed = True
    if failed:
        return 1
    print("all equivalence/speedup gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
