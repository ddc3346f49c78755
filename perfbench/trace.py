"""Spans recorded from outside the program, and the per-layer metrics.

The traced pass wraps the public entry points of each ``repro`` layer with
a span recorder (:func:`install`); nothing inside ``src/`` knows it is being
traced.  Spans stay in memory and are summarised once at the end: a layer's
*self time* is its span duration minus the part of that interval its child
spans cover, so nested layers (``ml.gbdt_fit`` around
``kernels.histogram_product``) are never counted twice.

This module imports ``repro`` only inside :func:`install`, so the unit
tests and the orchestrator can use the rest without the program.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from typing import Any, Callable, Iterable, Sequence

#: Layers whose calls and self time are reported, in report order.  Each
#: maps to the workloads and end-to-end metrics it should move (the map
#: later performance changes cite; ``README.md`` explains it).
SPAN_LAYERS: dict[str, str] = {
    "kernels.distance_block": "reident-smp wall_s, cell_p50_s",
    "kernels.distance_update": "reident-smp wall_s, cell_p50_s",
    "kernels.histogram_product": "aif-rsfd wall_s",
    "kernels.olh_support": "reident-smp wall_s (OLH cells); service-ingest ingest_p50_ms (olh)",
    "kernels.olh_attack_counts": "reident-smp wall_s (OLH cells)",
    "kernels.olh_attack_select": "reident-smp wall_s (OLH cells)",
    "ml.gbdt_fit": "aif-rsfd wall_s",
    "ml.gbdt_predict": "aif-rsfd wall_s",
    "attacks.build_profiles": "reident-smp wall_s",
    "attacks.evaluate_profiling": "reident-smp wall_s",
    "attacks.aif_run": "aif-rsfd wall_s",
    "attacks.synthetic_training_reports": "aif-rsfd wall_s",
    "protocols.randomize_many": "figure-cli wall_s; service-ingest ingest_p50_ms",
    "protocols.aggregate": "figure-cli wall_s; service-ingest ingest_p50_ms",
    "protocols.validate_reports": "figure-cli wall_s; service-ingest ingest_p50_ms",
    "multidim.collect": "figure-cli wall_s",
    "multidim.estimate": "figure-cli wall_s",
    "privacy.make_priors": "figure-cli wall_s, cell_p50_s",
    "datasets.load_dataset": "reident-smp, aif-rsfd, figure-cli cell_p50_s",
    "experiments.store_get": "figure-cli wall_s, warm_wall_s",
    "experiments.store_put": "figure-cli wall_s, warm_wall_s",
    "service.decode": "service-ingest ingest_p99_ms, sustained_batches_per_s",
    "service.apply": "service-ingest ingest_p99_ms, sustained_batches_per_s",
}

#: Per-layer metrics that are not span summaries: ``name -> (unit, moves)``.
OTHER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "startup.import_repro_s": ("s", "setup_s on every workload; figure-cli warm_wall_s"),
    "startup.import_scipy_s": ("s", "setup_s on every workload; figure-cli warm_wall_s"),
    "kernels.histogram_product.flops_computed": ("flop", "aif-rsfd wall_s"),
    "kernels.histogram_product.bytes_computed": ("B", "aif-rsfd wall_s"),
    "experiments.cache_hit_ratio": ("ratio", "figure-cli wall_s, warm_wall_s"),
    "experiments.grid_overhead_s": ("s", "figure-cli wall_s, warm_wall_s"),
    "service.report_rtt_ms.grr": ("ms", "service-ingest ingest_p50_ms"),
    "service.report_rtt_ms.olh": ("ms", "service-ingest ingest_p50_ms"),
    "service.report_rtt_ms.oue": ("ms", "service-ingest ingest_p50_ms"),
    "service.accepted_batches": ("count", "service-ingest sustained_batches_per_s"),
    "service.rejected_batches": ("count", "service-ingest sustained_batches_per_s"),
    "service.failed_batches": ("count", "service-ingest sustained_batches_per_s"),
    "service.duplicate_batches": ("count", "service-ingest ingest_p50_ms"),
    "service.max_queue_depth": ("count", "service-ingest ingest_p99_ms"),
    "service.flush_s": ("s", "service-ingest sustained_batches_per_s"),
    "service.generator_lag_ms": ("ms", "service-ingest ingest_p99_ms (generator, not program)"),
    "trace.overhead_s": ("s", "none: traced wall_s minus untraced wall_s"),
    "trace.overhead_frac": ("ratio", "none: trace.overhead_s over untraced wall_s"),
    "trace.unattributed_frac": ("ratio", "none: share of a traced pass in no layer span"),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for name in ("startup.import_repro_s", "startup.import_scipy_s"):
        units[name] = OTHER_LAYER_METRICS[name][0]
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, (unit, _) in OTHER_LAYER_METRICS.items():
        units.setdefault(name, unit)
    return units


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    ``parent_index`` is ``-1`` for a root.  A child's interval is clipped
    to its parent's, and overlapping children (spans of other threads never
    share a parent, but a clock can jitter) are merged before subtracting,
    so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(max(0.0, (end - start) - covered))
    return result


class Tracer:
    """In-memory span and counter recorder, safe to use from many threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._spans: list[list[Any]] = []  # [name, start, end, parent]
        self._counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self._spans)
            self._spans.append([name, self.clock(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {index} ended out of order")
        stack.pop()
        self._spans[index][2] = now

    def current(self) -> "str | None":
        stack = self._stack()
        return self._spans[stack[-1]][0] if stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] = max(self._counters.get(name, value), value)

    def reset(self) -> None:
        """Forget everything recorded so far (after a warm-up)."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        measure: "Callable[..., None] | None" = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call.

        A call made while the innermost open span already has ``name`` (an
        override calling ``super()``) passes straight through, so calls are
        counted once.  ``measure(*args, **kwargs)`` runs before the call to
        record shape-derived counters.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.current() == name:
                return fn(*args, **kwargs)
            if measure is not None:
                measure(*args, **kwargs)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def summary(self) -> dict[str, Any]:
        """``{"spans": {name: {calls, self_s, total_s}}, "counters": {...}}``.

        Spans still open (a thread cut off mid-call) are ignored.
        """
        with self._lock:
            spans = [list(s) for s in self._spans]
            counters = dict(self._counters)
        selfs = self_times([(s[1], s[1] if s[2] is None else s[2], s[3]) for s in spans])
        table: dict[str, dict[str, float]] = {}
        for span, own in zip(spans, selfs):
            if span[2] is None:
                continue
            row = table.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[2] - span[1]
        return {"spans": table, "counters": counters}


def merge_summaries(summaries: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Sum span tables and counters of several traced processes.

    Counters named ``*max_*`` keep their maximum instead of a sum.
    """
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, row in summary.get("spans", {}).items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += row[key]
        for name, value in summary.get("counters", {}).items():
            if "max_" in name:
                counters[name] = max(counters.get(name, value), value)
            else:
                counters[name] = counters.get(name, 0.0) + value
    return {"spans": spans, "counters": counters}


def parse_importtime(stderr: str) -> dict[str, float]:
    """``startup.import_repro_s`` and ``startup.import_scipy_s`` from ``-X importtime``.

    ``repro`` is the cumulative time of its top-level import lines (so it
    includes numpy and scipy); ``scipy`` is the sum of self times of every
    ``scipy`` module, wherever it was imported from.
    """
    repro_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2].rstrip()
        name = module.strip()
        depth = len(module) - len(module.lstrip())
        if (name == "repro" or name.startswith("repro.")) and depth <= 1:
            repro_us += cumulative
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += own
    return {
        "startup.import_repro_s": repro_us / 1e6,
        "startup.import_scipy_s": scipy_us / 1e6,
    }


# --------------------------------------------------------------------------- #
# wrapping the program's entry points
# --------------------------------------------------------------------------- #
def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``.

    ``from x import f`` copies the binding into the importing module, so the
    defining module alone is not enough.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_methods(tracer: Tracer, root: type, methods: dict[str, str]) -> None:
    """Wrap ``methods`` (attribute -> span name) on ``root`` and every subclass
    that defines them itself."""
    classes = [root]
    index = 0
    while index < len(classes):
        classes.extend(c for c in classes[index].__subclasses__() if c not in classes)
        index += 1
    for cls in classes:
        for attr, name in methods.items():
            fn = cls.__dict__.get(attr)
            if callable(fn):
                setattr(cls, attr, tracer.wrap(fn, name))


def _histogram_measure(tracer: Tracer) -> Callable[..., None]:
    def measure(weights_t: Any, features: Any, *_: Any, **__: Any) -> None:
        slots, n = weights_t.shape
        width = features.shape[1]
        tracer.count("kernels.histogram_product.flops_computed", 2.0 * slots * n * width)
        tracer.count(
            "kernels.histogram_product.bytes_computed",
            8.0 * (slots * n + n * width + slots * width),
        )

    return measure


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer with spans."""
    import repro.attacks.attribute_inference as aif
    import repro.attacks.profile as profile
    import repro.attacks.reidentification as reid
    import repro.datasets.loaders as loaders
    import repro.experiments  # noqa: F401  (loads every module whose classes are wrapped)
    import repro.experiments.grid as grid
    import repro.kernels as kernels
    import repro.ml.gradient_boosting as gb
    import repro.multidim.base as multidim
    import repro.privacy.priors as priors
    import repro.protocols.base as protocols
    import repro.service.server as server

    backend = kernels.get_backend()
    wrapped_kernels = {
        name: tracer.wrap(
            fn,
            f"kernels.{name}",
            _histogram_measure(tracer) if name == "histogram_product" else None,
        )
        for name, fn in backend.kernels().items()
    }
    traced_backend = dataclasses.replace(backend, **wrapped_kernels)
    _rebind(kernels.get_backend, lambda: traced_backend)

    for fn, name in (
        (profile.build_profiles_smp, "attacks.build_profiles"),
        (profile.build_profiles_rsfd, "attacks.build_profiles"),
        (loaders.load_dataset, "datasets.load_dataset"),
        (priors.make_priors, "privacy.make_priors"),
    ):
        _rebind(fn, tracer.wrap(fn, name))

    _wrap_methods(tracer, gb.GradientBoostingClassifier, {
        "fit": "ml.gbdt_fit",
        "predict": "ml.gbdt_predict",
        "predict_proba": "ml.gbdt_predict",
    })
    _wrap_methods(tracer, reid.ReidentificationAttack, {
        "evaluate_profiling": "attacks.evaluate_profiling",
    })
    _wrap_methods(tracer, aif.AttributeInferenceAttack, {
        "run": "attacks.aif_run",
        "synthetic_training_reports": "attacks.synthetic_training_reports",
    })
    _wrap_methods(tracer, protocols.FrequencyOracle, {
        "randomize_many": "protocols.randomize_many",
        "aggregate": "protocols.aggregate",
        "validate_reports": "protocols.validate_reports",
    })
    _wrap_methods(tracer, multidim.MultidimSolution, {
        "collect": "multidim.collect",
        "estimate": "multidim.estimate",
    })
    _wrap_methods(tracer, grid.CellStore, {
        "get": "experiments.store_get",
        "put": "experiments.store_put",
    })
    _wrap_methods(tracer, server.AttributeCollector, {
        "decode": "service.decode",
        "apply": "service.apply",
    })
    _wrap_methods(tracer, server.CollectionService, {"flush": "service.flush"})

    run_grid = grid.run_grid

    @functools.wraps(run_grid)
    def traced_run_grid(*args: Any, **kwargs: Any) -> Any:
        result = run_grid(*args, **kwargs)
        computed = sum(o.elapsed for o in result.outcomes if o.source == "computed")
        tracer.count("experiments.cells_requested", result.n_cells)
        tracer.count("experiments.cells_served", result.from_cache)
        tracer.count("experiments.grid_overhead_s", max(0.0, result.elapsed - computed))
        return result

    _rebind(run_grid, traced_run_grid)

    enqueue = server.CollectionService.enqueue

    @functools.wraps(enqueue)
    def traced_enqueue(self: Any, *args: Any, **kwargs: Any) -> bool:
        admitted = enqueue(self, *args, **kwargs)
        tracer.peak("service.max_queue_depth", float(self.stats()["queue_depth"]))
        return admitted

    server.CollectionService.enqueue = traced_enqueue  # type: ignore[method-assign]


def layer_metrics(summary: dict[str, Any], per: float = 1.0) -> dict[str, float]:
    """Per-layer metric values from a span summary, divided by ``per`` units of work.

    Ratios and maxima are not divided.  Metrics the summary has no data for
    read 0 (the layer did no work on this workload).
    """
    spans = summary.get("spans", {})
    counters = summary.get("counters", {})
    values = {name: 0.0 for name in layer_metric_units()}
    for layer in SPAN_LAYERS:
        row = spans.get(layer, {})
        values[f"{layer}.calls"] = row.get("calls", 0) / per
        values[f"{layer}.self_s"] = row.get("self_s", 0.0) / per
    for name in (
        "kernels.histogram_product.flops_computed",
        "kernels.histogram_product.bytes_computed",
        "experiments.grid_overhead_s",
    ):
        values[name] = counters.get(name, 0.0) / per
    requested = counters.get("experiments.cells_requested", 0.0)
    values["experiments.cache_hit_ratio"] = (
        counters.get("experiments.cells_served", 0.0) / requested if requested else 0.0
    )
    values["service.max_queue_depth"] = counters.get("service.max_queue_depth", 0.0)
    values["service.flush_s"] = spans.get("service.flush", {}).get("total_s", 0.0) / per
    return values
