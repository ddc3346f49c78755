"""Unit tests of span recording and self-time accounting."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import trace  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 3.0, 0),
        (2.0, 5.0, 0),  # overlaps the first child: [1, 5] is covered once
        (6.0, 7.0, 0),
        (9.0, 12.0, 0),  # runs past its parent: only [9, 10] is covered
        (6.2, 6.7, 3),  # grandchild: counts against its own parent only
    ]
    assert trace.self_times(spans) == pytest.approx([10 - 4 - 1 - 1, 2, 3, 0.5, 3, 0.5])


def test_tracer_nests_wrapped_calls_and_reports_self_time():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    def kernel():
        clock.now += 2.0

    def fit():
        clock.now += 1.0
        traced_kernel()
        traced_kernel()
        clock.now += 0.5

    traced_kernel = tracer.wrap(kernel, "kernels.histogram_product")
    traced_fit = tracer.wrap(fit, "ml.gbdt_fit")
    traced_fit()
    spans = tracer.summary()["spans"]
    assert spans["ml.gbdt_fit"] == {"calls": 1, "self_s": 1.5, "total_s": 5.5}
    assert spans["kernels.histogram_product"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}


def test_an_override_calling_super_is_one_call():
    clock = FakeClock()
    tracer = trace.Tracer(clock=clock)

    class Base:
        def aggregate(self):
            clock.now += 1.0

    class Child(Base):
        def aggregate(self):
            clock.now += 1.0
            super().aggregate()

    trace._wrap_methods(tracer, Base, {"aggregate": "protocols.aggregate"})
    Child().aggregate()
    row = tracer.summary()["spans"]["protocols.aggregate"]
    assert row == {"calls": 1, "self_s": 2.0, "total_s": 2.0}


def test_spans_of_other_threads_are_not_children():
    tracer = trace.Tracer()
    inner_ready, outer_done = threading.Event(), threading.Event()

    def worker():
        index = tracer.begin("service.apply")
        inner_ready.set()
        outer_done.wait(5)
        tracer.end(index)

    outer = tracer.begin("service.decode")
    thread = threading.Thread(target=worker)
    thread.start()
    assert inner_ready.wait(5)
    tracer.end(outer)
    outer_done.set()
    thread.join(5)
    assert not thread.is_alive()
    spans = tracer.summary()["spans"]
    # the other thread's span overlaps in time but is not subtracted
    assert spans["service.decode"]["self_s"] == spans["service.decode"]["total_s"]


def test_open_spans_are_left_out():
    tracer = trace.Tracer()
    tracer.begin("workload.iteration")
    assert tracer.summary()["spans"] == {}


def test_reset_forgets_the_warm_up():
    tracer = trace.Tracer()
    tracer.wrap(lambda: None, "datasets.load_dataset")()
    tracer.count("experiments.cells_requested", 3)
    tracer.reset()
    assert tracer.summary() == {"spans": {}, "counters": {}}


def test_layer_metrics_fill_every_layer_and_divide_by_the_work_done():
    summary = {
        "spans": {"ml.gbdt_fit": {"calls": 4, "self_s": 2.0, "total_s": 3.0},
                  "service.flush": {"calls": 2, "self_s": 0.5, "total_s": 0.5}},
        "counters": {"experiments.cells_requested": 40.0, "experiments.cells_served": 30.0,
                     "kernels.histogram_product.flops_computed": 8.0,
                     "service.max_queue_depth": 7.0},
    }
    values = trace.layer_metrics(summary, per=2)
    assert values["ml.gbdt_fit.calls"] == 2 and values["ml.gbdt_fit.self_s"] == 1.0
    assert values["kernels.distance_update.calls"] == 0
    assert values["kernels.histogram_product.flops_computed"] == 4.0
    assert values["experiments.cache_hit_ratio"] == 0.75  # a ratio is not divided
    assert values["service.max_queue_depth"] == 7.0  # nor is a maximum
    assert values["service.flush_s"] == 0.25


def test_merge_summaries_sums_counts_and_keeps_maxima():
    one = {"spans": {"a": {"calls": 1, "self_s": 1.0, "total_s": 2.0}},
           "counters": {"n": 1.0, "service.max_queue_depth": 3.0}}
    two = {"spans": {"a": {"calls": 2, "self_s": 0.5, "total_s": 0.5}},
           "counters": {"n": 2.0, "service.max_queue_depth": 2.0}}
    merged = trace.merge_summaries([one, two])
    assert merged["spans"]["a"] == {"calls": 3, "self_s": 1.5, "total_s": 2.5}
    assert merged["counters"] == {"n": 3.0, "service.max_queue_depth": 3.0}


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:       300 |        300 |     scipy._lib",
        "import time:       200 |        900 |   scipy",
        "import time:      1000 |       5000 | repro",
        "import time:        50 |         50 |   repro.core",
        "import time:        70 |         70 | repro.experiments.runner",
        "some other line",
    ])
    assert trace.parse_importtime(stderr) == {
        "startup.import_repro_s": pytest.approx(0.00507),
        "startup.import_scipy_s": pytest.approx(0.0005),
    }


def test_every_layer_metric_has_one_unit():
    units = trace.layer_metric_units()
    assert len(units) == 2 * len(trace.SPAN_LAYERS) + len(trace.OTHER_LAYER_METRICS)
    assert all(units.values())
