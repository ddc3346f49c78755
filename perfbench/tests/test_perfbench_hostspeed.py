"""Unit tests of the host-speed sampling that ``wall_s`` is reported through."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import hostspeed  # noqa: E402


def test_a_section_is_scaled_by_its_mean_sample_and_loses_the_sampling_time():
    reference = hostspeed.REFERENCE_S
    # the host ran at half the reference speed: samples took twice as long
    samples = [2 * reference, 2 * reference]
    assert hostspeed.at_reference_speed(10.0, samples) == pytest.approx((10.0 - 4 * reference) / 2)
    # at the reference speed only the sampling time comes off
    assert hostspeed.at_reference_speed(10.0, [reference] * 3) == pytest.approx(10.0 - 3 * reference)


def test_a_section_without_samples_is_reported_as_measured():
    assert hostspeed.at_reference_speed(1.25, []) == 1.25


def test_a_disabled_sampler_takes_no_samples_and_measures_wall_time():
    with hostspeed.Sampler(enabled=False) as sampler:
        start = sampler.mark()
        time.sleep(0.05)
        end = sampler.mark()
    assert sampler.samples == [] and sampler.taken(start, end) == []
    assert sampler.between(start, end) == pytest.approx(end[0] - start[0])


def test_marks_split_the_samples_between_sections_and_the_timer_is_removed():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval_s=0.02) as sampler:
        marks = [sampler.mark()]
        for _ in range(2):
            until = time.perf_counter() + 0.3
            while time.perf_counter() < until:
                pass
            marks.append(sampler.mark())
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    first, second = sampler.taken(marks[0], marks[1]), sampler.taken(marks[1], marks[2])
    assert first and second
    assert first + second == sampler.taken(marks[0], marks[2])
    # sampling took some of the section, and that part is not the program's
    wall = marks[1][0] - marks[0][0]
    assert sum(first) < wall
    assert sampler.between(marks[0], marks[1]) == pytest.approx(
        hostspeed.at_reference_speed(wall, first)
    )


def test_the_side_sampler_prints_its_samples_when_its_input_closes():
    process = subprocess.Popen(
        [sys.executable, hostspeed.__file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    time.sleep(2.0)  # start-up, then several intervals
    out, _ = process.communicate(timeout=30)
    assert process.returncode == 0
    samples = json.loads(out)
    assert samples and all(s > 0 for s in samples)
