"""Scaling timed regions to the reference host speed."""

from __future__ import annotations

import threading

import pytest

import speed
from speed import REFERENCE_S, Speedometer


class FakeTime:
    """A ``time`` stand-in whose clock only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def fake(monkeypatch):
    clock = FakeTime()
    monkeypatch.setattr(speed, "time", clock)
    return clock


def readings_of(fake: FakeTime, values: list[float]):
    """Readings that return ``values`` in turn and each take 5 s."""
    it = iter(values)

    def reading() -> float:
        fake.now += 5.0
        return next(it)

    return reading


def test_a_region_is_scaled_by_the_mean_of_the_readings_around_it(fake, monkeypatch):
    monkeypatch.setattr(speed, "reading", readings_of(fake, [2 * REFERENCE_S,
                                                             4 * REFERENCE_S]))
    meter = Speedometer()

    def call() -> str:
        fake.now += 3.0
        return "done"

    wall, segments, result = meter.time(call)
    assert result == "done"
    # the host ran at a third of the reference speed around the call
    assert (wall, meter.scaled(segments)) == (3.0, pytest.approx(1.0))
    assert meter.readings == [(0.0, 2 * REFERENCE_S), (3.0, 4 * REFERENCE_S)]
    # the clock stood still while the two readings ran
    assert meter.reading_s == 10.0
    assert meter.extra_threads == 0


def test_a_long_region_is_cut_at_call_boundaries(fake, monkeypatch):
    monkeypatch.setattr(speed, "reading", readings_of(
        fake, [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]))
    meter = Speedometer(interval_s=0.5)

    def region() -> None:
        fake.now += 0.2
        meter.checkpoint()  # too soon: no cut
        fake.now += 0.8
        meter.checkpoint()  # a cut, with a reading of 2 * REFERENCE_S
        fake.now += 2.0

    wall, segments, _ = meter.time(region)
    assert wall == pytest.approx(3.0)
    assert meter.segments == [(0.0, 1.0), (1.0, 3.0)]
    # 1 s at a median reading of 1.5 references, then 2 s at 3 references:
    # the third reading is too far from the first segment to count for it
    assert meter.scaled(segments, halfwidth_s=0.5) == pytest.approx(
        1.0 / 1.5 + 2.0 / 3.0)
    # a window that takes in all three readings scales both by their median
    assert meter.scaled(segments, halfwidth_s=10.0) == pytest.approx(3.0 / 2.0)
    assert len(meter.readings) == 3
    meter.checkpoint()  # outside a timed region: no reading
    assert len(meter.readings) == 3


def test_a_thread_beside_the_client_is_reported(monkeypatch):
    monkeypatch.setattr(speed, "reading", lambda: REFERENCE_S)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        meter = Speedometer()
        meter.time(lambda: None)
    finally:
        stop.set()
        other.join()
    assert meter.extra_threads == 1


def test_a_reading_is_the_kernel_time_and_near_the_reference():
    value = speed.reading()
    # generous: the reference machine's speed within a factor of 20
    assert REFERENCE_S / 20 < value < REFERENCE_S * 20
