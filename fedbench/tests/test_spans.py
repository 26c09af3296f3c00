"""The per-layer self-time rollup over the program tracer's spans."""

from __future__ import annotations

import pytest

from repro.obs import SpanRecord
from repro.obs.clock import FakeClock
from spans import OFF, rollup, self_times, span_cost_s, tracer


def test_rollup_reads_the_tracer_spans_with_their_parent_links():
    clock = FakeClock()
    traced = tracer(clock=clock)
    with traced.span("bench.round"):
        clock.advance(1.0)
        with traced.span("etl.slurm.parse"):
            clock.advance(2.0)
        with traced.span("etl.star.ingest"):
            clock.advance(3.0)
        clock.advance(1.0)
    totals = rollup(traced.finished)
    assert {name: t.self_s for name, t in totals.items()} == {
        "bench.round": 2.0, "etl.slurm.parse": 2.0, "etl.star.ingest": 3.0,
    }
    assert not OFF.finished


def test_self_time_counts_overlapping_children_once():
    spans = [
        SpanRecord(0, None, "parent", 0.0, 10.0),
        SpanRecord(1, 0, "a", 1.0, 5.0),
        SpanRecord(2, 0, "b", 4.0, 6.0),  # overlaps a by one second
        SpanRecord(3, 0, "c", 9.0, 12.0),  # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_rollup_sums_self_time_per_name_and_scopes_to_a_phase():
    spans = [
        SpanRecord(0, None, "bench.setup", 0.0, 4.0),
        SpanRecord(1, 0, "aggregation.full", 0.0, 3.0),
        SpanRecord(2, None, "bench.round", 4.0, 10.0),
        SpanRecord(3, 2, "aggregation.incremental", 4.0, 6.0),
        SpanRecord(4, 2, "core.consistency.check", 6.0, 7.0),
        SpanRecord(5, None, "bench.round", 10.0, 13.0),
        SpanRecord(6, 5, "aggregation.incremental", 10.0, 12.0),
    ]
    rounds = rollup(spans, within="bench.round")
    assert set(rounds) == {
        "bench.round", "aggregation.incremental", "core.consistency.check"
    }
    assert rounds["aggregation.incremental"].self_s == 4.0
    assert rounds["aggregation.incremental"].calls == 2
    # the rounds' own time not covered by a layer is the unattributed part
    assert rounds["bench.round"].self_s == (6.0 - 3.0) + (3.0 - 2.0)
    setup = rollup(spans, within="bench.setup")
    assert setup["aggregation.full"].self_s == 3.0
    everything = rollup(spans)
    total_self = sum(t.self_s for t in everything.values())
    assert total_self == pytest.approx(4.0 + 6.0 + 3.0)


def test_span_cost_is_small_and_never_negative():
    cost = span_cost_s(batch=2000, repeats=3)
    assert 0.0 <= cost < 1e-3
