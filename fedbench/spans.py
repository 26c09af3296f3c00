"""Per-layer self time from the benchmark's spans, and the cost of a span.

Spans are recorded with the program's own :class:`repro.obs.Tracer`, from
the benchmark's side of each call into a layer of the federation, never
from inside ``src/``.  The benchmark's tracer is its own instance, not the
hub's, so the program's spans are unchanged.  Each span is named after the
layer metric it feeds (e.g. ``aggregation.full``) and links to its parent.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  The untraced run uses :data:`OFF`, whose
spans are the tracer's no-op, so the end-to-end numbers carry no tracing
cost.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Iterable

from repro.obs import SpanRecord, Tracer

#: spans kept per traced pass: far more than any schedule records, so the
#: ring buffer never drops one
MAX_SPANS = 10**7


def tracer(enabled: bool = True, clock=None) -> Tracer:
    return Tracer(clock, enabled=enabled, max_spans=MAX_SPANS, name="fedbench")


OFF = tracer(enabled=False)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start_s, s.end_s))
    return {
        s.span_id: s.duration_s - _covered(children.get(s.span_id, []), s.start_s, s.end_s)
        for s in spans
    }


@dataclass
class LayerTotals:
    self_s: float = 0.0
    calls: int = 0


def rollup(spans: Iterable[SpanRecord], within: str | None = None) -> dict[str, LayerTotals]:
    """Per-name self time and call count.

    With ``within``, only spans that are, or descend from, a span of that
    name count — e.g. ``within="bench.round"`` keeps the timed phase and
    drops set-up.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}

    def inside(s: SpanRecord) -> bool:
        node: SpanRecord | None = s
        while node is not None:
            if node.name == within:
                return True
            node = by_id.get(node.parent_id) if node.parent_id is not None else None
        return False

    own = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for s in spans:
        if within is not None and not inside(s):
            continue
        totals = out.setdefault(s.name, LayerTotals())
        totals.self_s += own[s.span_id]
        totals.calls += 1
    return out


def span_cost_s(batch: int = 20000, repeats: int = 5) -> float:
    """Wall time one recorded span adds over a no-op span.

    Each repeat times a batch of no-op spans and then a batch of recorded
    ones back to back, so both see the same machine speed; the result is
    the median per-span difference, never below zero.
    """
    on = tracer()
    samples = []
    for _ in range(repeats):
        costs = []
        for probe in (OFF, on):
            start = time.perf_counter()
            for _ in range(batch):
                with probe.span("bench.probe"):
                    pass
            costs.append(time.perf_counter() - start)
        on.clear()
        samples.append((costs[1] - costs[0]) / batch)
    return max(0.0, statistics.median(samples))
