"""The single sample walk keeps every observable obs-plane output.

``MetricsRegistry.iter_exposition_samples`` is the one walk that expands
a histogram child into samples: ``/metrics`` formats it, the metrics
history records it and the telemetry shipper ships it.  The files under
``tests/golden/obs_walk/`` were recorded from the same FakeClock scenario
(the three-site fleet demo with one stale member) by the code that still
walked the registry four ways, and are not meant to be regenerated: they
pin the outputs the walk must reproduce.

The one allowed difference is where ``le`` sits in a ``_bucket`` line:
the recorded render put it last, the walk's label items are sorted.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import _demo_fleet_federation
from repro.obs import parse_prometheus_text
from repro.realms import jobs_realm
from repro.ui import XdmodApi

GOLDEN = Path(__file__).parent / "golden" / "obs_walk"


def capture() -> dict[str, str]:
    """Drive the scenario and return every output, keyed by golden file."""
    hub, satellites, monitor = _demo_fleet_federation(inject_faults=True)
    api = XdmodApi(
        {"jobs": jobs_realm()},
        {s.name: hub.database.schema(f"fed_{s.name}") for s in satellites},
        obs=hub.obs,
        monitor=monitor,
    )
    out = {
        "metrics.txt": api.handle_raw("/metrics", {})[2].decode(),
        "fleet_metrics.txt": api.handle_raw("/fleet/metrics", {})[2].decode(),
        "status.json": api.handle_raw("/status", {})[2].decode(),
        "render.txt": monitor.render(),
        "render_fleet.txt": monitor.render_fleet(),
        # the second scrape carries serving_request_seconds{route=...},
        # whose buckets have a label sorting after le
        "metrics_again.txt": api.handle_raw("/metrics", {})[2].decode(),
    }
    history = hub.obs.history
    out["history.json"] = json.dumps([
        [name, [list(item) for item in labels], history.samples(name, **dict(labels))]
        for name, labels in history.series_keys()
    ])
    return out


_LE = re.compile(r'(?:^|,)le="[^"]*"')


def _le_last(line: str) -> str:
    """A bucket line with its ``le`` label moved to the end."""
    name, brace, rest = line.partition("{")
    if not brace or not name.endswith("_bucket"):
        return line
    labels, _, value = rest.rpartition("} ")
    le = _LE.search(labels)
    assert le is not None, line
    others = (labels[: le.start()] + labels[le.end():]).lstrip(",")
    items = [others] if others else []
    return f"{name}{{{','.join(items + [le.group().lstrip(',')])}}} {value}"


@pytest.fixture(scope="module")
def outputs() -> dict[str, str]:
    return capture()


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", ["metrics.txt", "metrics_again.txt"])
def test_metrics_differ_only_in_le_position(outputs, name):
    got, want = outputs[name], _golden(name)
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert [_le_last(line) for line in got_lines] == want_lines
    parsed, recorded = parse_prometheus_text(got), parse_prometheus_text(want)
    assert parsed.types == recorded.types
    assert parsed.helps == recorded.helps
    assert parsed.samples == recorded.samples


def test_second_scrape_moves_le(outputs):
    # the scenario really exercises the one allowed difference
    assert outputs["metrics_again.txt"] != _golden("metrics_again.txt")
    assert 'serving_request_seconds_bucket{le="+Inf",route="/metrics"}' in (
        outputs["metrics_again.txt"]
    )


def test_fleet_metrics_identical(outputs):
    assert outputs["fleet_metrics.txt"] == _golden("fleet_metrics.txt")
    parsed = parse_prometheus_text(outputs["fleet_metrics.txt"])
    recorded = parse_prometheus_text(_golden("fleet_metrics.txt"))
    assert (parsed.types, parsed.samples) == (recorded.types, recorded.samples)


@pytest.mark.parametrize(
    "name", ["status.json", "render.txt", "render_fleet.txt"]
)
def test_status_and_renders_identical(outputs, name):
    assert outputs[name] == _golden(name)


def test_history_holds_recorded_series_and_samples(outputs):
    got = json.loads(outputs["history.json"])
    want = json.loads(_golden("history.json"))
    assert [series[:2] for series in got] == [series[:2] for series in want]
    assert got == want
