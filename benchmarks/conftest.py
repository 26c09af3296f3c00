"""Shared benchmark scenarios.

Session-scoped fixtures build the paper's evaluation data once:

- ``fig1_federation`` — the Figure 1/2/3/Table I substrate: three
  satellites (comet / stampede2 / stampede shapes), a full simulated 2017,
  tight-federated into one hub and aggregated monthly under the hub's
  levels.
- ``heterogeneous_hub`` — the Section III substrate: a CCR-style instance
  with a year of Cloud and Storage realm data, federated with the
  all-realms filter (Figures 6 and 7).

Each bench prints the series/rows the corresponding paper artifact shows
and mirrors them to ``benchmarks/out/<name>.txt`` so the regenerated
"figures" survive the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aggregation import AggregationConfig, TABLE1_FEDERATION_HUB
from repro.core import (
    FederationHub,
    ReplicationFilter,
    XdmodInstance,
    standardize_federation,
)
from repro.simulators import (
    CloudConfig,
    CloudSimulator,
    StorageConfig,
    StorageSimulator,
    WorkloadGenerator,
    figure1_sites,
    simulate_resource,
    to_sacct_log,
)
from repro.timeutil import ts

YEAR_START = ts(2017, 1, 1)
YEAR_END = ts(2018, 1, 1)

OUT_DIR = Path(__file__).parent / "out"

# the pure-Python reference aggregation builders live with the tests
# (tests/aggregation_oracle.py); make them importable from any directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def emit(name: str, text: str) -> None:
    """Print a regenerated figure/table and persist it under out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def _commit_hash() -> str:
    """Short hash of HEAD, or "unknown" outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def emit_metrics(bench_id: str, metrics: dict[str, tuple[float, str]]) -> Path:
    """Persist a bench's headline numbers as ``out/BENCH_<id>.json``.

    ``metrics`` maps metric name to ``(value, unit)``.  The JSON carries
    the commit hash so CI artifacts from different runs are comparable;
    it is the machine-readable companion of the human ``emit`` text.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{bench_id}.json"
    path.write_text(json.dumps({
        "bench": bench_id,
        "commit": _commit_hash(),
        "metrics": [
            {"name": name, "value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        ],
    }, indent=2) + "\n")
    return path


@pytest.fixture(scope="session")
def fig1_federation():
    sites = figure1_sites(scale=0.15)
    conversion, hpl = standardize_federation(
        {name: preset.resource for name, preset in sites.items()}
    )
    hub = FederationHub(
        "hub",
        aggregation=AggregationConfig(walltime_levels=TABLE1_FEDERATION_HUB),
        conversion=conversion,
    )
    satellites = {}
    records_by_site = {}
    for name, preset in sorted(sites.items()):
        instance = XdmodInstance(f"site_{name}", conversion=conversion)
        records = simulate_resource(
            preset.resource,
            WorkloadGenerator(preset.workload).generate(YEAR_START, YEAR_END),
        )
        instance.pipeline.ingest_sacct(
            to_sacct_log(records), default_resource=name
        )
        hub.join(instance, mode="tight")
        satellites[name] = instance
        records_by_site[name] = records
    hub.aggregate_federation(["month"])
    return {
        "hub": hub,
        "satellites": satellites,
        "sites": sites,
        "conversion": conversion,
        "hpl": hpl,
        "records": records_by_site,
        "range": (YEAR_START, YEAR_END),
    }


@pytest.fixture(scope="session")
def heterogeneous_hub():
    hub = FederationHub("aristotle_hub")
    instance = XdmodInstance("xdmod_ccr")
    cloud_events = CloudSimulator(
        CloudConfig(resource="ccr_research_cloud", seed=77, vms_per_day=8.0)
    ).generate(YEAR_START, YEAR_END)
    instance.pipeline.ingest_cloud(cloud_events)
    storage_docs = list(
        StorageSimulator(
            StorageConfig(resource="ccr_storage", seed=77, n_users=30)
        ).generate(YEAR_START, YEAR_END)
    )
    instance.pipeline.ingest_storage(storage_docs)
    hub.join(instance, filter=ReplicationFilter(tables=None))
    hub.aggregate_federation(["month"])
    return {
        "hub": hub,
        "instance": instance,
        "n_cloud_events": len(cloud_events),
        "n_storage_docs": len(storage_docs),
        "range": (YEAR_START, YEAR_END),
    }
