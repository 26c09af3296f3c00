"""The federation benchmark's correctness checks against the single
aggregation kernel.

``fedbench/`` is the benchmark's own code.  These cases state what its
checks must report now that an incremental pass gives the tables a full
build gives: an incremental pass after a full build leaves every check
clean, and a wrong total written from outside is flagged as unexpected.
The last case runs the benchmark's short backfill and requires its
``correct`` verdict.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.core import FederationHub, XdmodInstance
from repro.simulators import (
    ResourceSpec,
    WorkloadConfig,
    WorkloadGenerator,
    simulate_resource,
    to_sacct_log,
)
from repro.timeutil import ts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FEDBENCH = os.path.join(ROOT, "fedbench")
T0 = ts(2017, 1, 1)
SPLIT = T0 + 10 * 86400


@pytest.fixture()
def bench(monkeypatch):
    """The benchmark's ``checks`` and ``workloads`` modules and its
    no-op tracer."""
    monkeypatch.syspath_prepend(FEDBENCH)
    import checks
    import spans
    import workloads

    return checks, workloads, spans.OFF


@pytest.fixture()
def built(bench):
    """A hub over one satellite after a full build through the benchmark's
    client, and the sacct log of the jobs that end after ``SPLIT``."""
    checks, workloads, off = bench
    resource = ResourceSpec(
        "tiny", nodes=8, cores_per_node=16, mem_per_node_gb=64.0, gflops_per_core=16.0
    )
    config = WorkloadConfig(seed=5, jobs_per_day=20.0, max_cores=resource.total_cores)
    records = simulate_resource(
        resource, WorkloadGenerator(config).generate(T0, T0 + 20 * 86400)
    )
    satellite = XdmodInstance("site_tiny")
    satellite.pipeline.ingest_sacct(
        to_sacct_log([r for r in records if r.end_ts < SPLIT]), default_resource="tiny"
    )
    hub = FederationHub("hub")
    hub.join(satellite, mode="tight")
    client = workloads.Client(off, checks.Ledger())
    client.aggregate(hub, "aggregation.full", incremental=False)
    later = to_sacct_log([r for r in records if r.end_ts >= SPLIT])
    return hub, client, satellite, later


def _n_facts(hub) -> int:
    return len(hub.database.schema("fed_site_tiny").table("fact_job"))


def _month_table(hub):
    return hub.database.schema("fed_site_tiny").table("agg_job_month")


def _month_jobs(hub) -> int:
    return sum(r["n_jobs_ended"] for r in _month_table(hub).rows())


def test_an_incremental_pass_after_a_full_build_leaves_the_checks_clean(built):
    hub, client, satellite, later = built
    before = _n_facts(hub)
    client.ingest_sacct(satellite, later, "tiny")
    client.sync(hub)
    client.aggregate(hub, "aggregation.incremental", incremental=True)
    assert _n_facts(hub) > before
    assert _month_jobs(hub) == _n_facts(hub)
    client.check_conservation(hub)
    client.check_rebuild(hub)
    assert client.ledger.failed == 0
    assert client.ledger.correct


def test_a_wrong_total_after_an_incremental_pass_is_unexpected(built):
    hub, client, _, _ = built
    client.aggregate(hub, "aggregation.incremental", incremental=True)
    table = _month_table(hub)
    row = next(iter(table.rows()))
    table.upsert({**row, "n_jobs_ended": row["n_jobs_ended"] + 1})
    client.check_conservation(hub)
    client.check_rebuild(hub)
    failures = client.ledger.failures
    assert failures[("check.conservation", "agg_job")] == 1
    assert failures[("check.rebuild", "agg_job")] == 1
    assert not any("double-fold" in detail for _, detail in failures)
    assert not client.ledger.correct


def test_doubled_totals_without_an_incremental_pass_are_unexpected(built):
    hub, client, _, _ = built
    hub.aggregate_federation(incremental=True)
    assert _month_jobs(hub) == _n_facts(hub)
    table = _month_table(hub)
    for row in list(table.rows()):
        table.upsert({**row, "n_jobs_ended": 2 * row["n_jobs_ended"]})
    client.check_conservation(hub)
    assert client.ledger.failures[("check.conservation", "agg_job")] == 1
    assert not client.ledger.correct


def test_a_short_backfill_run_is_correct():
    out = subprocess.run(
        [sys.executable, os.path.join(FEDBENCH, "run.py"), "--workload", "backfill",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
