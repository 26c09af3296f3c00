"""Operation accounting and the correctness checks, on a small federation."""

from __future__ import annotations

import math

import pytest

from checks import KNOWN_DEFECTS, Ledger, conservation, rebuild_mismatches
from repro.core import FederationHub, XdmodInstance
from repro.simulators import (
    ResourceSpec,
    WorkloadConfig,
    WorkloadGenerator,
    simulate_resource,
    to_sacct_log,
)
from repro.timeutil import ts
from run import percentile
from spans import OFF
from workloads import PERIODS, Client

T0 = ts(2017, 1, 1)
SPLIT = T0 + 10 * 86400


@pytest.fixture()
def site():
    """A satellite holding the jobs that ended before ``SPLIT``, and the
    sacct log of the ones that ended after."""
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
    return satellite, to_sacct_log([r for r in records if r.end_ts >= SPLIT])


@pytest.fixture()
def built(site):
    """A hub over the satellite after one full build, through the client."""
    satellite, later = site
    hub = FederationHub("hub")
    hub.join(satellite, mode="tight")
    client = Client(OFF, Ledger())
    client.aggregate(hub, "aggregation.full", incremental=False)
    return hub, client, satellite, later


def _n_facts(hub) -> int:
    return len(hub.database.schema("fed_site_tiny").table("fact_job"))


def _month_jobs(hub) -> int:
    table = hub.database.schema("fed_site_tiny").table("agg_job_month")
    return sum(r["n_jobs_ended"] for r in table.rows())


def test_conservation_and_rebuild_hold_after_a_full_build(built):
    hub, client, _, _ = built
    schema = hub.database.schema("fed_site_tiny")
    assert {v for v, _ in conservation(schema, PERIODS).values()} == {"equal"}
    client.check_conservation(hub)
    client.check_rebuild(hub)
    assert client.ledger.failed == 0
    verdicts = {v for _, _, v in rebuild_mismatches(
        hub.federated_schemas(), hub.aggregation, PERIODS
    )}
    assert verdicts == {"equal"}


def test_an_incremental_pass_after_a_full_build_is_the_recorded_double_fold(built):
    # the recorded defect: with no bookkeeping left by the full build, the
    # first incremental pass folds every job in a second time, the new
    # jobs included
    hub, client, satellite, later = built
    before = _n_facts(hub)
    client.ingest_sacct(satellite, later, "tiny")
    client.sync(hub)
    client.aggregate(hub, "aggregation.incremental", incremental=True)
    after = _n_facts(hub)
    assert after > before
    assert _month_jobs(hub) == after + before
    client.check_conservation(hub)
    client.check_rebuild(hub)
    ledger = client.ledger
    assert ledger.failures[("check.conservation", "agg_job:double-fold")] == len(PERIODS)
    assert ledger.failures[("check.rebuild", "agg_job:double-fold")] == len(PERIODS)
    assert ledger.correct


def test_a_wrong_total_that_is_not_the_double_fold_is_unexpected(built):
    hub, client, _, _ = built
    client.aggregate(hub, "aggregation.incremental", incremental=True)
    table = hub.database.schema("fed_site_tiny").table("agg_job_month")
    row = next(iter(table.rows()))
    table.upsert({**row, "n_jobs_ended": row["n_jobs_ended"] + 1})
    client.check_conservation(hub)
    client.check_rebuild(hub)
    ledger = client.ledger
    assert ledger.failures[("check.conservation", "agg_job")] == 1
    assert ledger.failures[("check.rebuild", "agg_job")] == 1
    assert ledger.failures[("check.conservation", "agg_job:double-fold")] == 3
    assert not ledger.correct


def test_doubled_totals_without_an_incremental_pass_are_unexpected(built):
    # as on backfill: no incremental pass ran through the client, so jobs
    # counted twice are a new fault, not the recorded defect
    hub, client, _, _ = built
    hub.aggregate_federation(list(PERIODS), incremental=True)
    assert _month_jobs(hub) == 2 * _n_facts(hub)
    client.check_conservation(hub)
    ledger = client.ledger
    assert ledger.failures[("check.conservation", "agg_job")] == len(PERIODS)
    assert not ledger.correct


def test_a_full_build_over_existing_bookkeeping_cannot_double_fold(built):
    # the second full build resyncs the bookkeeping the first incremental
    # pass created, so doubled totals after it are a new fault
    hub, client, _, _ = built
    client.aggregate(hub, "aggregation.incremental", incremental=True)
    client.aggregate(hub, "aggregation.full", incremental=False)
    client.aggregate(hub, "aggregation.incremental", incremental=True)
    assert _month_jobs(hub) == _n_facts(hub)
    table = hub.database.schema("fed_site_tiny").table("agg_job_month")
    for row in list(table.rows()):
        table.upsert({**row, "n_jobs_ended": 2 * row["n_jobs_ended"]})
    client.check_conservation(hub)
    assert client.ledger.failures[("check.conservation", "agg_job")] == 1
    assert not client.ledger.correct


def test_a_failed_call_is_counted_and_never_raised():
    ledger = Ledger()
    client = Client(OFF, ledger)

    def boom():
        raise ValueError("bad input")

    assert client.call("etl.star.ingest", boom) is None
    assert client.call("etl.star.ingest", lambda: 3) == 3
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures[("etl.star.ingest", "ValueError")] == 1
    assert not ledger.correct
    assert "UNEXPECTED" in ledger.report_lines()[0]


def test_known_defects_count_as_failed_but_keep_the_run_correct():
    ledger = Ledger()
    signature = ("etl.cloudevents.ingest", "PrimaryKeyError")
    assert signature in KNOWN_DEFECTS
    ledger.record(signature[0], False, signature[1], "duplicate primary key")
    ledger.record("check.consistency", True)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.correct
    ledger.record("check.consistency", False, "", "members ['site_a']")
    assert not ledger.correct
    assert ledger.unexpected() == {("check.consistency", ""): 1}


def test_failed_reads_sort_past_every_latency():
    latencies = [1.0] * 98 + [2.0, math.inf]
    assert percentile(latencies, 50) == 1.0
    assert percentile(latencies, 99) == 2.0
    assert percentile(latencies, 100) == math.inf
