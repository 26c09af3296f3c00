"""One aggregation kernel: every pass equals a fresh build and the oracle.

An incremental pass (``aggregate_all_incremental``) rebuilds, with the
columnar kernel, each aggregate table whose source facts changed since its
last build, and reconciles the rows into the table.  These tests hold that
to the contract DESIGN.md states for every ingest pattern:

1. a Hypothesis property: random fact inserts, updates, deletes and
   cumulative cloud re-dumps, interleaved with incremental passes, leave
   every ``agg_*`` table checksum-equal to a fresh ``aggregate_all`` over a
   copy of the facts and row-for-row equal to the pure-Python oracle;
2. named regressions for the three ways the old append-only folds went
   wrong: a full build followed by an incremental pass, updated jobs, and a
   cloud feed re-dump;
3. write economy: a pass over unchanged facts writes nothing, and a pass
   after one new job logs no more binlog events than rows it changed.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.aggregation import Aggregator
from repro.etl import ingest_cloud_events, ingest_jobs
from repro.realms import jobs_realm
from repro.timeutil import PERIODS, ts
from repro.ui import XdmodApi
from tests.aggregation_oracle import rebuild_with_oracle
from tests.conftest import build_two_site_federation
from tests.test_columnar_aggregation import (
    T0,
    assert_tables_equal,
    build_schema,
    insert_interval,
    insert_job,
    insert_snapshot,
    insert_vm,
    table_rows,
)
from tests.test_degraded_federation import make_job

FACT_TABLES = ("fact_job", "fact_storage", "fact_vm", "fact_vm_interval")
REALMS = (("jobs", "agg_job"), ("storage", "agg_storage"), ("cloud", "agg_cloud"))


def assert_current(s, period):
    """Every aggregate table equals a fresh build over a copy of the facts
    (bit for bit) and the oracle (to float tolerance)."""
    copy = build_schema()
    for name in FACT_TABLES:
        copy.table(name).insert_many(s.table(name).rows())
    Aggregator(copy).aggregate_all([period])
    for realm, prefix in REALMS:
        name = f"{prefix}_{period}"
        assert s.table(name).checksum() == copy.table(name).checksum(), name
        rebuild_with_oracle(copy, realm, period)
        assert_tables_equal(table_rows(s, name), table_rows(copy, name), name)


def _pick(table, index):
    rows = list(table.rows())
    return rows[index % len(rows)] if rows else None


# -- the property ---------------------------------------------------------------

intervals = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(1, 12 * 86400)),
        st.sampled_from(["running", "running", "stopped", "paused"]),
    ),
    min_size=1, max_size=3,
)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("job"), st.integers(0, 120 * 86400),
            st.one_of(st.just(0), st.integers(1, 40 * 86400)),
            st.integers(1, 300), st.integers(1, 3), st.integers(1, 4),
        ),
        st.tuples(
            st.just("update_job"), st.integers(0, 999), st.floats(0.0, 50.0),
            st.integers(1, 4),
        ),
        st.tuples(st.just("delete_job"), st.integers(0, 999)),
        st.tuples(st.just("delete_resource_jobs"), st.integers(1, 3)),
        st.tuples(
            st.just("snapshot"), st.integers(0, 90), st.integers(1, 5),
            st.sampled_from([None, 0.0, 50.0, 250.0]),
            st.sampled_from(["home", "scratch"]), st.floats(0.0, 120.0),
        ),
        st.tuples(st.just("update_snapshot"), st.integers(0, 999), st.floats(0.0, 120.0)),
        st.tuples(st.just("delete_snapshot"), st.integers(0, 999)),
        st.tuples(
            st.just("vm"), st.integers(0, 60 * 86400), intervals, st.booleans(),
            st.sampled_from([0.5, 1.5, 3.0, 6.0, 12.0]),
        ),
        st.tuples(st.just("redump"), st.integers(0, 999), st.integers(0, 5 * 86400)),
        st.tuples(st.just("aggregate")),
    ),
    max_size=30,
)


class FactDriver:
    """Applies one generated operation to the facts of a schema."""

    def __init__(self, schema):
        self.s = schema
        self.next_id = 0

    def _id(self):
        self.next_id += 1
        return self.next_id

    def apply(self, op):
        getattr(self, f"op_{op[0]}")(*op[1:])

    def op_job(self, off, wall, cores, rid, pid):
        insert_job(
            self.s, self._id(), start=T0 + off, wall=wall, cores=cores,
            resource_id=rid, person_id=pid,
        )

    def op_update_job(self, index, cpu_hours, person_id):
        job = _pick(self.s.table("fact_job"), index)
        if job is not None:
            key = (job["resource_id"], job["job_id"])
            self.s.table("fact_job").update_where(
                lambda r: (r["resource_id"], r["job_id"]) == key,
                {"cpu_hours": cpu_hours, "person_id": person_id},
            )

    def op_delete_job(self, index):
        job = _pick(self.s.table("fact_job"), index)
        if job is not None:
            self.s.table("fact_job").delete_key((job["resource_id"], job["job_id"]))

    def op_delete_resource_jobs(self, rid):
        self.s.table("fact_job").delete_where(lambda r: r["resource_id"] == rid)

    def op_snapshot(self, day, pid, soft, fs, logical):
        insert_snapshot(
            self.s, self._id(), ts_=T0 + day * 86400, person_id=pid, soft=soft,
            filesystem=fs, logical=logical,
        )

    def op_update_snapshot(self, index, logical):
        snap = _pick(self.s.table("fact_storage"), index)
        if snap is not None:
            self.s.table("fact_storage").update_where(
                lambda r: r["snapshot_id"] == snap["snapshot_id"],
                {"logical_usage_gb": logical},
            )

    def op_delete_snapshot(self, index):
        snap = _pick(self.s.table("fact_storage"), index)
        if snap is not None:
            self.s.table("fact_storage").delete_key((snap["snapshot_id"],))

    def op_vm(self, off, spans, terminated, mem):
        vm_id = self._id()
        cursor = T0 + off
        for dur, state in spans:
            insert_interval(
                self.s, self._id(), vm_id=vm_id, start=cursor, dur=dur,
                state=state, mem_gb=mem,
            )
            cursor += dur
        insert_vm(
            self.s, vm_id, provision=T0 + off,
            terminate=cursor if terminated else None, mem_gb=mem,
            n_state_changes=len(spans),
        )

    def op_redump(self, index, grown):
        """A cumulative feed delivers a VM again: its rows are replaced,
        its intervals under new ids and its last interval ``grown`` longer."""
        vm = _pick(self.s.table("fact_vm"), index)
        if vm is None:
            return
        iv_table = self.s.table("fact_vm_interval")
        old = sorted(
            (r for r in iv_table.rows() if r["vm_id"] == vm["vm_id"]),
            key=lambda r: r["start_ts"],
        )
        iv_table.delete_where(lambda r: r["vm_id"] == vm["vm_id"])
        self.s.table("fact_vm").delete_key((vm["resource_id"], vm["vm_id"]))
        for i, row in enumerate(old):
            end = row["end_ts"] + (grown if i == len(old) - 1 else 0)
            iv_table.insert({**row, "interval_id": self._id(), "end_ts": end})
        terminate = vm["terminate_ts"]
        self.s.table("fact_vm").insert({
            **vm,
            "terminate_ts": None if terminate is None else terminate + grown,
            "n_state_changes": vm["n_state_changes"] + (1 if grown else 0),
        })


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, period=st.sampled_from(PERIODS))
def test_incremental_passes_equal_a_fresh_build_and_the_oracle(ops, period):
    s = build_schema()
    aggregator = Aggregator(s)
    driver = FactDriver(s)
    for op in [*ops, ("aggregate",)]:
        if op[0] == "aggregate":
            aggregator.aggregate_all_incremental([period])
            assert_current(s, period)
        else:
            driver.apply(op)


# -- named regressions ------------------------------------------------------------


def _sum(schema, table, column):
    return math.fsum(schema.table(table).column_values(column))


def test_full_build_then_incremental_pass_counts_each_job_once():
    s = build_schema()
    for i in range(125):
        insert_job(s, i + 1, start=T0 + i * 3600, wall=1800)
    aggregator = Aggregator(s)
    aggregator.aggregate_all(["month"])
    read = aggregator.aggregate_all_incremental(["month"])["agg_job_month"]
    assert _sum(s, "agg_job_month", "n_jobs_ended") == 125
    assert read == 0
    assert_current(s, "month")


def test_updated_jobs_reach_the_aggregates():
    s = build_schema()
    for i in range(2000):
        insert_job(s, i + 1, start=T0 + i * 1800, wall=3600 + i % 7 * 600)
    aggregator = Aggregator(s)
    aggregator.aggregate_all_incremental(["month"])
    s.table("fact_job").update_where(
        lambda r: r["job_id"] % 20 == 0, {"cpu_hours": 0.0}
    )
    aggregator.aggregate_all_incremental(["month"])
    raw = _sum(s, "fact_job", "cpu_hours")
    agg = _sum(s, "agg_job_month", "cpu_hours")
    assert agg == pytest.approx(raw, rel=1e-9), f"drift {agg / raw - 1:+.1%}"
    assert_current(s, "month")


def _cloud_event(event_id, vm_id, etype, t):
    return {
        "event_id": event_id, "vm_id": vm_id, "event_type": etype, "ts": t,
        "instance_type": "c2.small", "vcpus": 2, "mem_gb": 2.0,
        "disk_gb": 20.0, "user": "u1", "project": "p1", "resource": "cloud",
    }


def test_cumulative_cloud_redump_is_not_counted_twice():
    day = ts(2017, 1, 10)
    first = [
        _cloud_event(1, 1, "provision", day),
        _cloud_event(2, 1, "start", day),
        _cloud_event(3, 2, "provision", day + 3600),
        _cloud_event(4, 2, "start", day + 3600),
        _cloud_event(5, 2, "terminate", day + 3 * 3600),
    ]
    # the next delivery is cumulative: the whole feed again, plus VM 1's end
    second = first + [_cloud_event(6, 1, "terminate", day + 2 * 3600)]
    s = build_schema()
    aggregator = Aggregator(s)
    ingest_cloud_events(s, first)
    aggregator.aggregate_all_incremental(["month"])
    ingest_cloud_events(s, second)
    aggregator.aggregate_all_incremental(["month"])
    # VM 1 ran 2 h and VM 2 ran 2 h, at 2 vCPUs each
    assert _sum(s, "agg_cloud_month", "core_hours") == pytest.approx(8.0)
    assert_current(s, "month")


# -- write economy ------------------------------------------------------------------


def _agg_rows(schema):
    return {
        (name, schema.table(name).schema.key_of(row)): row
        for name in schema.table_names() if name.startswith("agg_")
        for row in schema.table(name).raw_rows()
    }


def test_unchanged_member_pass_writes_nothing_and_keeps_the_cache():
    hub, _, _, _ = build_two_site_federation()
    hub.aggregate_federation(["month"])
    api = XdmodApi({"jobs": jobs_realm()}, hub.federated_schemas())
    path = (
        f"/query?realm=jobs&metric=cpu_hours&start={T0}&end={ts(2017, 3, 1)}"
        "&group_by=resource"
    )
    assert api.handle_full(path, {})[2]["X-Cache"] == "miss"
    schemas = hub.federated_schemas()
    before = {n: (s.data_version, s.binlog.head_lsn) for n, s in schemas.items()}
    report = hub.aggregate_federation(["month"], incremental=True)
    assert {n for counts in report.values() for n in counts.values()} == {0}
    assert {
        n: (s.data_version, s.binlog.head_lsn) for n, s in schemas.items()
    } == before
    assert api.handle_full(path, {})[2]["X-Cache"] == "hit"


def test_pass_after_one_new_job_logs_only_changed_rows():
    hub, satellites, _, _ = build_two_site_federation()
    hub.aggregate_federation(list(PERIODS))
    name = sorted(satellites)[0]
    ingest_jobs(satellites[name].schema, [make_job(10_000)])
    hub.sync()
    schema, other = (
        hub.federated_schemas()[n] for n in (name, sorted(satellites)[1])
    )
    other_lsn, head = other.binlog.head_lsn, schema.binlog.head_lsn
    old = _agg_rows(schema)
    hub.aggregate_federation(list(PERIODS), incremental=True)
    new = _agg_rows(schema)
    changed = sum(old.get(key) != new.get(key) for key in old.keys() | new.keys())
    assert 0 < schema.binlog.head_lsn - head <= changed
    assert other.binlog.head_lsn == other_lsn
    # and a full build over the same facts finds nothing left to change
    Aggregator(schema, hub.aggregation).aggregate_all(list(PERIODS))
    assert _agg_rows(schema) == new
