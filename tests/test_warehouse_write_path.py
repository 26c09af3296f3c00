"""The batched write path, delete-by-key, and UPDATE replication fidelity.

``Table.insert_many`` stages a whole batch before storing any of it and must
be indistinguishable from inserting the rows one at a time: same rows, same
indexes, same binlog (payloads, LSNs, trace contexts, telemetry counts).  A
failing batch changes nothing.  ``Table.delete_key`` must leave exactly what
the full-scan ``delete_where`` leaves.  Replaying a binlog that holds
``update_where`` events (key changes, keyless tables) must reproduce the
source tables on the target.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.warehouse import (
    ColumnType,
    Database,
    PrimaryKeyError,
    SchemaError,
    TableSchema,
    TypeMismatchError,
    make_columns,
)
from repro.warehouse.engine import Schema, Table

C = ColumnType

JOBS = TableSchema(
    "jobs",
    make_columns([
        ("resource", C.STR, False),
        ("job_id", C.INT, False),
        ("user", C.STR, False),
        ("cpu_hours", C.FLOAT),
        ("tags", C.JSON),
    ]),
    primary_key=("resource", "job_id"),
    indexes=("user", "cpu_hours"),
)
LOG = TableSchema(
    "log", make_columns([("msg", C.STR, False), ("n", C.INT)]), indexes=("msg",)
)


def job(i: int, **overrides):
    row = {
        "resource": "r1" if i % 2 else "r2",
        "job_id": i,
        "user": f"u{i % 3}",
        "cpu_hours": i / 2,  # ints and fractions
        "tags": [i],
    }
    row.update(overrides)
    return row


class Traced:
    """A schema whose binlog captures a settable trace context and counts
    appends through the metrics registry, as a wired instance does."""

    def __init__(self, table_schema: TableSchema = JOBS) -> None:
        self.context = None
        self.registry = MetricsRegistry()
        self.schema = Schema(
            "s", metrics=self.registry, trace_provider=lambda: self.context
        )
        self.table = self.schema.create_table(table_schema)

    def appended(self) -> float:
        return self.registry.value("warehouse_binlog_events_total", schema="s")

    def state(self):
        table = self.table
        log = self.schema.binlog
        return (
            list(table._rows),
            dict(table._pk_index),
            {c: {v: set(r) for v, r in idx.items()} for c, idx in table._indexes.items()},
            log.checksum(),
            [e.lsn for e in log],
            [log.trace_context(e.lsn) for e in log],
            self.appended(),
        )


def snapshot(t: Traced):
    return t.state(), t.table.data_version, t.schema.data_version


class TestInsertManyEqualsInserts:
    BATCHES = [[job(i) for i in range(0, 5)], [job(i) for i in range(5, 12)]]

    def test_same_rows_indexes_binlog_and_traces(self):
        one, many = Traced(), Traced()
        for n, batch in enumerate(self.BATCHES):
            one.context = many.context = ("trace", n)
            for row in batch:
                one.table.insert(row)
            assert many.table.insert_many(iter(batch)) == len(batch)
        assert one.state() == many.state()
        assert many.appended() == 1 + sum(map(len, self.BATCHES))
        assert many.schema.binlog.trace_context(1) == ("trace", 0)
        assert many.schema.binlog.trace_context(6) == ("trace", 1)

    def test_keyless_table(self):
        one, many = Traced(LOG), Traced(LOG)
        rows = [{"msg": "a", "n": 1}, {"msg": "a", "n": 1}, {"msg": "b"}]
        for row in rows:
            one.table.insert(row)
        many.table.insert_many(rows)
        assert one.state() == many.state()

    def test_empty_batch_changes_nothing(self):
        t = Traced()
        before = snapshot(t)
        assert t.table.insert_many([]) == 0
        assert snapshot(t) == before

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"cpu_hours": "x"}, TypeMismatchError),
            ({"job_id": True}, TypeMismatchError),
            ({"user": None}, TypeMismatchError),
            ({"tags": {"a": object()}}, TypeMismatchError),
            ({"nope": 1}, SchemaError),
            ({"job_id": 1, "resource": "r1"}, PrimaryKeyError),   # existing row
            ({"job_id": 20, "resource": "r2"}, PrimaryKeyError),  # earlier in batch
        ],
    )
    def test_failed_batch_changes_nothing(self, bad, error):
        t = Traced()
        t.table.insert_many([job(1), job(3)])
        before = snapshot(t)
        batch = [job(20), job(21), job(22, **bad), job(23)]
        with pytest.raises(error):
            t.table.insert_many(batch)
        assert snapshot(t) == before
        # the table is still usable afterwards
        assert t.table.insert_many(batch[:2]) == 2


def populated() -> tuple[Schema, Table]:
    db = Database()
    schema = db.create_schema("s")
    table = schema.create_table(JOBS)
    table.insert_many(job(i) for i in range(10))
    return schema, table


class TestDeleteKey:
    def test_matches_scan(self):
        by_key, keyed = populated()
        by_scan, scanned = populated()
        assert keyed.delete_key(["r1", 3]) is True
        assert scanned.delete_where(
            lambda r: (r["resource"], r["job_id"]) == ("r1", 3)
        ) == 1
        assert keyed._rows == scanned._rows
        assert keyed._pk_index == scanned._pk_index
        assert keyed._indexes == scanned._indexes
        assert len(keyed) == len(scanned) == 9
        assert keyed.data_version == scanned.data_version
        assert by_key.binlog.checksum() == by_scan.binlog.checksum()

    def test_missing_key_changes_nothing(self):
        schema, table = populated()
        head, version = schema.binlog.head_lsn, table.data_version
        assert table.delete_key(["r1", 4]) is False  # 4 lives on r2
        assert schema.binlog.head_lsn == head and table.data_version == version

    def test_keyless_table_refused(self):
        schema = Database().create_schema("s")
        with pytest.raises(SchemaError):
            schema.create_table(LOG).delete_key(["a"])


def replay(source: Schema) -> Schema:
    target = Database().create_schema("hub")
    for event in source.binlog:
        target.apply_event(event)
    return target


def assert_replicated(source: Schema, target: Schema) -> None:
    for name in source.table_names():
        assert target.table(name).checksum() == source.table(name).checksum(), name
        assert len(target.table(name)) == len(source.table(name)), name


class TestUpdateReplicationFidelity:
    def test_update_that_changes_the_key(self):
        source, table = populated()
        table.update_where(lambda r: r["job_id"] == 1, {"job_id": 100})
        table.update_where(lambda r: r["job_id"] == 2, {"resource": "r9", "user": "z"})
        hub = replay(source)
        assert_replicated(source, hub)
        assert hub.table("jobs").get(("r1", 1)) is None
        # the hub's own binlog replays to the same tables (hub of hubs)
        assert_replicated(source, replay(hub))

    def test_update_on_keyless_table(self):
        source = Database().create_schema("s")
        log = source.create_table(LOG)
        log.insert_many([{"msg": "a", "n": 1}, {"msg": "a", "n": 1}, {"msg": "b", "n": 2}])
        log.update_where(lambda r: r["msg"] == "a", {"n": 5})
        log.update_where(lambda r: r["msg"] == "b", {"msg": "c"})
        hub = replay(source)
        assert_replicated(source, hub)
        assert hub.table("log").lookup_index("msg", "b") == []
        assert_replicated(source, replay(hub))

    def test_update_on_keyless_row_holding_nan(self):
        # NaN != NaN, yet the row must still match its own before-image
        source = Database().create_schema("s")
        samples = source.create_table(TableSchema(
            "samples", make_columns([("msg", C.STR, False), ("x", C.FLOAT)])
        ))
        samples.insert_many([{"msg": "a", "x": float("nan")}, {"msg": "b", "x": 1.0}])
        samples.update_where(lambda r: r["msg"] == "a", {"msg": "z"})
        hub = replay(source)
        assert_replicated(source, hub)
        assert sorted(r["msg"] for r in hub.table("samples").rows()) == ["b", "z"]

    def test_replay_is_idempotent_for_keyed_updates(self):
        source, table = populated()
        table.update_where(lambda r: r["job_id"] == 1, {"job_id": 100})
        hub = replay(source)
        for event in source.binlog:
            hub.apply_event(event)
        assert_replicated(source, hub)

    def test_upsert_updates_still_replicate(self):
        source, table = populated()
        table.upsert(job(4, cpu_hours=99.0))
        hub = replay(source)
        assert_replicated(source, hub)
