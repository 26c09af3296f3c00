"""Loose federation: dump shipping, staleness, handover to tight."""

from __future__ import annotations

import pytest

from repro.core import LooseChannel, ReplicationChannel, ReplicationFilter
from repro.etl import ParsedJob, ingest_jobs
from repro.timeutil import ts
from repro.warehouse import Database, save_database, snapshot_info
from repro.warehouse import dump as dump_module
from repro.warehouse.engine import Table


def make_job(job_id, resource="r1"):
    return ParsedJob(
        job_id=job_id, user="u", pi="p", queue="q", application="a",
        submit_ts=ts(2017, 1, 1), start_ts=ts(2017, 1, 1, 1),
        end_ts=ts(2017, 1, 1, 3), nodes=1, cores=2, req_walltime_s=7200,
        state="COMPLETED", exit_code=0, resource=resource,
    )


@pytest.fixture()
def satellite_schema():
    schema = Database("sat").create_schema("modw")
    ingest_jobs(schema, [make_job(i) for i in range(8)])
    return schema


class TestLooseChannel:
    def test_ship_copies_data(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        shipped = channel.ship()
        assert shipped.name == "fed_sat"
        assert shipped.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )
        assert channel.shipments == 1

    def test_staleness_tracks_new_commits(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        assert channel.staleness > 0  # never shipped yet
        channel.ship()
        assert channel.staleness == 0
        ingest_jobs(satellite_schema, [make_job(100)])
        assert channel.staleness == 1

    def test_reship_replaces_previous_dump(self, satellite_schema):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        channel.ship()
        ingest_jobs(satellite_schema, [make_job(100)])
        channel.ship()
        assert len(hub_db.schema("fed_sat").table("fact_job")) == 9

    def test_filter_applies_to_dump(self, satellite_schema):
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        hub_db = Database("hub")
        channel = LooseChannel(
            satellite_schema, hub_db, "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        shipped = channel.ship()
        assert {r["name"] for r in shipped.table("dim_resource").rows()} == {"r1"}
        assert len(shipped.table("fact_job")) == 8
        # bookkeeping tables never ship
        assert not shipped.has_table("etl_markers")

    def test_ship_via_file(self, satellite_schema, tmp_path):
        hub_db = Database("hub")
        channel = LooseChannel(satellite_schema, hub_db, "fed_sat")
        shipped = channel.ship_via_file(tmp_path / "sat.dump.gz")
        assert (tmp_path / "sat.dump.gz").exists()
        assert shipped.table("fact_job").checksum() == (
            satellite_schema.table("fact_job").checksum()
        )

    def test_to_tight_resumes_without_gap_or_overlap(self, satellite_schema):
        """The heterogeneous model: start loose, upgrade to tight."""
        hub_db = Database("hub")
        loose = LooseChannel(satellite_schema, hub_db, "fed_sat")
        loose.ship()
        ingest_jobs(satellite_schema, [make_job(100), make_job(101)])
        tight = loose.to_tight()
        applied = tight.catch_up()
        assert applied == 2  # exactly the two new fact rows
        hub_fact = hub_db.schema("fed_sat").table("fact_job")
        assert len(hub_fact) == 10
        assert hub_fact.checksum() == satellite_schema.table("fact_job").checksum()

    def test_to_tight_keeps_excluding_resources(self, satellite_schema):
        # the tight channel resumes past the dim_resource inserts, so its
        # filter must already know which resource id is "secret"
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        hub_db = Database("hub")
        loose = LooseChannel(
            satellite_schema, hub_db, "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        loose.ship()
        ingest_jobs(satellite_schema, [
            make_job(100 + i, resource=("r1", "secret")[i % 2]) for i in range(4)
        ])
        assert loose.to_tight().catch_up() == 2  # the two new r1 jobs only
        hub = hub_db.schema("fed_sat")
        secret_ids = {
            r["resource_id"] for r in satellite_schema.table("dim_resource").rows()
            if r["name"] == "secret"
        }
        assert secret_ids
        assert not any(
            r["resource_id"] in secret_ids for r in hub.table("fact_job").rows()
        )
        assert len(hub.table("fact_job")) == 10

    def test_to_tight_before_ship_rejected(self, satellite_schema):
        channel = LooseChannel(satellite_schema, Database("hub"), "fed_sat")
        with pytest.raises(RuntimeError):
            channel.to_tight()


@pytest.fixture()
def hash_calls(monkeypatch):
    """Count table digests: dump-side ``table_rows_checksum`` calls (rows
    hashed per call) and live ``Table.checksum`` calls."""
    calls = {"dump": [], "live": 0}
    dump_digest = dump_module.table_rows_checksum
    live_digest = Table.checksum

    def counting_dump(rows):
        calls["dump"].append(len(rows))
        return dump_digest(rows)

    def counting_live(table):
        calls["live"] += 1
        return live_digest(table)

    monkeypatch.setattr(dump_module, "table_rows_checksum", counting_dump)
    monkeypatch.setattr(Table, "checksum", counting_live)
    return calls


class TestOneChecksumPerDump:
    def test_loose_ship_hashes_each_shipped_table_once_per_side(
        self, satellite_schema, hash_calls
    ):
        ingest_jobs(satellite_schema, [make_job(50, resource="secret")])
        channel = LooseChannel(
            satellite_schema, Database("hub"), "fed_sat",
            filter=ReplicationFilter(exclude_resources={"secret"}),
        )
        shipped = channel.ship()
        tables = shipped.table_names()
        # once when the satellite builds the dump, once when the hub
        # verifies it; the unfiltered source is never digested
        assert len(hash_calls["dump"]) == 2 * len(tables)
        assert hash_calls["live"] == 0
        assert sum(hash_calls["dump"]) == 2 * sum(
            len(shipped.table(name)) for name in tables
        )

    def test_save_database_hashes_each_table_once(self, hash_calls, tmp_path):
        database = Database("sat")
        schema = database.create_schema("modw")
        ingest_jobs(schema, [make_job(i) for i in range(4)])
        save_database(database, tmp_path / "snap")
        assert len(hash_calls["dump"]) == len(schema.table_names())
        assert hash_calls["live"] == 0
        [entry] = snapshot_info(tmp_path / "snap")["schemas"]
        assert entry["checksum"] == schema.checksum()


def _hub_rows(schema):
    return {
        name: sorted(schema.table(name).raw_rows(), key=repr)
        for name in schema.table_names()
    }


class TestTightLooseRoutingParity:
    """Tight catch-up and a loose ship route rows by the same rule."""

    @pytest.fixture()
    def routed_satellite(self):
        schema = Database("sat").create_schema("modw")
        ingest_jobs(schema, [
            make_job(i, resource=("r1", "secret", "other")[i % 3])
            for i in range(12)
        ])
        return schema

    @pytest.mark.parametrize("kwargs", [
        {"exclude_resources": {"secret"}},
        {"include_resources": {"r1", "other"}},
        {"exclude_resources": {"secret"}, "drop_excluded_dim_rows": False},
    ], ids=["exclude", "include", "keep-dim-rows"])
    def test_same_rows_on_the_hub(self, routed_satellite, kwargs):
        hub_db = Database("hub")
        tight_target = hub_db.create_schema("fed_tight")
        ReplicationChannel(
            routed_satellite, tight_target, filter=ReplicationFilter(**kwargs)
        ).catch_up()
        loose_target = LooseChannel(
            routed_satellite, hub_db, "fed_loose",
            filter=ReplicationFilter(**kwargs),
        ).ship()
        tight, loose = _hub_rows(tight_target), _hub_rows(loose_target)
        assert tight == loose
        # the rule really routed: secret's facts reached neither side
        assert 0 < len(tight["fact_job"]) < len(routed_satellite.table("fact_job"))
        names = {r["name"] for r in tight_target.table("dim_resource").rows()}
        assert ("secret" in names) == (kwargs.get("drop_excluded_dim_rows") is False)
