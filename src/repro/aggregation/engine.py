"""Aggregate-table builder: XDMoD's nightly pre-binning step.

"Every day, aggregation processes run against newly ingested data in the
XDMoD data warehouse, binning numeric data in aggregation tables.  XDMoD
can then use these tables to group metrics by appropriately-sized
dimensions."

For each period (day/month/quarter/year) the engine builds:

- ``agg_job_<period>`` from ``fact_job`` — grouped by period x resource x
  person x PI x application x queue x wall-time level x job-size level,
  with additive measures.  Usage measures (CPU hours, node hours, XD SUs,
  wall hours) are *apportioned* across the periods a job overlaps, so
  period totals conserve the raw totals exactly; zero-length jobs
  (``walltime_s == 0`` or ``end_ts == start_ts``) attribute their full
  usage to the period they ended in.  Job counts attribute to the period
  the job ended in (XDMoD's "jobs ended" convention), and wait time to
  the period the job started in.
- ``agg_storage_<period>`` from ``fact_storage`` — per-timestamp totals
  averaged within the period (storage metrics are point-in-time gauges,
  not additive).  A ``NULL`` soft quota means "no quota configured" and
  is excluded from ``n_quota_samples``; an explicit ``0.0`` quota is a
  real sample.
- ``agg_cloud_<period>`` from ``fact_vm`` / ``fact_vm_interval`` — running
  core-hours apportioned by overlap, binned by the VM-memory level set
  (Figure 7), plus VM started/ended/active counts.  A running interval
  with ``start_ts == end_ts`` accrues no hours but still counts its VM
  toward ``n_vms_active`` in the period containing ``start_ts``.

The default ``aggregate_jobs`` / ``aggregate_storage`` / ``aggregate_cloud``
rebuilds run on the columnar fast path (:mod:`repro.aggregation.columnar`,
NumPy group-index reductions over the warehouse's cached column arrays).
The original pure-Python builders remain as ``aggregate_*_oracle`` — the
reference implementations the fast paths are tested against row-for-row.

Every realm also has an incremental mode (``aggregate_*_incremental``)
that folds only newly ingested facts into the existing aggregates using
seen-table bookkeeping; this is what lets a federation hub fold in each
member's delta instead of rebuilding every realm for every period.

Re-aggregation (the Table I scenario: hub levels change when a new
satellite joins) drops and rebuilds; raw tables are never modified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from ..timeutil import (
    SECONDS_PER_HOUR,
    overlap_seconds,
    period_label,
    period_range,
    period_start,
)
from ..warehouse import ColumnType, Schema, TableSchema, make_columns
from .columnar import build_cloud_rows, build_job_rows, build_storage_rows
from .levels import (
    DEFAULT_JOBSIZE_LEVELS,
    DEFAULT_WALLTIME_LEVELS,
    FIG7_VM_MEMORY_LEVELS,
    AggregationLevelSet,
)

C = ColumnType


@dataclass(frozen=True)
class AggregationConfig:
    """Per-instance aggregation settings (the JSON-managed knobs)."""

    walltime_levels: AggregationLevelSet = DEFAULT_WALLTIME_LEVELS
    jobsize_levels: AggregationLevelSet = DEFAULT_JOBSIZE_LEVELS
    vm_memory_levels: AggregationLevelSet = FIG7_VM_MEMORY_LEVELS
    periods: tuple[str, ...] = ("day", "month", "quarter", "year")


def agg_job_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_job_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("period_label", C.STR, False),
            ("resource_id", C.INT, False),
            ("person_id", C.INT, False),
            ("pi_id", C.INT, False),
            ("app_id", C.INT, False),
            ("queue_id", C.INT, False),
            ("walltime_level", C.STR, False),
            ("jobsize_level", C.STR, False),
            ("n_jobs_ended", C.INT, False),
            ("n_jobs_started", C.INT, False),
            ("cpu_hours", C.FLOAT, False),
            ("node_hours", C.FLOAT, False),
            ("xdsu", C.FLOAT, False),
            ("wall_hours", C.FLOAT, False),
            ("wait_hours", C.FLOAT, False),
        ]),
        primary_key=(
            "period_start", "resource_id", "person_id", "pi_id",
            "app_id", "queue_id", "walltime_level", "jobsize_level",
        ),
        indexes=("period_start", "resource_id"),
    )


def agg_storage_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_storage_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("period_label", C.STR, False),
            ("resource_id", C.INT, False),
            ("filesystem", C.STR, False),
            ("resource_type", C.STR, False),
            ("avg_file_count", C.FLOAT, False),
            ("avg_logical_gb", C.FLOAT, False),
            ("avg_physical_gb", C.FLOAT, False),
            ("sum_quota_utilization", C.FLOAT, False),
            ("n_quota_samples", C.INT, False),
            ("avg_soft_quota_gb", C.FLOAT, False),
            ("avg_hard_quota_gb", C.FLOAT, False),
            ("user_count", C.INT, False),
            ("n_snapshots", C.INT, False),
        ]),
        primary_key=("period_start", "resource_id", "filesystem"),
        indexes=("period_start",),
    )


def agg_cloud_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_cloud_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("period_label", C.STR, False),
            ("resource_id", C.INT, False),
            ("project", C.STR, False),
            ("os", C.STR, False),
            ("submission_venue", C.STR, False),
            ("memory_level", C.STR, False),
            ("core_hours", C.FLOAT, False),
            ("wall_hours", C.FLOAT, False),
            ("mem_gb_hours", C.FLOAT, False),
            ("disk_gb_hours", C.FLOAT, False),
            ("stopped_hours", C.FLOAT, False),
            ("paused_hours", C.FLOAT, False),
            ("n_state_changes", C.INT, False),
            ("n_vms_active", C.INT, False),
            ("n_vms_started", C.INT, False),
            ("n_vms_ended", C.INT, False),
            ("total_cores", C.FLOAT, False),
        ]),
        primary_key=(
            "period_start", "resource_id", "project", "os",
            "submission_venue", "memory_level",
        ),
        indexes=("period_start",),
    )


# -- incremental bookkeeping tables ------------------------------------------


def job_seen_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_seen_job_{period}",
        make_columns([
            ("resource_id", C.INT, False),
            ("job_id", C.INT, False),
        ]),
        primary_key=("resource_id", "job_id"),
    )


def storage_seen_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_seen_storage_{period}",
        make_columns([("snapshot_id", C.INT, False)]),
        primary_key=("snapshot_id",),
    )


def storage_state_schema(period: str) -> TableSchema:
    """Running sums per group; the agg row is derived from this exactly."""
    return TableSchema(
        f"agg_state_storage_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("resource_id", C.INT, False),
            ("filesystem", C.STR, False),
            ("resource_type", C.STR, False),
            ("sum_file_count", C.FLOAT, False),
            ("sum_logical_gb", C.FLOAT, False),
            ("sum_physical_gb", C.FLOAT, False),
            ("sum_soft_quota_gb", C.FLOAT, False),
            ("sum_hard_quota_gb", C.FLOAT, False),
            ("sum_quota_utilization", C.FLOAT, False),
            ("n_quota_samples", C.INT, False),
            ("n_timestamps", C.INT, False),
            ("n_users", C.INT, False),
        ]),
        primary_key=("period_start", "resource_id", "filesystem"),
    )


def storage_seen_ts_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_seen_storage_ts_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("resource_id", C.INT, False),
            ("filesystem", C.STR, False),
            ("ts", C.TIMESTAMP, False),
        ]),
        primary_key=("period_start", "resource_id", "filesystem", "ts"),
    )


def storage_seen_user_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_seen_storage_user_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("resource_id", C.INT, False),
            ("filesystem", C.STR, False),
            ("person_id", C.INT, False),
        ]),
        primary_key=("period_start", "resource_id", "filesystem", "person_id"),
    )


def cloud_seen_interval_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_seen_cloud_interval_{period}",
        make_columns([("interval_id", C.INT, False)]),
        primary_key=("interval_id",),
    )


def cloud_seen_vm_schema(period: str) -> TableSchema:
    return TableSchema(
        f"agg_seen_cloud_vm_{period}",
        make_columns([
            ("resource_id", C.INT, False),
            ("vm_id", C.INT, False),
        ]),
        primary_key=("resource_id", "vm_id"),
    )


def cloud_active_vm_schema(period: str) -> TableSchema:
    """Distinct (group, vm) memberships behind ``n_vms_active``."""
    return TableSchema(
        f"agg_active_vm_{period}",
        make_columns([
            ("period_start", C.TIMESTAMP, False),
            ("resource_id", C.INT, False),
            ("project", C.STR, False),
            ("os", C.STR, False),
            ("submission_venue", C.STR, False),
            ("memory_level", C.STR, False),
            ("vm_id", C.INT, False),
        ]),
        primary_key=(
            "period_start", "resource_id", "project", "os",
            "submission_venue", "memory_level", "vm_id",
        ),
    )


def _replace_table(schema: Schema, table_schema: TableSchema) -> None:
    if schema.has_table(table_schema.name):
        schema.drop_table(table_schema.name)
    schema.create_table(table_schema)


def _observed(realm: str, mode: str):
    """Wrap one aggregation entry point with telemetry.

    Publishes a span, an ``aggregation_build_seconds`` observation, and
    an ``aggregation_rows_total`` bump per call (batch-level: one
    histogram sample per build, never per row).  A plain pass-through
    when the aggregator has no telemetry bundle.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, period: str) -> int:
            obs = self.obs
            if obs is None:
                return fn(self, period)
            registry = obs.registry
            start = obs.clock.now()
            with obs.tracer.span(
                f"aggregate_{realm}", realm=realm, mode=mode, period=period
            ):
                rows = fn(self, period)
            registry.histogram(
                "aggregation_build_seconds",
                "Wall time of one aggregation build",
                ("realm", "mode"),
            ).labels(realm=realm, mode=mode).observe(obs.clock.now() - start)
            registry.counter(
                "aggregation_rows_total",
                "Rows written (full) or facts folded (incremental) per build",
                ("realm", "mode"),
            ).labels(realm=realm, mode=mode).inc(rows)
            return rows

        return wrapper

    return decorate


class Aggregator:
    """Runs the aggregation step against one warehouse schema."""

    def __init__(
        self,
        schema: Schema,
        config: AggregationConfig | None = None,
        *,
        obs=None,
    ) -> None:
        self.schema = schema
        self.config = config or AggregationConfig()
        self.obs = obs

    # -- jobs realm -------------------------------------------------------

    @_observed("jobs", "full")
    def aggregate_jobs(self, period: str) -> int:
        """(Re)build ``agg_job_<period>``; returns rows written.

        Runs on the columnar fast path; :meth:`aggregate_jobs_oracle` is
        the pure-Python reference it is tested against row-for-row.
        """
        _replace_table(self.schema, agg_job_schema(period))
        self._resync_job_bookkeeping(period)
        if not self.schema.has_table("fact_job"):
            return 0
        agg = self.schema.table(f"agg_job_{period}")
        agg.insert_many(build_job_rows(self.schema, self.config, period, obs=self.obs))
        return len(agg)

    def aggregate_jobs_oracle(self, period: str) -> int:
        """Pure-Python reference rebuild of ``agg_job_<period>``."""
        cfg = self.config
        _replace_table(self.schema, agg_job_schema(period))
        self._resync_job_bookkeeping(period)
        if not self.schema.has_table("fact_job"):
            return 0
        agg = self.schema.table(f"agg_job_{period}")
        buckets: dict[tuple, dict[str, float]] = {}

        def bucket(key: tuple) -> dict[str, float]:
            entry = buckets.get(key)
            if entry is None:
                entry = {
                    "n_jobs_ended": 0, "n_jobs_started": 0, "cpu_hours": 0.0,
                    "node_hours": 0.0, "xdsu": 0.0, "wall_hours": 0.0,
                    "wait_hours": 0.0,
                }
                buckets[key] = entry
            return entry

        for job in self.schema.table("fact_job").rows():
            wl_level = cfg.walltime_levels.level_of(job["walltime_s"])
            sz_level = cfg.jobsize_levels.level_of(job["cores"])
            dims = (
                job["resource_id"], job["person_id"], job["pi_id"],
                job["app_id"], job["queue_id"], wl_level, sz_level,
            )
            # counts: end / start attribution
            end_period = period_start(period, job["end_ts"])
            bucket((end_period, *dims))["n_jobs_ended"] += 1
            start_period = period_start(period, job["start_ts"])
            b = bucket((start_period, *dims))
            b["n_jobs_started"] += 1
            b["wait_hours"] += job["wait_s"] / SECONDS_PER_HOUR
            # usage: apportion across overlapped periods
            if job["walltime_s"] > 0 and job["end_ts"] > job["start_ts"]:
                total = job["walltime_s"]
                for p_start, p_end in period_range(
                    period, job["start_ts"], job["end_ts"]
                ):
                    ov = overlap_seconds(job["start_ts"], job["end_ts"], p_start, p_end)
                    if ov <= 0:
                        continue
                    frac = ov / total
                    b = bucket((p_start, *dims))
                    b["cpu_hours"] += job["cpu_hours"] * frac
                    b["node_hours"] += job["node_hours"] * frac
                    b["xdsu"] += job["xdsu"] * frac
                    b["wall_hours"] += total * frac / SECONDS_PER_HOUR
            else:
                # zero-length jobs span no period window, so apportionment
                # would drop their usage entirely; conserve the raw totals
                # by attributing full usage to the end period
                b = bucket((end_period, *dims))
                b["cpu_hours"] += job["cpu_hours"]
                b["node_hours"] += job["node_hours"]
                b["xdsu"] += job["xdsu"]
                b["wall_hours"] += job["walltime_s"] / SECONDS_PER_HOUR

        for key in sorted(buckets):
            p_start, rid, pid, piid, aid, qid, wl_level, sz_level = key
            measures = buckets[key]
            agg.insert(
                {
                    "period_start": p_start,
                    "period_label": period_label(period, p_start),
                    "resource_id": rid,
                    "person_id": pid,
                    "pi_id": piid,
                    "app_id": aid,
                    "queue_id": qid,
                    "walltime_level": wl_level,
                    "jobsize_level": sz_level,
                    "n_jobs_ended": int(measures["n_jobs_ended"]),
                    "n_jobs_started": int(measures["n_jobs_started"]),
                    "cpu_hours": measures["cpu_hours"],
                    "node_hours": measures["node_hours"],
                    "xdsu": measures["xdsu"],
                    "wall_hours": measures["wall_hours"],
                    "wait_hours": measures["wait_hours"],
                }
            )
        return len(agg)

    def _resync_job_bookkeeping(self, period: str) -> None:
        # a full rebuild covers everything: resync the incremental
        # bookkeeping so a later incremental pass starts from here
        seen_name = f"agg_seen_job_{period}"
        if not self.schema.has_table(seen_name):
            return
        seen = self.schema.table(seen_name)
        seen.truncate()
        if self.schema.has_table("fact_job"):
            for job in self.schema.table("fact_job").rows():
                seen.insert(
                    {"resource_id": job["resource_id"], "job_id": job["job_id"]}
                )

    # -- incremental jobs aggregation ----------------------------------------

    @_observed("jobs", "incremental")
    def aggregate_jobs_incremental(self, period: str) -> int:
        """Fold newly ingested jobs into ``agg_job_<period>`` in place.

        This is XDMoD's actual nightly mode: "aggregation processes run
        against newly ingested data".  A bookkeeping table records which
        job keys have been folded in, so repeated calls only process the
        delta; results are identical to a full :meth:`aggregate_jobs`
        rebuild over the same facts (tested).  Facts are treated as
        append-only — after updating or deleting job rows, or changing
        levels, run the full rebuild instead.

        Returns the number of new jobs folded in.
        """
        cfg = self.config
        agg_name = f"agg_job_{period}"
        if not self.schema.has_table(agg_name):
            self.schema.create_table(agg_job_schema(period))
        if not self.schema.has_table(f"agg_seen_job_{period}"):
            self.schema.create_table(job_seen_schema(period))
        if not self.schema.has_table("fact_job"):
            return 0
        agg = self.schema.table(agg_name)
        seen = self.schema.table(f"agg_seen_job_{period}")

        #: (period_start, *dims) -> measure deltas for this pass
        deltas: dict[tuple, dict[str, float]] = {}

        def bucket(key: tuple) -> dict[str, float]:
            entry = deltas.get(key)
            if entry is None:
                entry = {
                    "n_jobs_ended": 0, "n_jobs_started": 0, "cpu_hours": 0.0,
                    "node_hours": 0.0, "xdsu": 0.0, "wall_hours": 0.0,
                    "wait_hours": 0.0,
                }
                deltas[key] = entry
            return entry

        processed = 0
        for job in self.schema.table("fact_job").rows():
            key = (job["resource_id"], job["job_id"])
            if seen.get(key) is not None:
                continue
            seen.insert({"resource_id": key[0], "job_id": key[1]})
            processed += 1
            wl_level = cfg.walltime_levels.level_of(job["walltime_s"])
            sz_level = cfg.jobsize_levels.level_of(job["cores"])
            dims = (
                job["resource_id"], job["person_id"], job["pi_id"],
                job["app_id"], job["queue_id"], wl_level, sz_level,
            )
            end_period = period_start(period, job["end_ts"])
            bucket((end_period, *dims))["n_jobs_ended"] += 1
            b = bucket((period_start(period, job["start_ts"]), *dims))
            b["n_jobs_started"] += 1
            b["wait_hours"] += job["wait_s"] / SECONDS_PER_HOUR
            if job["walltime_s"] > 0 and job["end_ts"] > job["start_ts"]:
                total = job["walltime_s"]
                for p_start, p_end in period_range(
                    period, job["start_ts"], job["end_ts"]
                ):
                    ov = overlap_seconds(
                        job["start_ts"], job["end_ts"], p_start, p_end
                    )
                    if ov <= 0:
                        continue
                    frac = ov / total
                    b = bucket((p_start, *dims))
                    b["cpu_hours"] += job["cpu_hours"] * frac
                    b["node_hours"] += job["node_hours"] * frac
                    b["xdsu"] += job["xdsu"] * frac
                    b["wall_hours"] += total * frac / SECONDS_PER_HOUR
            else:
                # same zero-length rule as the full rebuild
                b = bucket((end_period, *dims))
                b["cpu_hours"] += job["cpu_hours"]
                b["node_hours"] += job["node_hours"]
                b["xdsu"] += job["xdsu"]
                b["wall_hours"] += job["walltime_s"] / SECONDS_PER_HOUR

        for key in sorted(deltas):
            p_start, rid, pid, piid, aid, qid, wl_level, sz_level = key
            delta = deltas[key]
            pk = (p_start, rid, pid, piid, aid, qid, wl_level, sz_level)
            existing = agg.get(pk)
            if existing is None:
                existing = {
                    "period_start": p_start,
                    "period_label": period_label(period, p_start),
                    "resource_id": rid, "person_id": pid, "pi_id": piid,
                    "app_id": aid, "queue_id": qid,
                    "walltime_level": wl_level, "jobsize_level": sz_level,
                    "n_jobs_ended": 0, "n_jobs_started": 0,
                    "cpu_hours": 0.0, "node_hours": 0.0, "xdsu": 0.0,
                    "wall_hours": 0.0, "wait_hours": 0.0,
                }
            for measure, value in delta.items():
                existing[measure] = existing[measure] + value
            existing["n_jobs_ended"] = int(existing["n_jobs_ended"])
            existing["n_jobs_started"] = int(existing["n_jobs_started"])
            agg.upsert(existing)
        return processed

    # -- storage realm ------------------------------------------------------

    @_observed("storage", "full")
    def aggregate_storage(self, period: str) -> int:
        """(Re)build ``agg_storage_<period>`` via the columnar fast path."""
        _replace_table(self.schema, agg_storage_schema(period))
        self._resync_storage_bookkeeping(period)
        if not self.schema.has_table("fact_storage"):
            return 0
        agg = self.schema.table(f"agg_storage_{period}")
        agg.insert_many(build_storage_rows(self.schema, period, obs=self.obs))
        return len(agg)

    def aggregate_storage_oracle(self, period: str) -> int:
        """Pure-Python reference rebuild of ``agg_storage_<period>``."""
        _replace_table(self.schema, agg_storage_schema(period))
        self._resync_storage_bookkeeping(period)
        if not self.schema.has_table("fact_storage"):
            return 0
        agg = self.schema.table(f"agg_storage_{period}")
        # First collapse per-timestamp totals across users, then average the
        # per-timestamp totals within each period (gauge semantics).
        per_ts: dict[tuple, dict[str, float]] = {}
        users: dict[tuple, set[int]] = {}
        meta: dict[tuple[int, str], str] = {}
        for snap in self.schema.table("fact_storage").rows():
            tkey = (snap["ts"], snap["resource_id"], snap["filesystem"])
            entry = per_ts.setdefault(
                tkey,
                {"file_count": 0.0, "logical_gb": 0.0, "physical_gb": 0.0,
                 "quota_util": 0.0, "quota_n": 0.0,
                 "soft_quota_gb": 0.0, "hard_quota_gb": 0.0},
            )
            entry["file_count"] += snap["file_count"]
            entry["logical_gb"] += snap["logical_usage_gb"]
            entry["physical_gb"] += snap["physical_usage_gb"]
            soft = snap["soft_quota_gb"]
            entry["soft_quota_gb"] += soft if soft is not None else 0.0
            hard = snap["hard_quota_gb"]
            entry["hard_quota_gb"] += hard if hard is not None else 0.0
            if soft is not None:
                # NULL means no quota configured; an explicit 0.0 quota is
                # a real sample (utilization against it is undefined, so it
                # contributes 0 to the utilization sum)
                if soft > 0:
                    entry["quota_util"] += snap["logical_usage_gb"] / soft
                entry["quota_n"] += 1
            pkey = (
                period_start(period, snap["ts"]),
                snap["resource_id"], snap["filesystem"],
            )
            users.setdefault(pkey, set()).add(snap["person_id"])
            meta[(snap["resource_id"], snap["filesystem"])] = snap["resource_type"]

        periods: dict[tuple, list[dict[str, float]]] = {}
        for (ts_, rid, fs), entry in per_ts.items():
            periods.setdefault(
                (period_start(period, ts_), rid, fs), []
            ).append(entry)
        for key in sorted(periods):
            p_start, rid, fs = key
            samples = periods[key]
            n = len(samples)
            quota_n = sum(s["quota_n"] for s in samples)
            agg.insert(
                {
                    "period_start": p_start,
                    "period_label": period_label(period, p_start),
                    "resource_id": rid,
                    "filesystem": fs,
                    "resource_type": meta[(rid, fs)],
                    "avg_file_count": sum(s["file_count"] for s in samples) / n,
                    "avg_logical_gb": sum(s["logical_gb"] for s in samples) / n,
                    "avg_physical_gb": sum(s["physical_gb"] for s in samples) / n,
                    "sum_quota_utilization": sum(s["quota_util"] for s in samples),
                    "n_quota_samples": int(quota_n),
                    "avg_soft_quota_gb": sum(s["soft_quota_gb"] for s in samples) / n,
                    "avg_hard_quota_gb": sum(s["hard_quota_gb"] for s in samples) / n,
                    "user_count": len(users[key]),
                    "n_snapshots": n,
                }
            )
        return len(agg)

    # -- incremental storage aggregation -------------------------------------

    def _ensure_storage_bookkeeping(self, period: str) -> None:
        for schema_fn in (
            storage_seen_schema, storage_state_schema,
            storage_seen_ts_schema, storage_seen_user_schema,
        ):
            ts = schema_fn(period)
            if not self.schema.has_table(ts.name):
                self.schema.create_table(ts)

    def _fold_storage_facts(self, period: str) -> tuple[int, set[tuple]]:
        """Fold unseen snapshots into the running-sum state tables.

        Returns ``(snapshots processed, group keys touched)``.  The agg
        row for a group is *derived* from its state row, so repeated folds
        never accumulate drift.
        """
        self._ensure_storage_bookkeeping(period)
        seen = self.schema.table(f"agg_seen_storage_{period}")
        state = self.schema.table(f"agg_state_storage_{period}")
        seen_ts = self.schema.table(f"agg_seen_storage_ts_{period}")
        seen_user = self.schema.table(f"agg_seen_storage_user_{period}")
        processed = 0
        touched: set[tuple] = set()
        for snap in self.schema.table("fact_storage").rows():
            if seen.get((snap["snapshot_id"],)) is not None:
                continue
            seen.insert({"snapshot_id": snap["snapshot_id"]})
            processed += 1
            p_start = period_start(period, snap["ts"])
            key = (p_start, snap["resource_id"], snap["filesystem"])
            touched.add(key)
            entry = state.get(key)
            if entry is None:
                entry = {
                    "period_start": p_start,
                    "resource_id": snap["resource_id"],
                    "filesystem": snap["filesystem"],
                    "resource_type": snap["resource_type"],
                    "sum_file_count": 0.0, "sum_logical_gb": 0.0,
                    "sum_physical_gb": 0.0, "sum_soft_quota_gb": 0.0,
                    "sum_hard_quota_gb": 0.0, "sum_quota_utilization": 0.0,
                    "n_quota_samples": 0, "n_timestamps": 0, "n_users": 0,
                }
            entry["resource_type"] = snap["resource_type"]
            entry["sum_file_count"] += snap["file_count"]
            entry["sum_logical_gb"] += snap["logical_usage_gb"]
            entry["sum_physical_gb"] += snap["physical_usage_gb"]
            soft = snap["soft_quota_gb"]
            entry["sum_soft_quota_gb"] += soft if soft is not None else 0.0
            hard = snap["hard_quota_gb"]
            entry["sum_hard_quota_gb"] += hard if hard is not None else 0.0
            if soft is not None:
                if soft > 0:
                    entry["sum_quota_utilization"] += (
                        snap["logical_usage_gb"] / soft
                    )
                entry["n_quota_samples"] += 1
            ts_key = (*key, snap["ts"])
            if seen_ts.get(ts_key) is None:
                seen_ts.insert(dict(zip(
                    ("period_start", "resource_id", "filesystem", "ts"), ts_key
                )))
                entry["n_timestamps"] += 1
            user_key = (*key, snap["person_id"])
            if seen_user.get(user_key) is None:
                seen_user.insert(dict(zip(
                    ("period_start", "resource_id", "filesystem", "person_id"),
                    user_key,
                )))
                entry["n_users"] += 1
            state.upsert(entry)
        return processed, touched

    @_observed("storage", "incremental")
    def aggregate_storage_incremental(self, period: str) -> int:
        """Fold newly ingested snapshots into ``agg_storage_<period>``.

        Same contract as :meth:`aggregate_jobs_incremental`: append-only
        facts, results identical to a full rebuild (tested), returns the
        number of new snapshots folded in.  Assumes ``resource_type`` is
        stable per (resource, filesystem), which ingest guarantees.
        """
        agg_name = f"agg_storage_{period}"
        if not self.schema.has_table(agg_name):
            self.schema.create_table(agg_storage_schema(period))
        if not self.schema.has_table("fact_storage"):
            self._ensure_storage_bookkeeping(period)
            return 0
        processed, touched = self._fold_storage_facts(period)
        agg = self.schema.table(agg_name)
        state = self.schema.table(f"agg_state_storage_{period}")
        for key in sorted(touched):
            entry = state.get(key)
            n = entry["n_timestamps"]
            agg.upsert(
                {
                    "period_start": entry["period_start"],
                    "period_label": period_label(period, entry["period_start"]),
                    "resource_id": entry["resource_id"],
                    "filesystem": entry["filesystem"],
                    "resource_type": entry["resource_type"],
                    "avg_file_count": entry["sum_file_count"] / n,
                    "avg_logical_gb": entry["sum_logical_gb"] / n,
                    "avg_physical_gb": entry["sum_physical_gb"] / n,
                    "sum_quota_utilization": entry["sum_quota_utilization"],
                    "n_quota_samples": int(entry["n_quota_samples"]),
                    "avg_soft_quota_gb": entry["sum_soft_quota_gb"] / n,
                    "avg_hard_quota_gb": entry["sum_hard_quota_gb"] / n,
                    "user_count": int(entry["n_users"]),
                    "n_snapshots": int(n),
                }
            )
        return processed

    def _resync_storage_bookkeeping(self, period: str) -> None:
        if not self.schema.has_table(f"agg_seen_storage_{period}"):
            return
        self._ensure_storage_bookkeeping(period)
        for name in (
            f"agg_seen_storage_{period}", f"agg_state_storage_{period}",
            f"agg_seen_storage_ts_{period}", f"agg_seen_storage_user_{period}",
        ):
            self.schema.table(name).truncate()
        if self.schema.has_table("fact_storage"):
            self._fold_storage_facts(period)

    # -- cloud realm ---------------------------------------------------------

    @_observed("cloud", "full")
    def aggregate_cloud(self, period: str) -> int:
        """(Re)build ``agg_cloud_<period>`` via the columnar fast path."""
        _replace_table(self.schema, agg_cloud_schema(period))
        self._resync_cloud_bookkeeping(period)
        if not self.schema.has_table("fact_vm_interval"):
            return 0
        agg = self.schema.table(f"agg_cloud_{period}")
        agg.insert_many(build_cloud_rows(self.schema, self.config, period, obs=self.obs))
        return len(agg)

    def aggregate_cloud_oracle(self, period: str) -> int:
        """Pure-Python reference rebuild of ``agg_cloud_<period>``."""
        _replace_table(self.schema, agg_cloud_schema(period))
        self._resync_cloud_bookkeeping(period)
        if not self.schema.has_table("fact_vm_interval"):
            return 0
        agg = self.schema.table(f"agg_cloud_{period}")
        levels = self.config.vm_memory_levels
        buckets: dict[tuple, dict[str, float]] = {}
        active_vms: dict[tuple, set[int]] = {}

        def bucket(key: tuple) -> dict[str, float]:
            entry = buckets.get(key)
            if entry is None:
                entry = {
                    "core_hours": 0.0, "wall_hours": 0.0, "total_cores": 0.0,
                    "mem_gb_hours": 0.0, "disk_gb_hours": 0.0,
                    "stopped_hours": 0.0, "paused_hours": 0.0,
                    "n_state_changes": 0,
                    "n_vms_started": 0, "n_vms_ended": 0,
                }
                buckets[key] = entry
            return entry

        for iv in self.schema.table("fact_vm_interval").rows():
            mem_level = levels.level_of(iv["mem_gb"])
            dims = (
                iv["resource_id"], iv["project"], iv["os"],
                iv["submission_venue"], mem_level,
            )
            if iv["end_ts"] == iv["start_ts"] and iv["state"] == "running":
                # a VM that started and stopped within the same second
                # accrues no hours but was still active in that period
                key = (period_start(period, iv["start_ts"]), *dims)
                bucket(key)
                active_vms.setdefault(key, set()).add(iv["vm_id"])
                continue
            for p_start, p_end in period_range(period, iv["start_ts"], iv["end_ts"]):
                ov = overlap_seconds(iv["start_ts"], iv["end_ts"], p_start, p_end)
                if ov <= 0:
                    continue
                b = bucket((p_start, *dims))
                hours = ov / SECONDS_PER_HOUR
                if iv["state"] == "running":
                    b["core_hours"] += iv["vcpus"] * hours
                    b["wall_hours"] += hours
                    # reservations weighted by wall hours (Section III-B)
                    b["mem_gb_hours"] += iv["mem_gb"] * hours
                    b["disk_gb_hours"] += iv["disk_gb"] * hours
                    active_vms.setdefault(
                        (p_start, *dims), set()
                    ).add(iv["vm_id"])
                elif iv["state"] == "stopped":
                    b["stopped_hours"] += hours
                else:
                    b["paused_hours"] += hours

        if self.schema.has_table("fact_vm"):
            for vm in self.schema.table("fact_vm").rows():
                mem_level = levels.level_of(vm["last_mem_gb"])
                dims = (
                    vm["resource_id"], vm["project"], vm["os"],
                    vm["submission_venue"], mem_level,
                )
                b = bucket((period_start(period, vm["provision_ts"]), *dims))
                b["n_vms_started"] += 1
                b["total_cores"] += vm["last_vcpus"]
                b["n_state_changes"] += vm["n_state_changes"]
                if vm["terminate_ts"] is not None:
                    bucket(
                        (period_start(period, vm["terminate_ts"]), *dims)
                    )["n_vms_ended"] += 1

        for key in sorted(buckets):
            p_start, rid, project, os, venue, mem_level = key
            measures = buckets[key]
            agg.insert(
                {
                    "period_start": p_start,
                    "period_label": period_label(period, p_start),
                    "resource_id": rid,
                    "project": project,
                    "os": os,
                    "submission_venue": venue,
                    "memory_level": mem_level,
                    "core_hours": measures["core_hours"],
                    "wall_hours": measures["wall_hours"],
                    "mem_gb_hours": measures["mem_gb_hours"],
                    "disk_gb_hours": measures["disk_gb_hours"],
                    "stopped_hours": measures["stopped_hours"],
                    "paused_hours": measures["paused_hours"],
                    "n_state_changes": int(measures["n_state_changes"]),
                    "n_vms_active": len(active_vms.get(key, ())),
                    "n_vms_started": int(measures["n_vms_started"]),
                    "n_vms_ended": int(measures["n_vms_ended"]),
                    "total_cores": measures["total_cores"],
                }
            )
        return len(agg)

    # -- incremental cloud aggregation ----------------------------------------

    def _ensure_cloud_bookkeeping(self, period: str) -> None:
        for schema_fn in (
            cloud_seen_interval_schema, cloud_seen_vm_schema,
            cloud_active_vm_schema,
        ):
            ts = schema_fn(period)
            if not self.schema.has_table(ts.name):
                self.schema.create_table(ts)

    def _fold_cloud_facts(self, period: str) -> tuple[int, dict[tuple, dict[str, float]]]:
        """Fold unseen intervals / VM facts into measure deltas.

        Marks facts seen and maintains the distinct-active-VM membership
        table as a side effect; returns ``(facts processed, deltas)``.
        """
        self._ensure_cloud_bookkeeping(period)
        levels = self.config.vm_memory_levels
        seen_iv = self.schema.table(f"agg_seen_cloud_interval_{period}")
        seen_vm = self.schema.table(f"agg_seen_cloud_vm_{period}")
        active = self.schema.table(f"agg_active_vm_{period}")
        deltas: dict[tuple, dict[str, float]] = {}

        def bucket(key: tuple) -> dict[str, float]:
            entry = deltas.get(key)
            if entry is None:
                entry = {
                    "core_hours": 0.0, "wall_hours": 0.0, "total_cores": 0.0,
                    "mem_gb_hours": 0.0, "disk_gb_hours": 0.0,
                    "stopped_hours": 0.0, "paused_hours": 0.0,
                    "n_state_changes": 0, "n_vms_active": 0,
                    "n_vms_started": 0, "n_vms_ended": 0,
                }
                deltas[key] = entry
            return entry

        def mark_active(key: tuple, vm_id: int) -> None:
            pk = (*key, vm_id)
            if active.get(pk) is None:
                active.insert(dict(zip(
                    ("period_start", "resource_id", "project", "os",
                     "submission_venue", "memory_level", "vm_id"),
                    pk,
                )))
                bucket(key)["n_vms_active"] += 1

        processed = 0
        if self.schema.has_table("fact_vm_interval"):
            for iv in self.schema.table("fact_vm_interval").rows():
                if seen_iv.get((iv["interval_id"],)) is not None:
                    continue
                seen_iv.insert({"interval_id": iv["interval_id"]})
                processed += 1
                mem_level = levels.level_of(iv["mem_gb"])
                dims = (
                    iv["resource_id"], iv["project"], iv["os"],
                    iv["submission_venue"], mem_level,
                )
                if iv["end_ts"] == iv["start_ts"] and iv["state"] == "running":
                    key = (period_start(period, iv["start_ts"]), *dims)
                    bucket(key)
                    mark_active(key, iv["vm_id"])
                    continue
                for p_start, p_end in period_range(
                    period, iv["start_ts"], iv["end_ts"]
                ):
                    ov = overlap_seconds(
                        iv["start_ts"], iv["end_ts"], p_start, p_end
                    )
                    if ov <= 0:
                        continue
                    key = (p_start, *dims)
                    b = bucket(key)
                    hours = ov / SECONDS_PER_HOUR
                    if iv["state"] == "running":
                        b["core_hours"] += iv["vcpus"] * hours
                        b["wall_hours"] += hours
                        b["mem_gb_hours"] += iv["mem_gb"] * hours
                        b["disk_gb_hours"] += iv["disk_gb"] * hours
                        mark_active(key, iv["vm_id"])
                    elif iv["state"] == "stopped":
                        b["stopped_hours"] += hours
                    else:
                        b["paused_hours"] += hours

        if self.schema.has_table("fact_vm"):
            for vm in self.schema.table("fact_vm").rows():
                key = (vm["resource_id"], vm["vm_id"])
                if seen_vm.get(key) is not None:
                    continue
                seen_vm.insert({"resource_id": key[0], "vm_id": key[1]})
                processed += 1
                mem_level = levels.level_of(vm["last_mem_gb"])
                dims = (
                    vm["resource_id"], vm["project"], vm["os"],
                    vm["submission_venue"], mem_level,
                )
                b = bucket((period_start(period, vm["provision_ts"]), *dims))
                b["n_vms_started"] += 1
                b["total_cores"] += vm["last_vcpus"]
                b["n_state_changes"] += vm["n_state_changes"]
                if vm["terminate_ts"] is not None:
                    bucket(
                        (period_start(period, vm["terminate_ts"]), *dims)
                    )["n_vms_ended"] += 1
        return processed, deltas

    @_observed("cloud", "incremental")
    def aggregate_cloud_incremental(self, period: str) -> int:
        """Fold newly ingested cloud facts into ``agg_cloud_<period>``.

        Same contract as :meth:`aggregate_jobs_incremental`: append-only
        facts, results identical to a full rebuild (tested), returns the
        number of new intervals + VM facts folded in.
        """
        agg_name = f"agg_cloud_{period}"
        if not self.schema.has_table(agg_name):
            self.schema.create_table(agg_cloud_schema(period))
        processed, deltas = self._fold_cloud_facts(period)
        agg = self.schema.table(agg_name)
        for key in sorted(deltas):
            p_start, rid, project, os, venue, mem_level = key
            delta = deltas[key]
            existing = agg.get(key)
            if existing is None:
                existing = {
                    "period_start": p_start,
                    "period_label": period_label(period, p_start),
                    "resource_id": rid, "project": project, "os": os,
                    "submission_venue": venue, "memory_level": mem_level,
                    "core_hours": 0.0, "wall_hours": 0.0,
                    "mem_gb_hours": 0.0, "disk_gb_hours": 0.0,
                    "stopped_hours": 0.0, "paused_hours": 0.0,
                    "n_state_changes": 0, "n_vms_active": 0,
                    "n_vms_started": 0, "n_vms_ended": 0,
                    "total_cores": 0.0,
                }
            for measure, value in delta.items():
                existing[measure] = existing[measure] + value
            for count in (
                "n_state_changes", "n_vms_active", "n_vms_started",
                "n_vms_ended",
            ):
                existing[count] = int(existing[count])
            agg.upsert(existing)
        return processed

    def _resync_cloud_bookkeeping(self, period: str) -> None:
        if not self.schema.has_table(f"agg_seen_cloud_interval_{period}"):
            return
        self._ensure_cloud_bookkeeping(period)
        for name in (
            f"agg_seen_cloud_interval_{period}",
            f"agg_seen_cloud_vm_{period}",
            f"agg_active_vm_{period}",
        ):
            self.schema.table(name).truncate()
        # re-fold everything to repopulate seen + active membership; the
        # measure deltas are discarded (the rebuild just wrote the agg)
        self._fold_cloud_facts(period)

    # -- orchestration ---------------------------------------------------------

    def aggregate_all(self, periods: Sequence[str] | None = None) -> dict[str, int]:
        """Run every realm's aggregation for every configured period."""
        out: dict[str, int] = {}
        for period in periods or self.config.periods:
            out[f"agg_job_{period}"] = self.aggregate_jobs(period)
            out[f"agg_storage_{period}"] = self.aggregate_storage(period)
            out[f"agg_cloud_{period}"] = self.aggregate_cloud(period)
        return out

    def aggregate_all_incremental(
        self, periods: Sequence[str] | None = None
    ) -> dict[str, int]:
        """Fold every realm's newly ingested facts for every period.

        Returns facts-processed counts keyed like :meth:`aggregate_all`.
        """
        out: dict[str, int] = {}
        for period in periods or self.config.periods:
            out[f"agg_job_{period}"] = self.aggregate_jobs_incremental(period)
            out[f"agg_storage_{period}"] = self.aggregate_storage_incremental(period)
            out[f"agg_cloud_{period}"] = self.aggregate_cloud_incremental(period)
        return out

    def reaggregate(
        self, config: AggregationConfig, periods: Sequence[str] | None = None
    ) -> dict[str, int]:
        """Change aggregation levels and rebuild — the Table I scenario.

        "If ... aggregation levels must be redefined on the federation hub
        to accommodate a new satellite instance, the administrator will
        update the appropriate configuration file on the federation hub,
        then re-aggregate all raw federation data."
        """
        self.config = config
        return self.aggregate_all(periods)
