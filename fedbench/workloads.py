"""The three workloads: backfill, nightly and dashboard.

Each drives the federation only through its public entry points and times
every call from outside.  The load is a closed loop with one client: the
next call starts when the previous one returns.  A workload runs a fixed
schedule of *rounds*, sized from ``--seconds`` by the per-workload rate
below, so a faster program does the same work in less time and every run
with one seed attempts the same operations:

- backfill: one round is one whole backfill of a fresh federation;
- nightly: one round is one day (satellite ingest, then the hub cycle);
- dashboard: one round is ``READS_PER_WRITE`` reads, then one write step.

``round_s`` is the time of one round and ``setup_s`` that of one set-up,
each scaled to the reference host speed (``speed.py``); ``round_wall_s``
and ``setup_wall_s`` are the same as read off the clock.
"""

from __future__ import annotations

import gc
import itertools
import math
import urllib.parse
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core import (
    FederationHub,
    FederationMonitor,
    ReplicationFilter,
    XdmodInstance,
    check_federation,
    standardize_federation,
)
from repro.etl import parse_sacct_log
from repro.realms import cloud_realm, jobs_realm, storage_realm
from repro.simulators import ResourceSpec, figure1_sites
from repro.timeutil import SECONDS_PER_DAY, ts
from repro.ui import QueryService, ViewSpec, XdmodApi

from checks import Ledger, build_totals, conservation, realm_of, rebuild_mismatches
from inputs import BACKLOG_END, SCALE, YEAR_END, YEAR_START, Inputs
from speed import Speedometer

PERIODS = ("day", "month", "quarter", "year")

#: rounds per second of ``--seconds``, from two-CPU reference runs
ROUNDS_PER_SECOND = {"backfill": 0.4, "nightly": 1.1, "dashboard": 2.2}
#: the dashboard needs 1,000 reads for a p99 with ten samples beyond it
MIN_ROUNDS = {"backfill": 3, "nightly": 10, "dashboard": 10}
#: nightly and dashboard: set-ups per run (``setup_s`` is their median)
SETUP_REPEATS = 3
#: dashboard traffic shape.  These are assumptions, not measurements: no
#: published XDMoD portal usage study gives them (see NOTES.md, which also
#: gives the sensitivity of the read metrics to each)
READS_PER_WRITE = 100
ZIPF_EXPONENT = 1.1
#: one read in this many asks for a rendered chart rather than the data
CHART_EVERY = 5
#: compare one in this many cache-hit bodies with an uncached recompute
IDENTITY_SAMPLE = 7


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload], round(seconds * ROUNDS_PER_SECOND[workload]))


def days_for(workload: str, rounds: int) -> int:
    """Daily input batches a schedule of ``rounds`` consumes."""
    if workload == "nightly":
        return rounds
    if workload == "dashboard":
        return math.ceil(rounds / 3)
    return 0


@dataclass
class Counters:
    """Work counts gathered at layer boundaries (per-layer denominators)."""

    jobs_parsed: int = 0
    rows_ingested: int = 0
    binlog_events: int = 0
    loose_rows: int = 0
    events_applied: int = 0
    folded: int = 0
    new_facts: int = 0
    cloud_failed: int = 0
    reads: list[tuple[float, str]] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    hub_cycle_s: list[float] = field(default_factory=list)


@dataclass
class FullBuild:
    """A member's last full build: its hub schema and what the build folded."""

    schema: weakref.ref
    totals: dict[str, dict[str, float]]
    #: an incremental pass has run on the same schema since
    folded: bool = False


class Client:
    """The one closed-loop client: times, traces and accounts for every call
    into the federation."""

    def __init__(self, tracer, ledger: Ledger, meter: Speedometer | None = None) -> None:
        self.tracer = tracer
        self.ledger = ledger
        #: the timing of the workload's rounds, which the client tells of
        #: every call boundary
        self.meter = meter if meter is not None else Speedometer()
        self.counters = Counters()
        #: fact rows per (member, table) at the last aggregation pass
        self.fact_marks: dict[tuple[str, str], int] = {}
        #: member -> its last full build (what a double fold would add)
        self.full_builds: dict[str, FullBuild] = {}

    def call(self, layer: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """One operation.  An exception fails it and returns ``None``."""
        self.meter.checkpoint()
        with self.tracer.span(layer):
            try:
                result = fn(*args, **kwargs)
            # the client is the boundary that must keep running: every
            # failure is counted with its type and message, never raised
            except Exception as exc:  # noqa: BLE001
                self.ledger.record(layer, False, type(exc).__name__, repr(exc))
                return None
        self.ledger.record(layer, True)
        return result

    # -- layer entry points ----------------------------------------------------

    def ingest_sacct(self, instance: XdmodInstance, text: str, resource: str) -> None:
        jobs = self.call(
            "etl.slurm.parse",
            lambda: list(parse_sacct_log(text, default_resource=resource)),
        )
        if jobs is None:
            return
        self.counters.jobs_parsed += len(jobs)
        head = instance.schema.binlog.head_lsn
        rows = self.call("etl.star.ingest", instance.pipeline.ingest_parsed_jobs, jobs)
        if rows is not None:
            self.counters.rows_ingested += rows
            self.counters.binlog_events += instance.schema.binlog.head_lsn - head

    def ingest_loose(self, instance: XdmodInstance, docs, events) -> None:
        if docs:
            self.call("etl.storagefs.ingest", instance.pipeline.ingest_storage, docs)
        if events:
            if self.call("etl.cloudevents.ingest", instance.pipeline.ingest_cloud,
                         events) is None:
                self.counters.cloud_failed += 1

    def aggregate(self, hub: FederationHub, layer: str, incremental: bool) -> None:
        out = self.call(
            layer, hub.aggregate_federation, list(PERIODS), incremental=incremental
        )
        if out is not None:
            for member, reason in hub.last_aggregation.skipped.items():
                self.ledger.record("aggregation.skipped", False, member, reason)
            self._track_builds(hub, incremental)
        facts = _fact_rows(hub)
        if out is not None and incremental:
            # an ideal fold touches each new fact once per period
            self.counters.folded += sum(
                n for counts in out.values() for n in counts.values()
            )
            self.counters.new_facts += len(PERIODS) * sum(
                max(0, n - self.fact_marks.get(k, 0)) for k, n in facts.items()
            )
        self.fact_marks = facts

    def _track_builds(self, hub: FederationHub, incremental: bool) -> None:
        for name, schema in hub.federated_schemas().items():
            if not incremental:
                self.full_builds[name] = FullBuild(
                    weakref.ref(schema), build_totals(schema, PERIODS)
                )
                continue
            build = self.full_builds.get(name)
            if build is not None and build.schema() is schema:
                build.folded = True
            else:
                # a loose shipment replaced the schema: its full build is gone
                self.full_builds.pop(name, None)

    def baselines(self, hub: FederationHub) -> dict[str, dict[str, dict[str, float]]]:
        """Members an incremental pass has folded since their last full
        build, with that build's totals."""
        return {
            name: build.totals
            for name, schema in hub.federated_schemas().items()
            for build in (self.full_builds.get(name),)
            if build is not None and build.folded and build.schema() is schema
        }

    def consistency(self, hub: FederationHub, *, strict: bool) -> None:
        check = self.call("core.consistency.check", check_federation, hub, strict=strict)
        if check is not None:
            failing = [m.member for m in check.members if not m.ok]
            self.ledger.record("check.consistency", check.ok, "", f"members {failing}")

    def materialize(self, service: QueryService) -> None:
        refreshed = self.call("ui.serving.materialize", service.materialize)
        if refreshed is not None:
            self.ledger.record(
                "check.views", refreshed == len(service.views), "",
                f"{refreshed} of {len(service.views)} views refreshed",
            )

    def sync(self, hub: FederationHub) -> None:
        out = self.call("core.replicator.sync", hub.sync)
        for outcome in (out or {}).values():
            self.counters.events_applied += outcome.applied
            if outcome.status in ("failed", "circuit_open", "quarantined"):
                self.ledger.record("core.replicator.member", False, outcome.status,
                                   outcome.error)

    def ship_loose(self, hub: FederationHub) -> None:
        out = self.call("core.loose.ship", hub.ship_loose)
        for outcome in (out or {}).values():
            self.counters.loose_rows += outcome.applied
            if outcome.status != "applied":
                self.ledger.record("core.loose.member", False, outcome.status,
                                   outcome.error)

    # -- checks (never timed) --------------------------------------------------

    def check_conservation(self, hub: FederationHub) -> None:
        baselines = self.baselines(hub)
        for member in hub.members:
            if member.mode != "tight":
                continue
            schema = hub.database.schema(member.fed_schema)
            for verdict, message in conservation(
                schema, PERIODS, baselines.get(member.name)
            ).values():
                self.ledger.record(
                    "check.conservation", verdict == "equal", _detail("agg_job", verdict),
                    message,
                )

    def check_rebuild(self, hub: FederationHub) -> None:
        for member, table, verdict in rebuild_mismatches(
            hub.federated_schemas(), hub.aggregation, PERIODS, self.baselines(hub)
        ):
            detail = _detail(realm_of(table), verdict)
            self.ledger.record(
                "check.rebuild", verdict == "equal", detail,
                f"{member}.{table}: incremental checksum differs from a full "
                f"rebuild ({verdict})",
            )


def _detail(realm: str, verdict: str) -> str:
    """Failure detail: the realm, qualified by a verdict other than ``differs``."""
    return realm if verdict in ("equal", "differs") else f"{realm}:{verdict}"


def _fact_rows(hub: FederationHub) -> dict[tuple[str, str], int]:
    out = {}
    for name, schema in hub.federated_schemas().items():
        for table in ("fact_job", "fact_storage", "fact_vm_interval"):
            if schema.has_table(table):
                out[(name, table)] = len(schema.table(table))
    return out


# -- the federation ------------------------------------------------------------


def site_resources() -> dict[str, ResourceSpec]:
    """The Figure-1 resources, in the order of ``Inputs.sites``."""
    return {
        name: preset.resource
        for name, preset in sorted(figure1_sites(scale=SCALE).items())
    }


REALMS = {"jobs": jobs_realm(), "storage": storage_realm(), "cloud": cloud_realm()}


def standing_views(loose: bool, end: int) -> list[ViewSpec]:
    """The portal's standing charts, kept warm by ``materialize``."""
    views = [
        ViewSpec("jobs", "xdsu", YEAR_START, end, group_by="resource", chart=True,
                 top_n=3, title="Top resources by XD SUs"),
        ViewSpec("jobs", "cpu_hours", YEAR_START, end, group_by="queue"),
        ViewSpec("jobs", "n_jobs_ended", YEAR_START, end),
        ViewSpec("jobs", "avg_wait_hours", YEAR_START, end, group_by="resource"),
    ]
    if loose:
        views += [
            ViewSpec("storage", "physical_usage_tb", YEAR_START, end,
                     group_by="filesystem"),
            ViewSpec("cloud", "core_hours", YEAR_START, end, group_by="memory_level"),
        ]
    return views


@dataclass
class Federation:
    hub: FederationHub
    tight: list[tuple[XdmodInstance, str]]
    loose: XdmodInstance | None = None
    monitor: FederationMonitor | None = None
    api: XdmodApi | None = None


def new_federation(resources: dict[str, ResourceSpec], loose: bool) -> Federation:
    """An empty federation whose XD SU conversion comes from an HPL run on
    every resource."""
    conversion, _ = standardize_federation(resources)
    hub = FederationHub("hub", conversion=conversion)
    tight = [
        (XdmodInstance(f"site_{name}", conversion=conversion), name) for name in resources
    ]
    return Federation(
        hub, tight, XdmodInstance("site_loose", conversion=conversion) if loose else None
    )


def serve(client: Client, fed: Federation, end: int) -> None:
    """Open the hub's API over its current schemas and warm the views."""
    fed.api = XdmodApi(REALMS, fed.hub.federated_schemas(), obs=fed.hub.obs)
    fed.api.serving.register_views(standing_views(fed.loose is not None, end))
    client.materialize(fed.api.serving)


def load_backlog(client: Client, fed: Federation, inputs: Inputs, end: int) -> None:
    """Raw backlog -> replicated, fully aggregated, consistent, served."""
    for (instance, name), site in zip(fed.tight, inputs.sites):
        client.ingest_sacct(instance, site.backlog, name)
    for instance, _ in fed.tight:
        client.call("core.replicator.catch_up", fed.hub.join, instance, mode="tight")
    if fed.loose is not None:
        feeds = inputs.loose
        client.ingest_loose(
            fed.loose, list(feeds.storage_backlog),
            list(feeds.cloud_events[:feeds.cloud_backlog]),
        )
        # storage and cloud ride the loose dump: ship every realm's tables
        client.call("core.loose.ship", fed.hub.join, fed.loose, mode="loose",
                    filter=ReplicationFilter(tables=None))
    client.aggregate(fed.hub, "aggregation.full", incremental=False)
    client.consistency(fed.hub, strict=True)
    serve(client, fed, end)


# -- workloads -------------------------------------------------------------------


class Timings:
    """Set-up and round times, scaled (``speed.py``) and as read.

    Every timed region starts with a full collection, untimed, so that the
    garbage the benchmark's own checks leave between rounds is never
    collected on the program's time, and the collections inside a region
    fall at the same points in every run.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.meter = Speedometer(tracer)
        self.setup_wall_s: list[float] = []
        self.round_wall_s: list[float] = []
        self._setups: list[tuple[range, ...]] = []
        self._rounds: list[tuple[range, ...]] = []

    def _time(self, name: str, fn: Callable[[], Any]) -> tuple[float, range, Any]:
        """``fn()`` inside a span: (wall seconds, its segments, result).  The
        collection and the speed readings around it stay outside the span."""
        def spanned() -> Any:
            with self.tracer.span(name):
                return fn()

        gc.collect()
        return self.meter.time(spanned)

    def setup(self, fn: Callable[[], Any]) -> Any:
        wall, segments, result = self._time("bench.setup", fn)
        self.setup_wall_s.append(wall)
        self._setups.append((segments,))
        return result

    def part(self, fn: Callable[[], Any]) -> tuple[float, range]:
        """Part of a round, timed: (wall seconds, its segments)."""
        wall, segments, _ = self._time("bench.round", fn)
        return wall, segments

    def add_round(self, wall: float, *parts: range) -> None:
        self.round_wall_s.append(wall)
        self._rounds.append(parts)

    def round(self, fn: Callable[[], Any]) -> None:
        wall, segments = self.part(fn)
        self.add_round(wall, segments)

    def _scaled(self, timed: list[tuple[range, ...]]) -> list[float]:
        return [sum(self.meter.scaled(part) for part in parts) for parts in timed]

    @property
    def setup_s(self) -> list[float]:
        return self._scaled(self._setups)

    @property
    def round_s(self) -> list[float]:
        return self._scaled(self._rounds)

    def record(self) -> dict[str, Any]:
        """Everything the scaled times come from, for the run record."""
        return {
            "readings": self.meter.readings,
            "segments": self.meter.segments,
            "setups": [[[p.start, p.stop] for p in parts] for parts in self._setups],
            "rounds": [[[p.start, p.stop] for p in parts] for parts in self._rounds],
        }


@dataclass
class Result:
    timings: Timings
    counters: Counters
    hub_rows: int = 0
    evictions: int = 0

    @property
    def setup_s(self) -> list[float]:
        return self.timings.setup_s

    @property
    def round_s(self) -> list[float]:
        return self.timings.round_s


def _hub_rows(hub: FederationHub) -> int:
    return sum(
        len(schema.table(t))
        for name in hub.database.schema_names()
        for schema in (hub.database.schema(name),)
        for t in schema.table_names()
    )


def run_backfill(inputs: Inputs, rounds: int, tracer, ledger: Ledger) -> Result:
    """Raw logs for one year -> consistent federated aggregates + views."""
    timings = Timings(tracer)
    client = Client(tracer, ledger, timings.meter)
    resources = site_resources()
    hub_rows = 0
    for _ in range(rounds):
        fed = timings.setup(lambda: new_federation(resources, loose=False))
        timings.round(lambda: load_backlog(client, fed, inputs, YEAR_END))
        client.check_conservation(fed.hub)
        hub_rows = _hub_rows(fed.hub)
        del fed
        gc.collect()
    return Result(timings, client.counters, hub_rows)


def _setup_loaded(client, inputs, resources, *, first_incremental: bool) -> Federation:
    fed = new_federation(resources, loose=True)
    load_backlog(client, fed, inputs, BACKLOG_END)
    fed.monitor = FederationMonitor(fed.hub)
    if first_incremental:
        client.aggregate(fed.hub, "aggregation.first_incremental", incremental=True)
        client.materialize(fed.api.serving)
    return fed


def _repeated_setup(client, inputs, repeats, timings, *, first_incremental):
    """Set up ``repeats`` times; keep the last federation."""
    resources = site_resources()
    fed = None
    for _ in range(repeats):
        fed = None  # free the previous set-up before the next one's collection
        fed = timings.setup(lambda: _setup_loaded(
            client, inputs, resources, first_incremental=first_incremental
        ))
    return fed


def run_nightly(inputs: Inputs, rounds: int, tracer, ledger: Ledger,
                *, setup_repeats: int) -> Result:
    """Daily cycles over a six-month backlog."""
    timings = Timings(tracer)
    client = Client(tracer, ledger, timings.meter)
    setup = Client(tracer, ledger, timings.meter)
    fed = _repeated_setup(
        setup, inputs, setup_repeats, timings, first_incremental=True
    )
    client.fact_marks = _fact_rows(fed.hub)
    client.full_builds = setup.full_builds
    feeds = inputs.loose
    hub = fed.hub
    for day in range(rounds):
        def one_day(day=day) -> None:
            for (instance, name), site in zip(fed.tight, inputs.sites):
                client.ingest_sacct(instance, site.days[day], name)
            client.ingest_loose(
                fed.loose, list(feeds.storage_days[day]),
                list(feeds.cloud_events[:feeds.cloud_cuts[day]]),
            )
            start = timings.meter.clock()
            client.sync(hub)
            client.ship_loose(hub)
            client.aggregate(hub, "aggregation.incremental", incremental=True)
            client.consistency(hub, strict=False)
            client.call("core.monitor.evaluate", fed.monitor.evaluate_alerts)
            # a loose shipment replaces the member's hub schema object
            fed.api.serving.sources = hub.federated_schemas()
            client.materialize(fed.api.serving)
            client.counters.hub_cycle_s.append(timings.meter.clock() - start)

        timings.round(one_day)
        client.check_conservation(hub)
    hub_rows = _hub_rows(hub)
    client.check_rebuild(hub)
    return Result(timings, client.counters, hub_rows)


# -- dashboard --------------------------------------------------------------------


def read_catalogue() -> list[str]:
    """Every distinct dashboard read: realm x metric x group_by x period x
    window x view x page.  The entries without the page (what the query
    cache keys on) outnumber ``QueryCache``'s 512 slots two to one."""
    windows = [
        (YEAR_START, BACKLOG_END),  # first half
        (ts(2017, 4, 1), BACKLOG_END),  # second quarter
        (ts(2017, 6, 1), BACKLOG_END + 30 * SECONDS_PER_DAY),  # recent + new days
        (YEAR_START, BACKLOG_END + 30 * SECONDS_PER_DAY),  # year to date
    ]
    pages = [(0, None), (0, 10), (10, 10)]
    shapes = {
        "jobs": (
            ["cpu_hours", "xdsu", "n_jobs_ended", "avg_wait_hours", "node_hours",
             "avg_job_size"],
            [None, "resource", "queue", "application", "pi", "jobsize_level"],
            ["day", "month", "quarter"],
        ),
        "storage": (
            ["physical_usage_tb", "file_count", "quota_utilization"],
            [None, "filesystem", "resource_type"],
            ["month", "quarter"],
        ),
        "cloud": (
            ["core_hours", "n_vms_running", "avg_cores_per_vm"],
            [None, "project", "memory_level"],
            ["month", "quarter"],
        ),
    }
    out = []
    for realm, (metrics, groups, periods) in shapes.items():
        for metric, group, period, (start, end), view in itertools.product(
            metrics, groups, periods, windows, ("timeseries", "aggregate")
        ):
            for offset, limit in pages:
                params = {
                    "realm": realm, "metric": metric, "start": start, "end": end,
                    "period": period, "view": view,
                }
                if group:
                    params["group_by"] = group
                params["offset"] = offset
                if limit is not None:
                    params["limit"] = limit
                chart = len(out) % CHART_EVERY == CHART_EVERY - 1
                route = "/chart" if chart else "/query"
                out.append(f"{route}?{urllib.parse.urlencode(params)}")
    return out


def read_stream(seed: int, n: int, catalogue: list[str]) -> list[str]:
    """A Zipf-skewed request stream (``ZIPF_EXPONENT``) over a seeded ranking.

    Ranks interleave the (realm, period) strata in a fixed order and the
    seed shuffles the requests within each stratum, so every seed puts the
    same mix of cheap and expensive queries at the top of the ranking.
    """
    rng = np.random.default_rng([seed, 0xDA5B])
    strata: dict[tuple[str, str], list[str]] = {}
    for path in catalogue:
        params = urllib.parse.parse_qs(path.split("?", 1)[1])
        strata.setdefault((params["realm"][0], params["period"][0]), []).append(path)
    shuffled = [
        [group[i] for i in rng.permutation(len(group))]
        for _, group in sorted(strata.items())
    ]
    ranking = [
        group[i]
        for i in range(max(len(g) for g in shuffled))
        for group in shuffled
        if i < len(group)
    ]
    weights = 1.0 / np.arange(1, len(ranking) + 1) ** ZIPF_EXPONENT
    picks = rng.choice(len(ranking), size=n, p=weights / weights.sum())
    return [ranking[i] for i in picks]


def run_dashboard(inputs: Inputs, rounds: int, tracer, ledger: Ledger, seed: int,
                  *, setup_repeats: int) -> Result:
    """Zipf-skewed reads beside periodic small writes."""
    timings = Timings(tracer)
    client = Client(tracer, ledger, timings.meter)
    setup = Client(tracer, ledger, timings.meter)
    fed = _repeated_setup(
        setup, inputs, setup_repeats, timings, first_incremental=False
    )
    client.fact_marks = _fact_rows(fed.hub)
    client.full_builds = setup.full_builds
    hub, api = fed.hub, fed.api
    uncached = XdmodApi(REALMS, api.sources, cache=False)
    stream = read_stream(seed, rounds * READS_PER_WRITE, read_catalogue())
    hits = 0
    for r in range(rounds):
        pending: list[tuple[str, bytes]] = []

        def reads(r=r) -> None:
            nonlocal hits
            for path in stream[r * READS_PER_WRITE:(r + 1) * READS_PER_WRITE]:
                start = client.meter.clock()
                response = client.call("ui.rest.read", api.handle_http, path, {})
                elapsed = client.meter.clock() - start
                status = response[0] if response else 0
                cache = response[3].get("X-Cache", "none") if response else "none"
                ok = status == 200
                client.ledger.record("check.read_status", ok, str(status),
                                     f"{path} -> {status}")
                # a failed read misses any latency limit
                client.counters.reads.append((elapsed if ok else math.inf, cache))
                if ok and cache == "hit":
                    hits += 1
                    if hits % IDENTITY_SAMPLE == 0:
                        pending.append((path, response[2]))

        def write(r=r) -> None:
            instance, name = fed.tight[r % 3]
            client.ingest_sacct(instance, inputs.sites[r % 3].days[r // 3], name)
            client.sync(hub)
            client.aggregate(hub, "aggregation.incremental", incremental=True)
            client.materialize(api.serving)

        read_wall, read_segments = timings.part(reads)
        # cached bodies are compared before the write step changes the data
        for path, body in pending:
            base = uncached.handle_http(path, {})
            client.ledger.record(
                "check.cache_identity", base[0] == 200 and base[2] == body, "",
                f"{path}: cached body differs from an uncached recompute",
            )
        write_wall, write_segments = timings.part(write)
        client.counters.write_s.append(write_wall)
        timings.add_round(read_wall + write_wall, read_segments, write_segments)
        client.consistency(hub, strict=False)
        client.check_conservation(hub)
    hub_rows = _hub_rows(hub)
    client.check_rebuild(hub)
    evictions = hub.obs.registry.value("serving_cache_evictions_total") or 0
    return Result(timings, client.counters, hub_rows, int(evictions))
