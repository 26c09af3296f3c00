"""Federated telemetry: satellite registry shipments into a fleet TSDB.

The paper's premise is that a hub monitors affiliated resources it does
not operate — yet the observability plane of PRs 4-5 is strictly
per-process: each satellite's :class:`~repro.obs.metrics.MetricsRegistry`
is invisible to the hub.  This module closes that gap with a
remote-write shaped flow, the same model the Open Science Data
Federation runs in production (per-site collectors shipping into one
central monitoring stack):

``TelemetryShipper``
    Lives on the satellite side of a federation member.  Each call to
    :meth:`TelemetryShipper.snapshot` walks the satellite registry's
    exposition samples (pinned byte-compatible with a strict
    render/parse round trip, so the shipment carries exactly what a
    scrape would see, histogram buckets included) and wraps them in a
    compact, checksum-verified, sequence-numbered JSON document.

``FleetTSDB``
    Lives on the hub.  :meth:`FleetTSDB.ingest` verifies the checksum
    and merges the samples into an internal
    :class:`~repro.obs.history.MetricsHistory` under an added ``member``
    label, so the history's PromQL-flavoured vocabulary (``last``,
    ``increase``, ``rate``, ``quantile_over_time``) works unchanged over
    the merged fleet.  Dedup is last-write-wins keyed by the satellite
    scrape sequence: a redelivered shipment (same ``seq`` — retries and
    degraded-mode sync make those routine) is re-observed at the
    original ingest timestamp, which collapses in place instead of
    appending; an out-of-order older ``seq`` is dropped outright.
    Counter resets *inside* shipped values (a satellite restarting)
    are handled downstream by the history's reset-aware ``increase()``.

Staleness: every *new* shipment also appends the synthetic
:data:`SEQ_SERIES` sample (value = ``seq``), which changes on every
fresh delivery and only then — ``age_s`` over it is therefore "seconds
since the member last shipped fresh telemetry", the signal behind the
``fleet_telemetry_stale`` alert rule and ``fleet_stale_members`` in
``GET /health``.  Redeliveries deliberately do not refresh it.

The ``member`` label is reserved: a shipped sample that already carries
one (a regional hub re-shipping its own fleet, say) is re-labelled with
the shipping member's name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

from ..locks import create_lock
from .clock import Clock
from .history import MetricsHistory
from .metrics import MetricsRegistry, _family_of, _fmt, _format_exposition

__all__ = [
    "SEQ_SERIES",
    "SHIPMENT_VERSION",
    "FleetTSDB",
    "MemberTelemetry",
    "ShipmentError",
    "TelemetryShipper",
    "build_shipment",
    "shipment_checksum",
    "shipment_size",
]

#: Shipment document format version; bumped on incompatible changes.
SHIPMENT_VERSION = 1

#: Synthetic per-member series appended on every *new* shipment (value =
#: scrape sequence).  Its ``age_s`` is the fleet staleness signal.
SEQ_SERIES = "fleet_shipment_seq_rows"


class ShipmentError(ValueError):
    """Malformed, version-incompatible, or checksum-failing shipment."""


def _canonical(doc: Mapping) -> str:
    """Canonical JSON encoding: the checksum and size basis."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def shipment_checksum(doc: Mapping) -> str:
    """sha256 over the canonical JSON of everything but ``checksum``."""
    body = {k: v for k, v in doc.items() if k != "checksum"}
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def shipment_size(doc: Mapping) -> int:
    """Wire size of a shipment in bytes (canonical JSON encoding)."""
    return len(_canonical(doc).encode("utf-8"))


def _decode_value(text: str) -> float:
    """Inverse of the Prometheus value spelling used in shipments.

    Python's ``float()`` already accepts the ``+Inf``/``-Inf``/``NaN``
    spellings :func:`repro.obs.metrics._fmt` emits, so the inverse is
    the constructor itself — kept named so the wire contract has an
    explicit decode point.
    """
    return float(text)


def build_shipment(
    registry: MetricsRegistry, *, member: str, seq: int, scraped_at: float
) -> dict:
    """Snapshot ``registry`` into one checksum-verified shipment document.

    The shipment carries exactly the samples a scrape would see —
    histogram ``_bucket``/``_sum``/``_count`` series included — via the
    registry's direct exposition walk
    (:meth:`MetricsRegistry.iter_exposition_samples`, pinned
    byte-compatible with the render/parse round trip by the round-trip
    tests), plus the ``# TYPE`` map.  Values travel as Prometheus value
    spellings (strings), which keeps ``±Inf``/``NaN`` samples alive
    across strict-JSON transports.
    """
    # the walk's own ordering (family name, then label values) is already
    # deterministic, which is all the checksum needs — no global re-sort
    samples = [
        [name, [[k, v] for k, v in labels], _fmt(value)]
        for name, labels, value in registry.iter_exposition_samples()
    ]
    doc: dict = {
        "version": SHIPMENT_VERSION,
        "member": str(member),
        "seq": int(seq),
        "scraped_at": float(scraped_at),
        "types": registry.type_names(),
        "samples": samples,
    }
    doc["checksum"] = shipment_checksum(doc)
    return doc


class TelemetryShipper:
    """Snapshots one satellite's registry into sequenced shipments.

    The hub attaches one shipper per federation member at join time and
    calls :meth:`snapshot` after every healthy sync/loose cycle, so
    telemetry rides the existing replication machinery and inherits its
    retry, circuit-breaker, and degraded-mode behaviour for free.
    """

    def __init__(
        self, registry: MetricsRegistry, *, member: str, clock: Clock
    ) -> None:
        self.registry = registry
        self.member = member
        self.clock = clock
        self.seq = 0
        self.last_shipment: dict | None = None
        self.last_bytes = 0

    def snapshot(self) -> dict:
        """A fresh shipment of the registry's current state (seq + 1)."""
        self.seq += 1
        doc = build_shipment(
            self.registry,
            member=self.member,
            seq=self.seq,
            scraped_at=self.clock.now(),
        )
        self.last_shipment = doc
        self.last_bytes = shipment_size(doc)
        return doc

    def reship(self) -> dict:
        """Redeliver the previous shipment unchanged (same ``seq``)."""
        if self.last_shipment is None:
            return self.snapshot()
        return self.last_shipment


@dataclass
class MemberTelemetry:
    """Hub-side ingest bookkeeping for one member's shipment stream.

    ``series`` accumulates the distinct sample keys the member ever
    shipped (plus the synthetic sequence series), so per-member series
    counts and staleness stay O(1) — the hub records both as gauges on
    every sync cycle, and a scan of the whole fleet history there would
    make the cycle quadratic in fleet size.
    """

    name: str
    last_seq: int = 0
    last_ingest_t: float = 0.0
    last_scraped_at: float = 0.0
    applied: int = 0
    redelivered: int = 0
    duplicates: int = 0
    series: set = field(default_factory=set, repr=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "last_seq": self.last_seq,
            "last_scraped_at": self.last_scraped_at,
            "applied": self.applied,
            "redelivered": self.redelivered,
            "duplicates": self.duplicates,
            "series": len(self.series),
        }


class FleetTSDB:
    """Hub-side TSDB over every member's shipped telemetry.

    Samples live in an internal :class:`MetricsHistory` (exposed as
    ``.history``) keyed by the shipped series plus a ``member`` label, so
    the full history query vocabulary works over the merged fleet; the
    fleet-scoped alert rules and the fleet dashboard query it directly.

    Dedup semantics (see module docstring): per member, ``seq`` below
    the last applied sequence is dropped as a duplicate; ``seq`` equal
    to it is a redelivery and is re-observed at the *original* ingest
    timestamp — same-timestamp samples collapse last-write-wins in
    ``MetricsHistory``, so redelivered counters neither double-count in
    ``increase()`` nor look like counter resets.
    """

    def __init__(
        self, clock: Clock, *, max_samples: int = 1024, enabled: bool = True
    ) -> None:
        self._clock = clock
        self.enabled = enabled
        self.history = MetricsHistory(
            MetricsRegistry(enabled=False), clock, max_samples=max_samples
        )
        self._members: dict[str, MemberTelemetry] = {}
        self._types: dict[str, str] = {SEQ_SERIES: "gauge"}
        self._lock = create_lock("FleetTSDB")  # guards: _members, _types

    # -- ingest ------------------------------------------------------------

    def _validate(self, shipment: Mapping) -> None:
        required = (
            "version", "member", "seq", "scraped_at",
            "types", "samples", "checksum",
        )
        missing = [k for k in required if k not in shipment]
        if missing:
            raise ShipmentError(f"shipment missing fields {missing}")
        if int(shipment["version"]) != SHIPMENT_VERSION:
            raise ShipmentError(
                f"shipment version {shipment['version']!r} unsupported "
                f"(expected {SHIPMENT_VERSION})"
            )
        if shipment["checksum"] != shipment_checksum(shipment):
            raise ShipmentError("shipment checksum mismatch (corrupt payload)")

    def ingest(self, shipment: Mapping) -> str:
        """Merge one shipment; returns the ingest outcome.

        ``"applied"`` (fresh sequence), ``"redelivered"`` (same sequence
        re-observed in place), ``"duplicate"`` (older sequence, dropped)
        or ``"disabled"``.  Raises :class:`ShipmentError` on a malformed
        or checksum-failing document — the caller counts those as
        ``corrupt`` without touching stored series.
        """
        if not self.enabled:
            return "disabled"
        self._validate(shipment)
        member = str(shipment["member"])
        seq = int(shipment["seq"])
        with self._lock:
            state = self._members.get(member)
            if state is None:
                state = self._members.setdefault(member, MemberTelemetry(member))
            if seq < state.last_seq:
                state.duplicates += 1
                return "duplicate"
            redelivery = state.applied > 0 and seq == state.last_seq
            t = state.last_ingest_t if redelivery else float(self._clock.now())
            for name, type_name in shipment["types"].items():
                self._types.setdefault(str(name), str(type_name))
            observe_key = self.history.observe_key
            for name, labels, value_text in shipment["samples"]:
                # the member label is reserved: drop any shipped one,
                # then insert ours keeping the label items sorted
                items = [
                    (str(k), str(v)) for k, v in labels if str(k) != "member"
                ]
                items.append(("member", member))
                items.sort()
                key = (str(name), tuple(items))
                observe_key(key, _decode_value(value_text), now=t)
                state.series.add(key)
            seq_key = (SEQ_SERIES, (("member", member),))
            observe_key(seq_key, float(seq), now=t)
            state.series.add(seq_key)
            if redelivery:
                state.redelivered += 1
                return "redelivered"
            state.applied += 1
            state.last_seq = seq
            state.last_ingest_t = t
            state.last_scraped_at = float(shipment["scraped_at"])
            return "applied"

    # -- queries -----------------------------------------------------------

    def _now(self, at: float | None) -> float:
        return float(self._clock.now() if at is None else at)

    def member_names(self) -> list[str]:
        return sorted(self._members)

    def member_state(self, name: str) -> MemberTelemetry | None:
        return self._members.get(name)

    def last_seq(self, name: str) -> int | None:
        state = self._members.get(name)
        return state.last_seq if state is not None else None

    def staleness(self, name: str, *, at: float | None = None) -> float | None:
        """Seconds since the member last shipped *fresh* telemetry.

        O(1) from ingest bookkeeping (``last_ingest_t`` only moves on an
        applied shipment, never a redelivery) — equal by construction to
        ``history.age_s`` over :data:`SEQ_SERIES`, which the fleet alert
        rules still evaluate, but cheap enough to record as a per-member
        gauge on every sync cycle.
        """
        state = self._members.get(name)
        if state is None or state.applied == 0:
            return None
        return self._now(at) - state.last_ingest_t

    def stale_members(
        self, max_age_s: float, *, at: float | None = None
    ) -> list[str]:
        """Members whose last fresh shipment is older than ``max_age_s``."""
        now = float(self._clock.now() if at is None else at)
        out = []
        for name in self.member_names():
            age = self.staleness(name, at=now)
            if age is not None and age > max_age_s:
                out.append(name)
        return out

    def series_count(self, name: str | None = None) -> int:
        """Stored series, fleet-wide or for one member (O(1) per member)."""
        if name is None:
            return len(self.history.series_keys())
        state = self._members.get(name)
        return len(state.series) if state is not None else 0

    def purge_member(self, name: str) -> int:
        """Forget a departed member: ingest state and every stored series."""
        with self._lock:
            self._members.pop(name, None)
        return self.history.purge_labels(member=name)

    # -- exposition --------------------------------------------------------

    def render_prometheus(self) -> str:
        """Merged fleet exposition: newest value of every member series.

        Served by ``GET /fleet/metrics``.  Types come from the shipped
        ``# TYPE`` maps (first shipment wins); output order is
        deterministic (family name, then sample name and labels).
        """
        samples = []
        for key in self.history.series_keys():
            latest = self.history.last_sample(key)
            if latest is not None:
                samples.append((key[0], key[1], latest[1]))
        families = sorted({_family_of(s[0], self._types) for s in samples})
        headers = {f: (None, self._types.get(f, "untyped")) for f in families}
        return _format_exposition(headers, samples)

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "series": self.series_count(),
            "members": {
                name: self._members[name].to_dict()
                for name in self.member_names()
            },
        }
