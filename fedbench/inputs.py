"""Workload inputs, generated from the workload seed before any timing.

The simulators are the load generator, not a measured layer: every input a
workload needs is produced here, up front, and handed to the federation as
raw data (sacct log text, storage snapshot documents, cloud event
documents).  Every generator seed is derived from the workload seed, so the
same ``--seed`` always gives the same inputs.

Each site's whole window comes from ONE ``generate()`` call that is then
split by job end time.  The workload generator restarts job ids on every
call, and the warehouse keys jobs by (resource, job id), so generating the
backlog and each day separately would make later days collide with the
backlog and be silently deduplicated.

Generated inputs are cached as JSON under ``fedbench/.cache``, keyed by the
generation parameters and by the source of the simulators and of this file,
so a change to either regenerates them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

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
from repro.timeutil import SECONDS_PER_DAY, ts

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(HERE, ".cache")

#: Figure-1 node-count multiplier.  One year at 1.0 is ~27k jobs; 0.2 keeps
#: a whole backfill near two seconds on two CPUs so a run holds several.
SCALE = 0.2
YEAR_START = ts(2017, 1, 1)
YEAR_END = ts(2018, 1, 1)
#: the nightly and dashboard backlog: six months of 2017
BACKLOG_END = ts(2017, 7, 1)
#: the loose site's feeds: weekly storage snapshots (the simulator's
#: cadence) and a cumulative cloud dump delivered every day
STORAGE_USERS = 10
CLOUD_VMS_PER_DAY = 0.5


@dataclass(frozen=True)
class SiteLogs:
    """One tight site's raw sacct input: a backlog plus one log per day."""

    name: str
    backlog: str
    days: tuple[str, ...]
    backlog_jobs: int
    day_jobs: tuple[int, ...]


@dataclass(frozen=True)
class LooseFeeds:
    """The loose site's storage snapshots and cumulative cloud feed.

    ``cloud_cuts[d]`` is how many events (in time order) the cumulative
    cloud dump delivered after day ``d`` holds; the backlog dump holds
    ``cloud_backlog`` events.
    """

    storage_backlog: tuple[dict, ...]
    storage_days: tuple[tuple[dict, ...], ...]
    cloud_events: tuple[dict, ...]
    cloud_backlog: int
    cloud_cuts: tuple[int, ...]


@dataclass(frozen=True)
class Inputs:
    sites: tuple[SiteLogs, ...]
    loose: LooseFeeds | None

    def sizes(self) -> dict[str, int]:
        """Input sizes for the provenance stamp."""
        jobs = sum(s.backlog_jobs + sum(s.day_jobs) for s in self.sites)
        out = {"jobs": jobs, "events": 0, "documents": 0}
        if self.loose is not None:
            out["events"] = len(self.loose.cloud_events)
            out["documents"] = len(self.loose.storage_backlog) + sum(
                len(d) for d in self.loose.storage_days
            )
        return out


def derive_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent generator seeds from one workload seed."""
    state = np.random.SeedSequence(seed).generate_state(n)
    return [int(s) for s in state]


def _split_by_day(records, backlog_end: int, days: int):
    backlog = [r for r in records if r.end_ts < backlog_end]
    per_day = [
        [
            r for r in records
            if backlog_end + d * SECONDS_PER_DAY
            <= r.end_ts < backlog_end + (d + 1) * SECONDS_PER_DAY
        ]
        for d in range(days)
    ]
    return backlog, per_day


def _tight_sites(seeds: list[int], backlog_end: int, days: int) -> tuple[SiteLogs, ...]:
    window_end = backlog_end + days * SECONDS_PER_DAY
    out = []
    for (name, preset), seed in zip(sorted(figure1_sites(scale=SCALE).items()), seeds):
        config = dataclasses.replace(preset.workload, seed=seed)
        records = simulate_resource(
            preset.resource, WorkloadGenerator(config).generate(YEAR_START, window_end)
        )
        backlog, per_day = _split_by_day(records, backlog_end, days)
        out.append(SiteLogs(
            name=name,
            backlog=to_sacct_log(backlog),
            days=tuple(to_sacct_log(day) for day in per_day),
            backlog_jobs=len(backlog),
            day_jobs=tuple(len(day) for day in per_day),
        ))
    return tuple(out)


def _loose_feeds(storage_seed: int, cloud_seed: int, days: int) -> LooseFeeds:
    window_end = BACKLOG_END + days * SECONDS_PER_DAY
    storage = StorageSimulator(StorageConfig(seed=storage_seed, n_users=STORAGE_USERS))
    docs = list(storage.generate(YEAR_START, window_end))
    storage_days = tuple(
        tuple(
            d for d in docs
            if BACKLOG_END + i * SECONDS_PER_DAY <= d["ts"]
            < BACKLOG_END + (i + 1) * SECONDS_PER_DAY
        )
        for i in range(days)
    )
    events = CloudSimulator(CloudConfig(
        seed=cloud_seed, vms_per_day=CLOUD_VMS_PER_DAY,
    )).generate(YEAR_START, window_end)
    stamps = [e["ts"] for e in events]

    def cut(end: int) -> int:
        return int(np.searchsorted(stamps, end, side="left"))

    return LooseFeeds(
        storage_backlog=tuple(d for d in docs if d["ts"] < BACKLOG_END),
        storage_days=storage_days,
        cloud_events=tuple(events),
        cloud_backlog=cut(BACKLOG_END),
        cloud_cuts=tuple(
            cut(BACKLOG_END + (i + 1) * SECONDS_PER_DAY) for i in range(days)
        ),
    )


def generate(workload: str, seed: int, days: int) -> Inputs:
    """Build a workload's inputs (no cache)."""
    seeds = derive_seeds(seed, 5)
    if workload == "backfill":
        return Inputs(_tight_sites(seeds[:3], YEAR_END, 0), None)
    return Inputs(
        _tight_sites(seeds[:3], BACKLOG_END, days),
        _loose_feeds(seeds[3], seeds[4], days),
    )


# -- on-disk cache -----------------------------------------------------------


def _source_digest() -> str:
    import repro.simulators as sims

    digest = hashlib.sha256()
    sim_dir = os.path.dirname(sims.__file__)
    paths = sorted(
        os.path.join(sim_dir, f) for f in os.listdir(sim_dir) if f.endswith(".py")
    )
    paths.append(os.path.abspath(__file__))
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _to_json(inputs: Inputs) -> dict[str, Any]:
    return dataclasses.asdict(inputs)


def _from_json(payload: dict[str, Any]) -> Inputs:
    sites = tuple(
        SiteLogs(
            name=s["name"],
            backlog=s["backlog"],
            days=tuple(s["days"]),
            backlog_jobs=s["backlog_jobs"],
            day_jobs=tuple(s["day_jobs"]),
        )
        for s in payload["sites"]
    )
    loose = payload["loose"]
    if loose is not None:
        loose = LooseFeeds(
            storage_backlog=tuple(loose["storage_backlog"]),
            storage_days=tuple(tuple(d) for d in loose["storage_days"]),
            cloud_events=tuple(loose["cloud_events"]),
            cloud_backlog=loose["cloud_backlog"],
            cloud_cuts=tuple(loose["cloud_cuts"]),
        )
    return Inputs(sites, loose)


def load(workload: str, seed: int, days: int) -> Inputs:
    """The workload's inputs, from the cache when it holds them."""
    key = hashlib.sha256(json.dumps(
        [workload, seed, days, SCALE, _source_digest()]
    ).encode()).hexdigest()[:24]
    path = os.path.join(CACHE_DIR, f"{workload}-{seed}-{key}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return _from_json(json.load(fh))
    except FileNotFoundError:
        pass
    inputs = generate(workload, seed, days)
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_to_json(inputs), fh)
    os.replace(tmp, path)
    return inputs
