"""The aggregation kernel: columnar builders for every ``agg_*`` table.

The nightly aggregation step is the hottest path in the system: at
federation-hub scale every member's raw facts are re-binned for every
period.  The builders here are the only code that computes aggregate
rows.  They read the warehouse's cached columnar views
(:meth:`repro.warehouse.Table.column_array`) and bin them with vectorized
group-index reductions (``np.lexsort`` + ``np.add.reduceat``, the pattern
:mod:`repro.warehouse.query` already uses for grouped sums);
:mod:`repro.aggregation.engine` decides which tables to build and writes
the rows.

Multi-period apportionment is vectorized by expanding each fact into one
row per overlapped period (``np.repeat`` over per-fact period counts) and
reducing the expanded contribution table in one pass.  A pure-Python
reference builder per realm lives with the tests, which check these
builders against it row-for-row.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..timeutil import SECONDS_PER_HOUR, period_bounds, period_label
from ..warehouse import Schema

__all__ = [
    "build_job_rows",
    "build_storage_rows",
    "build_cloud_rows",
    "group_reduce",
]


def group_reduce(
    keys: Sequence[np.ndarray],
    measures: dict[str, np.ndarray],
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Grouped sum of ``measures`` over composite integer ``keys``.

    ``keys`` are equal-length int arrays forming the composite group key;
    the result is ``(unique_key_columns, {name: per-group sums})`` with
    groups in lexicographic key order.  This is the ``np.add.reduceat``
    reduction at the heart of every columnar aggregation path.
    """
    n = len(keys[0])
    if n == 0:
        return [k[:0] for k in keys], {m: v[:0] for m, v in measures.items()}
    order = np.lexsort(tuple(reversed(list(keys))))
    sorted_keys = [np.asarray(k)[order] for k in keys]
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for k in sorted_keys:
        boundary[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(boundary)
    uniques = [k[starts] for k in sorted_keys]
    sums = {
        name: np.add.reduceat(np.asarray(v, dtype=np.float64)[order], starts)
        for name, v in measures.items()
    }
    return uniques, sums


def _distinct_count(keys: Sequence[np.ndarray], member: np.ndarray) -> dict[tuple, int]:
    """Count distinct ``member`` values per composite key."""
    uniq, _ = group_reduce(
        list(keys) + [member], {"one": np.ones(len(member))}
    )
    group_cols = uniq[:-1]
    out_keys, sums = group_reduce(group_cols, {"one": np.ones(len(uniq[0]))})
    return {
        tuple(int(c[i]) for c in out_keys): int(sums["one"][i])
        for i in range(len(out_keys[0]))
    }


def _expand_periods(
    start: np.ndarray, end: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``[start, end)`` intervals into one row per overlapped period.

    Returns ``(source_idx, period_idx, overlap_seconds)`` — the np.repeat
    expansion that replaces the per-fact ``period_range`` Python loop.
    All intervals must satisfy ``end > start``.
    """
    ps = np.searchsorted(bounds, start, side="right") - 1
    pe = np.searchsorted(bounds, end - 1, side="right") - 1
    counts = pe - ps + 1
    total = int(counts.sum())
    src = np.repeat(np.arange(len(start)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    period_idx = ps[src] + (np.arange(total) - first)
    overlap = (
        np.minimum(end[src], bounds[period_idx + 1])
        - np.maximum(start[src], bounds[period_idx])
    )
    return src, period_idx, overlap


def _factorize(*object_arrays: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Shared-code-space factorization of several object (string) arrays.

    Returns ``(labels, [code_arrays...])`` where every code indexes into
    one common ``labels`` array.
    """
    lengths = [len(a) for a in object_arrays]
    merged = np.concatenate([a.astype(object) for a in object_arrays])
    labels, inverse = np.unique(merged.astype(str), return_inverse=True)
    codes: list[np.ndarray] = []
    at = 0
    for n in lengths:
        codes.append(inverse[at:at + n].astype(np.int64))
        at += n
    return labels, codes


# -- jobs realm -------------------------------------------------------------


def _count_rows_built(obs: Any, realm: str, period: str, n: int) -> None:
    """Publish one ``aggregation_rows_built_total`` bump per build."""
    if obs is None:
        return
    obs.registry.counter(
        "aggregation_rows_built_total",
        "Aggregate rows produced by the columnar builders",
        ("realm", "period"),
    ).labels(realm=realm, period=period).inc(n)


def build_job_rows(
    schema: Schema, config: Any, period: str, *, obs: Any = None
) -> list[dict[str, Any]]:
    """Rows of ``agg_job_<period>`` in primary-key order."""
    table = schema.table("fact_job")
    if len(table) == 0:
        return []
    c = table.column_arrays([
        "resource_id", "person_id", "pi_id", "app_id", "queue_id",
        "start_ts", "end_ts", "walltime_s", "wait_s", "cores",
        "cpu_hours", "node_hours", "xdsu",
    ])
    start, end = c["start_ts"], c["end_ts"]
    wall = c["walltime_s"].astype(np.float64)
    wl = config.walltime_levels.codes_of(wall)
    sz = config.jobsize_levels.codes_of(c["cores"])
    dims = [c["resource_id"], c["person_id"], c["pi_id"], c["app_id"], c["queue_id"], wl, sz]

    lo = int(min(start.min(), end.min()))
    hi = int(max(start.max(), end.max()))
    bounds = np.asarray(period_bounds(period, lo, hi), dtype=np.int64)

    def p_of(t: np.ndarray) -> np.ndarray:
        return np.searchsorted(bounds, t, side="right") - 1

    measure_names = (
        "n_jobs_ended", "n_jobs_started", "cpu_hours", "node_hours",
        "xdsu", "wall_hours", "wait_hours",
    )
    key_chunks: list[list[np.ndarray]] = []
    measure_chunks: list[dict[str, np.ndarray]] = []

    def contribute(p: np.ndarray, dim_arrays: list[np.ndarray], **values: np.ndarray) -> None:
        n = len(p)
        zeros = np.zeros(n)
        key_chunks.append([p] + dim_arrays)
        measure_chunks.append({m: values.get(m, zeros) for m in measure_names})

    n = len(start)
    ones = np.ones(n)
    # counts: end / start attribution
    contribute(p_of(end), dims, n_jobs_ended=ones)
    contribute(
        p_of(start), dims,
        n_jobs_started=ones, wait_hours=c["wait_s"] / SECONDS_PER_HOUR,
    )
    # usage: apportion across overlapped periods
    spanned = (wall > 0) & (end > start)
    if spanned.any():
        idx = np.flatnonzero(spanned)
        src, p, overlap = _expand_periods(start[idx], end[idx], bounds)
        frac = overlap / wall[idx][src]
        contribute(
            p, [d[idx][src] for d in dims],
            cpu_hours=c["cpu_hours"][idx][src] * frac,
            node_hours=c["node_hours"][idx][src] * frac,
            xdsu=c["xdsu"][idx][src] * frac,
            wall_hours=overlap / SECONDS_PER_HOUR,
        )
    # zero-length jobs: full usage attributes to the end period
    if not spanned.all():
        idx = np.flatnonzero(~spanned)
        contribute(
            p_of(end[idx]), [d[idx] for d in dims],
            cpu_hours=c["cpu_hours"][idx],
            node_hours=c["node_hours"][idx],
            xdsu=c["xdsu"][idx],
            wall_hours=wall[idx] / SECONDS_PER_HOUR,
        )

    keys = [np.concatenate([chunk[i] for chunk in key_chunks])
            for i in range(len(key_chunks[0]))]
    measures = {m: np.concatenate([chunk[m] for chunk in measure_chunks])
                for m in measure_names}
    uniq, sums = group_reduce(keys, measures)

    wl_labels = config.walltime_levels.coded_labels
    sz_labels = config.jobsize_levels.coded_labels
    rows: list[dict[str, Any]] = []
    for i in range(len(uniq[0])):
        p_start = int(bounds[uniq[0][i]])
        rows.append({
            "period_start": p_start,
            "period_label": period_label(period, p_start),
            "resource_id": int(uniq[1][i]),
            "person_id": int(uniq[2][i]),
            "pi_id": int(uniq[3][i]),
            "app_id": int(uniq[4][i]),
            "queue_id": int(uniq[5][i]),
            "walltime_level": wl_labels[int(uniq[6][i])],
            "jobsize_level": sz_labels[int(uniq[7][i])],
            "n_jobs_ended": int(round(sums["n_jobs_ended"][i])),
            "n_jobs_started": int(round(sums["n_jobs_started"][i])),
            "cpu_hours": float(sums["cpu_hours"][i]),
            "node_hours": float(sums["node_hours"][i]),
            "xdsu": float(sums["xdsu"][i]),
            "wall_hours": float(sums["wall_hours"][i]),
            "wait_hours": float(sums["wait_hours"][i]),
        })
    rows.sort(key=_job_row_key)
    _count_rows_built(obs, "jobs", period, len(rows))
    return rows


def _job_row_key(row: dict[str, Any]) -> tuple:
    """Primary-key order (labels sort as strings)."""
    return (
        row["period_start"], row["resource_id"], row["person_id"],
        row["pi_id"], row["app_id"], row["queue_id"],
        row["walltime_level"], row["jobsize_level"],
    )


# -- storage realm ----------------------------------------------------------


def build_storage_rows(
    schema: Schema, config: Any, period: str, *, obs: Any = None
) -> list[dict[str, Any]]:
    """Rows of ``agg_storage_<period>`` in primary-key order.

    ``config`` is unused (storage has no levels); it keeps the signature
    of the other realms' kernels.
    """
    table = schema.table("fact_storage")
    if len(table) == 0:
        return []
    c = table.column_arrays([
        "ts", "resource_id", "filesystem", "resource_type", "person_id",
        "file_count", "logical_usage_gb", "physical_usage_gb",
        "soft_quota_gb", "hard_quota_gb",
    ])
    ts_, rid = c["ts"], c["resource_id"]
    fs_labels, (fs,) = _factorize(c["filesystem"])
    soft = np.asarray(c["soft_quota_gb"], dtype=np.float64)
    hard = np.asarray(c["hard_quota_gb"], dtype=np.float64)
    has_quota = ~np.isnan(soft)
    logical = np.asarray(c["logical_usage_gb"], dtype=np.float64)
    quota_util = np.zeros(len(soft))
    positive = has_quota & (soft > 0)
    quota_util[positive] = logical[positive] / soft[positive]

    bounds = np.asarray(
        period_bounds(period, int(ts_.min()), int(ts_.max())), dtype=np.int64
    )
    p_all = np.searchsorted(bounds, ts_, side="right") - 1

    # last-snapshot-wins resource_type per (resource, filesystem)
    meta: dict[tuple[int, int], Any] = {}
    for r, f, t in zip(rid.tolist(), fs.tolist(), c["resource_type"].tolist()):
        meta[(int(r), int(f))] = t

    # stage 1: collapse per-timestamp totals across users
    ts_keys, ts_sums = group_reduce(
        [ts_, rid, fs],
        {
            "file_count": c["file_count"].astype(np.float64),
            "logical_gb": logical,
            "physical_gb": np.asarray(c["physical_usage_gb"], dtype=np.float64),
            "quota_util": quota_util,
            "quota_n": has_quota.astype(np.float64),
            "soft_quota_gb": np.where(has_quota, soft, 0.0),
            "hard_quota_gb": np.where(np.isnan(hard), 0.0, hard),
        },
    )
    # stage 2: average the per-timestamp totals within each period
    p_ts = np.searchsorted(bounds, ts_keys[0], side="right") - 1
    n_ts = len(ts_keys[0])
    period_keys, period_sums = group_reduce(
        [p_ts, ts_keys[1], ts_keys[2]],
        {**ts_sums, "n_snapshots": np.ones(n_ts)},
    )
    user_counts = _distinct_count([p_all, rid, fs], c["person_id"])

    rows: list[dict[str, Any]] = []
    for i in range(len(period_keys[0])):
        p_start = int(bounds[period_keys[0][i]])
        r = int(period_keys[1][i])
        f = int(period_keys[2][i])
        n = period_sums["n_snapshots"][i]
        rows.append({
            "period_start": p_start,
            "period_label": period_label(period, p_start),
            "resource_id": r,
            "filesystem": str(fs_labels[f]),
            "resource_type": meta[(r, f)],
            "avg_file_count": float(period_sums["file_count"][i] / n),
            "avg_logical_gb": float(period_sums["logical_gb"][i] / n),
            "avg_physical_gb": float(period_sums["physical_gb"][i] / n),
            "sum_quota_utilization": float(period_sums["quota_util"][i]),
            "n_quota_samples": int(round(period_sums["quota_n"][i])),
            "avg_soft_quota_gb": float(period_sums["soft_quota_gb"][i] / n),
            "avg_hard_quota_gb": float(period_sums["hard_quota_gb"][i] / n),
            "user_count": user_counts[(int(period_keys[0][i]), r, f)],
            "n_snapshots": int(round(n)),
        })
    rows.sort(key=lambda r: (r["period_start"], r["resource_id"], r["filesystem"]))
    _count_rows_built(obs, "storage", period, len(rows))
    return rows


# -- cloud realm ------------------------------------------------------------


def build_cloud_rows(
    schema: Schema, config: Any, period: str, *, obs: Any = None
) -> list[dict[str, Any]]:
    """Rows of ``agg_cloud_<period>`` in primary-key order."""
    iv_table = schema.table("fact_vm_interval")
    vm_table = schema.table("fact_vm") if schema.has_table("fact_vm") else None
    n_iv = len(iv_table)
    n_vm = len(vm_table) if vm_table is not None else 0
    if n_iv == 0 and n_vm == 0:
        return []
    levels = config.vm_memory_levels

    iv = iv_table.column_arrays([
        "resource_id", "vm_id", "project", "os", "submission_venue",
        "state", "start_ts", "end_ts", "vcpus", "mem_gb", "disk_gb",
    ]) if n_iv else None
    vm = vm_table.column_arrays([
        "resource_id", "project", "os", "submission_venue",
        "provision_ts", "terminate_ts", "last_vcpus", "last_mem_gb",
        "n_state_changes",
    ]) if n_vm else None

    empty = np.empty(0, dtype=object)
    proj_labels, (iv_proj, vm_proj) = _factorize(
        iv["project"] if iv else empty, vm["project"] if vm else empty)
    os_labels, (iv_os, vm_os) = _factorize(
        iv["os"] if iv else empty, vm["os"] if vm else empty)
    venue_labels, (iv_venue, vm_venue) = _factorize(
        iv["submission_venue"] if iv else empty,
        vm["submission_venue"] if vm else empty)
    iv_mem = levels.codes_of(iv["mem_gb"]) if iv else np.empty(0, dtype=np.int64)
    vm_mem = levels.codes_of(vm["last_mem_gb"]) if vm else np.empty(0, dtype=np.int64)

    ts_candidates: list[int] = []
    if iv is not None:
        ts_candidates += [int(iv["start_ts"].min()), int(iv["end_ts"].max())]
    if vm is not None:
        prov = vm["provision_ts"]
        ts_candidates += [int(prov.min()), int(prov.max())]
        term = np.asarray(vm["terminate_ts"], dtype=np.float64)
        live = term[~np.isnan(term)]
        if len(live):
            ts_candidates += [int(live.min()), int(live.max())]
    bounds = np.asarray(
        period_bounds(period, min(ts_candidates), max(ts_candidates)),
        dtype=np.int64,
    )

    def p_of(t: np.ndarray) -> np.ndarray:
        return np.searchsorted(bounds, t, side="right") - 1

    measure_names = (
        "core_hours", "wall_hours", "mem_gb_hours", "disk_gb_hours",
        "stopped_hours", "paused_hours", "n_state_changes",
        "n_vms_started", "n_vms_ended", "total_cores",
    )
    key_chunks: list[list[np.ndarray]] = []
    measure_chunks: list[dict[str, np.ndarray]] = []

    def contribute(p, dim_arrays, **values):
        zeros = np.zeros(len(p))
        key_chunks.append([p] + list(dim_arrays))
        measure_chunks.append({m: values.get(m, zeros) for m in measure_names})

    active_keys: list[np.ndarray] = []  # columns: p, rid, proj, os, venue, mem, vm_id

    if iv is not None:
        iv_dims = [iv["resource_id"], iv_proj, iv_os, iv_venue, iv_mem]
        start, end = iv["start_ts"], iv["end_ts"]
        state = iv["state"]
        spanned = end > start
        if spanned.any():
            idx = np.flatnonzero(spanned)
            src, p, overlap = _expand_periods(start[idx], end[idx], bounds)
            hours = overlap / SECONDS_PER_HOUR
            st = state[idx][src]
            running = st == "running"
            stopped = st == "stopped"
            paused = ~running & ~stopped
            vcpus = iv["vcpus"][idx][src].astype(np.float64)
            mem_gb = np.asarray(iv["mem_gb"][idx][src], dtype=np.float64)
            disk_gb = np.asarray(iv["disk_gb"][idx][src], dtype=np.float64)
            dim_exp = [d[idx][src] for d in iv_dims]
            contribute(
                p, dim_exp,
                core_hours=np.where(running, vcpus * hours, 0.0),
                wall_hours=np.where(running, hours, 0.0),
                mem_gb_hours=np.where(running, mem_gb * hours, 0.0),
                disk_gb_hours=np.where(running, disk_gb * hours, 0.0),
                stopped_hours=np.where(stopped, hours, 0.0),
                paused_hours=np.where(paused, hours, 0.0),
            )
            if running.any():
                r = np.flatnonzero(running)
                active_keys.append(np.stack(
                    [p[r]] + [d[r] for d in dim_exp]
                    + [iv["vm_id"][idx][src][r]]
                ))
        # zero-length running intervals: the VM was active in the period
        # containing start_ts even though it accrued no hours
        instant = (end == start) & (state == "running")
        if instant.any():
            idx = np.flatnonzero(instant)
            p = p_of(start[idx])
            dim_z = [d[idx] for d in iv_dims]
            contribute(p, dim_z)  # all-zero measures: materialize the group
            active_keys.append(np.stack([p] + dim_z + [iv["vm_id"][idx]]))

    if vm is not None:
        vm_dims = [vm["resource_id"], vm_proj, vm_os, vm_venue, vm_mem]
        ones = np.ones(n_vm)
        contribute(
            p_of(vm["provision_ts"]), vm_dims,
            n_vms_started=ones,
            total_cores=vm["last_vcpus"].astype(np.float64),
            n_state_changes=vm["n_state_changes"].astype(np.float64),
        )
        term = np.asarray(vm["terminate_ts"], dtype=np.float64)
        ended = ~np.isnan(term)
        if ended.any():
            idx = np.flatnonzero(ended)
            contribute(
                p_of(term[idx].astype(np.int64)),
                [d[idx] for d in vm_dims],
                n_vms_ended=np.ones(len(idx)),
            )

    if not key_chunks:
        return []
    keys = [np.concatenate([chunk[i] for chunk in key_chunks])
            for i in range(len(key_chunks[0]))]
    measures = {m: np.concatenate([chunk[m] for chunk in measure_chunks])
                for m in measure_names}
    uniq, sums = group_reduce(keys, measures)

    active_counts: dict[tuple, int] = {}
    if active_keys:
        merged = np.concatenate(active_keys, axis=1).astype(np.int64)
        active_counts = _distinct_count(list(merged[:-1]), merged[-1])

    mem_labels = levels.coded_labels
    rows: list[dict[str, Any]] = []
    for i in range(len(uniq[0])):
        p_start = int(bounds[uniq[0][i]])
        key = tuple(int(uniq[k][i]) for k in range(6))
        rows.append({
            "period_start": p_start,
            "period_label": period_label(period, p_start),
            "resource_id": key[1],
            "project": str(proj_labels[key[2]]),
            "os": str(os_labels[key[3]]),
            "submission_venue": str(venue_labels[key[4]]),
            "memory_level": mem_labels[key[5]],
            "core_hours": float(sums["core_hours"][i]),
            "wall_hours": float(sums["wall_hours"][i]),
            "mem_gb_hours": float(sums["mem_gb_hours"][i]),
            "disk_gb_hours": float(sums["disk_gb_hours"][i]),
            "stopped_hours": float(sums["stopped_hours"][i]),
            "paused_hours": float(sums["paused_hours"][i]),
            "n_state_changes": int(round(sums["n_state_changes"][i])),
            "n_vms_active": active_counts.get(key, 0),
            "n_vms_started": int(round(sums["n_vms_started"][i])),
            "n_vms_ended": int(round(sums["n_vms_ended"][i])),
            "total_cores": float(sums["total_cores"][i]),
        })
    rows.sort(key=lambda r: (
        r["period_start"], r["resource_id"], r["project"], r["os"],
        r["submission_venue"], r["memory_level"],
    ))
    _count_rows_built(obs, "cloud", period, len(rows))
    return rows
