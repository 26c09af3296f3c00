"""Federation benchmark: backfill, nightly and dashboard workloads.

Run from the repository root::

    python3 fedbench/run.py --workload nightly --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's spans
off, their times scaled to the reference host speed (``speed.py``).  ``--trace 1`` runs the same schedule twice, untraced and then traced
(one span per layer call), and reports the per-layer metrics: self times
rolled up from the traced pass, read latencies from the untraced one, and
the share of the traced rounds that the spans themselves cost.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Earlier lines carry the provenance stamp, the
metrics by name with their units and sample counts, and every failure by
signature.  A record of the run (and, traced, its spans) is written under
``fedbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("backfill", "nightly", "dashboard")

#: layers timed per round (self time per round of the timed phase)
ROUND_LAYERS = (
    "aggregation.full",
    "aggregation.incremental",
    "core.consistency.check",
    "core.loose.ship",
    "core.replicator.catch_up",
    "core.replicator.sync",
    "etl.slurm.parse",
    "etl.star.ingest",
    "etl.storagefs.ingest",
    "etl.cloudevents.ingest",
    "core.monitor.evaluate",
    "ui.serving.materialize",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` (a failed read) sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit when the tree is a git checkout (read, not spawned)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run_workload(name: str, seed: int, seconds: float, tracer, *, setup_repeats: int):
    """One pass of the workload's schedule."""
    import workloads as w
    from checks import Ledger
    from inputs import load

    rounds = w.rounds_for(name, seconds)
    inputs = load(name, seed, w.days_for(name, rounds))
    ledger = Ledger()
    gc.collect()
    if name == "backfill":
        result = w.run_backfill(inputs, rounds, tracer, ledger)
    elif name == "nightly":
        result = w.run_nightly(inputs, rounds, tracer, ledger, setup_repeats=setup_repeats)
    else:
        result = w.run_dashboard(inputs, rounds, tracer, ledger, seed,
                                 setup_repeats=setup_repeats)
    extra = result.timings.meter.extra_threads
    ledger.record("check.single_client", extra == 0, "",
                  f"{extra} thread(s) ran beside the client while it was timed")
    return inputs, ledger, result


def end_to_end(result) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples).  Times are scaled to the reference
    host speed (``speed.py``)."""
    return {
        "setup_s": (statistics.median(result.setup_s), "s", len(result.setup_s)),
        "round_p50_s": (statistics.median(result.round_s), "s", len(result.round_s)),
        "round_total_s": (math.fsum(result.round_s), "s", len(result.round_s)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }


def read_metrics(result) -> dict[str, tuple[float, str, int]]:
    reads = result.counters.reads
    if not reads:
        return {name: (0.0, unit, 0) for name, unit in (
            ("ui.rest.read_p50_ms", "ms"), ("ui.rest.read_p99_ms", "ms"),
            ("ui.rest.read_hit_ms", "ms"), ("ui.rest.read_miss_ms", "ms"),
            ("ui.serving.hit_ratio", "ratio"), ("ui.serving.stale_ratio", "ratio"),
            ("ui.serving.evictions", "count"), ("ui.serving.write_s", "s"),
        )}
    all_ms = [t * 1e3 for t, _ in reads]
    hit_ms = [t * 1e3 for t, c in reads if c == "hit"]
    miss_ms = [t * 1e3 for t, c in reads if c in ("miss", "stale")]
    return {
        "ui.rest.read_p50_ms": (percentile(all_ms, 50), "ms", len(all_ms)),
        "ui.rest.read_p99_ms": (percentile(all_ms, 99), "ms", len(all_ms)),
        "ui.rest.read_hit_ms": (
            percentile(hit_ms, 50) if hit_ms else 0.0, "ms", len(hit_ms)),
        "ui.rest.read_miss_ms": (
            percentile(miss_ms, 50) if miss_ms else 0.0, "ms", len(miss_ms)),
        "ui.serving.hit_ratio": (len(hit_ms) / len(reads), "ratio", len(reads)),
        "ui.serving.stale_ratio": (
            sum(1 for _, c in reads if c == "stale") / len(reads), "ratio", len(reads)),
        "ui.serving.evictions": (float(result.evictions), "count", 1),
        "ui.serving.write_s": (
            statistics.median(result.counters.write_s), "s",
            len(result.counters.write_s)),
    }


def per_layer(traced, untraced, tracer) -> dict[str, tuple[float, str, int]]:
    from spans import rollup, span_cost_s

    rounds = rollup(tracer.finished, within="bench.round")
    setup = rollup(tracer.finished, within="bench.setup")
    n = len(traced.round_s)
    c = traced.counters

    def self_s(layer: str) -> float:
        totals = rounds.get(layer)
        return totals.self_s if totals else 0.0

    out: dict[str, tuple[float, str, int]] = {}
    for layer in ROUND_LAYERS:
        calls = rounds[layer].calls if layer in rounds else 0
        out[f"{layer}_s"] = (self_s(layer) / n, "s", calls)
    first = setup.get("aggregation.first_incremental")
    out["aggregation.first_incremental_s"] = (
        first.self_s if first else 0.0, "s", first.calls if first else 0)
    out["aggregation.facts_folded_per_new_fact"] = (
        ratio(c.folded, c.new_facts), "ratio", c.new_facts)
    out["core.loose.rows_per_s"] = (
        ratio(c.loose_rows, self_s("core.loose.ship")), "rows/s", c.loose_rows)
    out["core.replicator.events_applied"] = (float(c.events_applied), "count", n)
    out["etl.slurm.jobs_per_s"] = (
        ratio(c.jobs_parsed, self_s("etl.slurm.parse")), "jobs/s", c.jobs_parsed)
    out["etl.star.rows_per_s"] = (
        ratio(c.rows_ingested, self_s("etl.star.ingest")), "rows/s", c.rows_ingested)
    out["etl.cloudevents.deliveries_failed"] = (float(c.cloud_failed), "count", n)
    out["warehouse.binlog.events_per_row"] = (
        ratio(c.binlog_events, c.rows_ingested), "ratio", c.rows_ingested)
    out["warehouse.hub_rows"] = (float(traced.hub_rows), "count", 1)
    out.update(read_metrics(untraced))
    # the spans' own cost, timed against no-op spans in one window: comparing
    # the two passes would measure the host's drift between them instead
    spans_in_rounds = sum(t.calls for t in rounds.values())
    tracing_s = spans_in_rounds * span_cost_s()
    round_wall_s = math.fsum(traced.timings.round_wall_s)
    out["bench.trace_overhead_frac"] = (
        ratio(tracing_s, round_wall_s - tracing_s), "ratio", spans_in_rounds)
    bench_self = rounds["bench.round"].self_s if "bench.round" in rounds else 0.0
    out["bench.unattributed_frac"] = (ratio(bench_self, round_wall_s), "ratio", n)
    return out


def wall_view(result) -> dict[str, tuple[float, str, int]]:
    """The end-to-end times as read off the clock, and the host's speed."""
    t = result.timings
    return {
        "setup_wall_s": (statistics.median(t.setup_wall_s), "s", len(t.setup_wall_s)),
        "round_wall_p50_s": (
            statistics.median(t.round_wall_s), "s", len(t.round_wall_s)),
        "round_wall_total_s": (math.fsum(t.round_wall_s), "s", len(t.round_wall_s)),
        "bench.speed_reading_ms": (
            statistics.median(v for _, v in t.meter.readings) * 1e3, "ms",
            len(t.meter.readings)),
    }


def headline_view(name: str, result) -> dict[str, tuple[float, str, int]]:
    """The workload's headline figures under their user-facing names (the
    backfill and nightly totals scaled, the hub cycle and reads as read)."""
    rounds = result.round_s
    if name == "backfill":
        return {"backfill_s": (statistics.median(rounds), "s", len(rounds))}
    if name == "nightly":
        cycles = result.counters.hub_cycle_s
        return {
            "nightly_cycle_p50_s": (statistics.median(cycles), "s", len(cycles)),
            "nightly_total_s": (math.fsum(rounds), "s", len(rounds)),
        }
    reads = [t * 1e3 for t, _ in result.counters.reads]
    return {
        "read_p50_ms": (percentile(reads, 50), "ms", len(reads)),
        "read_p99_ms": (percentile(reads, 99), "ms", len(reads)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"fedbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import OFF, tracer as new_tracer

    from workloads import SETUP_REPEATS

    started = time.time()
    # the traced mode runs the schedule twice, so it sets up once per pass
    inputs, ledger, result = run_workload(
        args.workload, args.seed, args.seconds, OFF,
        setup_repeats=1 if args.trace else SETUP_REPEATS,
    )
    metrics = end_to_end(result)
    headline = headline_view(args.workload, result)
    headline.update(wall_view(result))
    tracer = None
    if args.trace:
        gc.collect()
        tracer = new_tracer()
        _, traced_ledger, traced = run_workload(
            args.workload, args.seed, args.seconds, tracer, setup_repeats=1
        )
        if traced_ledger.failures != ledger.failures:
            print("# traced pass failed differently from the untraced pass",
                  file=sys.stderr)
        layers = per_layer(traced, result, tracer)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": inputs.sizes(),
        "rounds": len(result.round_s),
        "setups": len(result.setup_s),
        "started": started,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    shown = dict(metrics)
    shown.update(headline)
    if args.trace:
        shown.update(layers)
    for key, (value, unit, samples) in shown.items():
        print(f"# metric {key} {value:.6g} {unit} (n={samples})")
    print(f"# operations attempted {ledger.attempted} failed {ledger.failed}")
    for line in ledger.report_lines():
        print("# " + line)

    reported = layers if args.trace else metrics
    payload = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit, _) in reported.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "provenance": provenance,
            "metrics": {k: {"value": v, "unit": u, "samples": s}
                        for k, (v, u, s) in shown.items()},
            "round_s": result.round_s,
            "setup_s": result.setup_s,
            "round_wall_s": result.timings.round_wall_s,
            "setup_wall_s": result.timings.setup_wall_s,
            "speed": result.timings.record(),
            "failures": ledger.report_lines(),
            "result": payload,
        }, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(stem + "-spans.jsonl")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
