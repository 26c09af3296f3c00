"""Operation accounting and the benchmark's correctness checks.

Every timed call into the federation and every check is one *operation*.
An operation fails when the call raises or the check finds a wrong
answer.  A failure never aborts the run and is never dropped: it is
counted, and its kind and first message are kept for the report.

Known defects: a failure whose signature matches one recorded in
``fedbench/NOTES.md`` is counted in ``failed`` like any other, but it
does not make the run ``correct: false``; any other failure does.  A later
change that fixes a defect lowers ``failed``; one that breaks something
else flips ``correct``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.aggregation import Aggregator

#: signature -> recorded defect.  Signatures are (operation kind, detail).
KNOWN_DEFECTS: dict[tuple[str, str], str] = {
    # a full rebuild leaves no incremental bookkeeping, so the first
    # ``incremental=True`` pass folds every fact in again: recognised only
    # when the totals are exactly the facts plus those of the last full build
    ("check.conservation", "agg_job:double-fold"): "incremental-after-rebuild",
    ("check.rebuild", "agg_job:double-fold"): "incremental-after-rebuild",
    ("check.rebuild", "agg_cloud:double-fold"): "incremental-after-rebuild",
    # the storage and cloud folds add floats in another order than the
    # columnar rebuild: equal values, different last bits and checksums
    ("check.rebuild", "agg_cloud:rounding"): "incremental-float-order",
    ("check.rebuild", "agg_storage:rounding"): "incremental-float-order",
    # interval ids restart from len(fact_vm_interval)+1 after re-dumped
    # VMs were deleted, so the third cumulative delivery collides
    ("etl.cloudevents.ingest", "PrimaryKeyError"): "cloud-redump-primary-key",
}

#: the additive measures a double fold adds a second time, per realm
DOUBLED_MEASURES = {
    "agg_job": ("n_jobs_ended", "cpu_hours"),
    "agg_cloud": ("core_hours", "wall_hours"),
}


@dataclass
class Ledger:
    """Operations attempted and failed, with failures by signature."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    messages: dict[tuple[str, str], str] = field(default_factory=dict)

    def record(self, kind: str, ok: bool, detail: str = "", message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            signature = (kind, detail)
            self.failures[signature] += 1
            self.messages.setdefault(signature, message)
        return ok

    def unexpected(self) -> dict[tuple[str, str], int]:
        return {
            sig: n for sig, n in self.failures.items() if sig not in KNOWN_DEFECTS
        }

    @property
    def correct(self) -> bool:
        return not self.unexpected()

    def report_lines(self) -> list[str]:
        lines = []
        for (kind, detail), n in sorted(self.failures.items()):
            defect = KNOWN_DEFECTS.get((kind, detail), "UNEXPECTED")
            message = self.messages[(kind, detail)][:160]
            lines.append(f"failed {n:6d}  {kind} [{detail}]  {defect}: {message}")
        return lines


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _sums(table, measures: Iterable[str]) -> dict[str, float]:
    return {m: math.fsum(table.column_values(m)) for m in measures}


def build_totals(schema, periods: Iterable[str]) -> dict[str, dict[str, float]]:
    """What a full build folded, per aggregate table and doubled measure.

    Taken right after a full build, so that a later incremental pass that
    folds the same facts again can be told from any other wrong total.  Job
    totals come from the raw facts (a full build that lost jobs does not
    move the baseline); cloud totals from the freshly built tables.  A
    table whose incremental bookkeeping already existed is left out: the
    full build resynced it, so no fact can be folded twice.
    """
    out: dict[str, dict[str, float]] = {}
    facts = schema.table("fact_job") if schema.has_table("fact_job") else None
    for period in periods:
        if facts is not None and not schema.has_table(f"agg_seen_job_{period}"):
            out[f"agg_job_{period}"] = {
                "n_jobs_ended": float(len(facts)),
                "cpu_hours": math.fsum(facts.column_values("cpu_hours")),
            }
        name = f"agg_cloud_{period}"
        if schema.has_table(name) and not schema.has_table(
            f"agg_seen_cloud_interval_{period}"
        ):
            out[name] = _sums(schema.table(name), DOUBLED_MEASURES["agg_cloud"])
    return out


def _folded_twice(
    got: Mapping[str, float], once: Mapping[str, float], baseline: Mapping[str, float]
) -> bool:
    """``got`` is ``once`` plus the full build's ``baseline``, measure by measure."""
    return bool(baseline) and all(
        _close(got[m], once[m] + baseline[m]) for m in baseline
    )


def conservation(
    schema, periods: Iterable[str], baseline: Mapping[str, Mapping] | None = None
) -> dict[str, tuple[str, str]]:
    """Per period: do ``agg_job_<period>`` totals equal the raw facts?

    Jobs are counted once, in the period they ended, and CPU hours are
    apportioned across periods without loss, so both sums must match the
    fact table exactly (to float rounding).  The verdict is ``equal``,
    ``double-fold`` (the totals are the facts plus ``baseline``: the facts
    of the last full build, folded in again by an incremental pass) or
    ``differs``.
    """
    facts = schema.table("fact_job")
    want = {
        "n_jobs_ended": float(len(facts)),
        "cpu_hours": math.fsum(facts.column_values("cpu_hours")),
    }
    out = {}
    for period in periods:
        name = f"agg_job_{period}"
        if not schema.has_table(name):
            verdict = "equal" if not len(facts) else "differs"
            out[period] = (verdict, f"{schema.name}.{name} missing")
            continue
        got = _sums(schema.table(name), want)
        if all(_close(got[m], want[m]) for m in want):
            verdict = "equal"
        elif _folded_twice(got, want, (baseline or {}).get(name, {})):
            verdict = "double-fold"
        else:
            verdict = "differs"
        out[period] = (
            verdict,
            f"{schema.name}.{name}: n_jobs_ended {got['n_jobs_ended']:.0f} vs "
            f"{want['n_jobs_ended']:.0f} facts, cpu_hours {got['cpu_hours']:.3f} "
            f"vs {want['cpu_hours']:.3f}",
        )
    return out


AGG_REALMS = ("agg_job", "agg_storage", "agg_cloud")


def _agg_state(schema) -> dict[str, tuple[str, list[tuple]]]:
    """Result tables (not the incremental bookkeeping): checksum and rows."""
    return {
        name: (
            schema.table(name).checksum(),
            sorted(schema.table(name).raw_rows(), key=repr),
        )
        for name in schema.table_names()
        if realm_of(name) in AGG_REALMS
    }


def _rounding_only(a: list[tuple], b: list[tuple]) -> bool:
    """Same rows except for float values equal to within rounding."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def rebuild_mismatches(
    schemas: Mapping[str, object],
    config,
    periods: Iterable[str],
    baselines: Mapping[str, Mapping[str, Mapping]] | None = None,
) -> list[tuple[str, str, str]]:
    """Rebuild every member's aggregates in full and compare checksums.

    Returns ``(member, table, verdict)`` for every aggregate table that was
    maintained incrementally; the verdict is ``equal``, ``rounding`` (the
    checksums differ but every value agrees to within float rounding),
    ``double-fold`` (the doubled measures sum to the rebuild's plus the
    member's ``baselines`` entry from :func:`build_totals`) or ``differs``.
    Destroys the incremental state, so it runs only after timing.
    """
    out = []
    for name, schema in schemas.items():
        baseline = (baselines or {}).get(name) or {}
        before = _agg_state(schema)
        incremental = {
            table: _sums(schema.table(table), DOUBLED_MEASURES[realm_of(table)])
            for table in before
            if realm_of(table) in DOUBLED_MEASURES
        }
        Aggregator(schema, config).aggregate_all(list(periods))
        after = _agg_state(schema)
        for table, (digest, rows) in sorted(before.items()):
            rebuilt_digest, rebuilt = after.get(table, ("", []))
            if rebuilt_digest == digest:
                verdict = "equal"
            elif _rounding_only(rows, rebuilt):
                verdict = "rounding"
            elif table in incremental and _folded_twice(
                incremental[table],
                _sums(schema.table(table), DOUBLED_MEASURES[realm_of(table)]),
                baseline.get(table, {}),
            ):
                verdict = "double-fold"
            else:
                verdict = "differs"
            out.append((name, table, verdict))
    return out


def realm_of(table: str) -> str:
    """``agg_job_month`` -> ``agg_job``."""
    return table.rsplit("_", 1)[0]
