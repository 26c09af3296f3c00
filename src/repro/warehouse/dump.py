"""Schema dump/load: the transport for loose federation and backups.

The paper's "loose" federation ships *database dumps or log files*
periodically to the hub instead of live binlog replication.  A dump here is
a JSON-serializable document: schema catalog + all row data + the binlog
head position at dump time (so a hub can later switch a loose channel to
tight replication without gaps — the dump records where the binlog cursor
should start).

Integrity: every dump carries a content checksum (:func:`dump_checksum`)
computed purely from the document, matching what
:meth:`~repro.warehouse.engine.Schema.checksum` would report for the
materialized schema.  :func:`load_schema` verifies it *before* touching
the target database, so a corrupted or truncated shipment is rejected
outright — never half-loaded over the previous good copy.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from pathlib import Path
from typing import Any

from .engine import Database, Schema
from .errors import DumpError
from .schema import TableSchema

DUMP_FORMAT_VERSION = 1


def table_rows_checksum(rows: list[Any]) -> str:
    """Order-independent digest of one table's row data.

    Mirrors :meth:`~repro.warehouse.engine.Table.checksum` exactly
    (``json.dumps`` renders tuples and lists identically, so a dump that
    round-tripped through JSON digests the same as the live table).
    """
    digests = sorted(
        hashlib.sha256(
            json.dumps(row, sort_keys=False, default=str).encode()
        ).hexdigest()
        for row in rows
    )
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def dump_checksum(dump: dict[str, Any]) -> str:
    """Content checksum of a dump document.

    Equals :meth:`Schema.checksum` of the schema the dump describes —
    whether computed satellite-side before shipping or hub-side after —
    so the two sides can agree on integrity without materializing
    anything.  Filtered dumps (loose federation's resource routing)
    recompute this over the *filtered* content.
    """
    h = hashlib.sha256()
    entries = sorted(dump["tables"], key=lambda e: e["schema"]["name"])
    for entry in entries:
        h.update(entry["schema"]["name"].encode())
        h.update(table_rows_checksum(entry["rows"]).encode())
    return h.hexdigest()


def dump_schema(schema: Schema) -> dict[str, Any]:
    """Serialize one schema to a plain dict (tables, rows, binlog head)."""
    tables = []
    for name in schema.table_names():
        table = schema.table(name)
        tables.append(
            {
                "schema": table.schema.to_dict(),
                "rows": [list(row) for row in table.raw_rows()],
            }
        )
    return {
        "format_version": DUMP_FORMAT_VERSION,
        "schema_name": schema.name,
        "binlog_head": schema.binlog.head_lsn,
        "checksum": schema.checksum(),
        "tables": tables,
    }


def load_schema(
    database: Database,
    dump: dict[str, Any],
    *,
    rename_to: str | None = None,
    replace: bool = False,
    verify_checksum: bool = True,
) -> Schema:
    """Materialize a dump into ``database``.

    ``rename_to`` applies the federation hub's schema-renaming convention
    (e.g. satellite ``modw`` becomes ``fed_siteA`` on the hub).  With
    ``replace=True`` an existing schema of the target name is dropped first
    (periodic loose-federation refresh).

    With ``verify_checksum`` (the default) the dump's content checksum is
    verified *before* any existing schema is dropped or any row inserted:
    a corrupt dump raises :class:`DumpError` and leaves the database —
    including the previous shipment — untouched.
    """
    version = dump.get("format_version")
    if version != DUMP_FORMAT_VERSION:
        raise DumpError(f"unsupported dump format version {version!r}")
    if verify_checksum and dump_checksum(dump) != dump.get("checksum"):
        raise DumpError(
            f"dump of {dump.get('schema_name')!r} failed checksum verification"
        )
    target = rename_to or dump["schema_name"]
    if database.has_schema(target):
        if not replace:
            raise DumpError(f"schema {target!r} already exists (use replace=True)")
        database.drop_schema(target)
    schema = database.create_schema(target)
    try:
        for entry in dump["tables"]:
            table_schema = TableSchema.from_dict(entry["schema"])
            table = schema.create_table(table_schema)
            names = table_schema.column_names
            table.insert_many(dict(zip(names, row)) for row in entry["rows"])
    except Exception as exc:
        # malformed row data mid-load: never leave a partial schema behind
        database.drop_schema(target)
        raise DumpError(
            f"dump of {dump.get('schema_name')!r} failed to load: {exc}"
        ) from exc
    return schema


def write_dump_file(
    dump_or_schema: Schema | dict[str, Any],
    path: str | Path,
    *,
    compress: bool = True,
) -> Path:
    """Write a schema (or an already-built dump document) to disk.

    Accepting the document form lets loose federation ship *filtered*
    dumps through the same code path as whole-schema backups.
    """
    path = Path(path)
    dump = (
        dump_or_schema
        if isinstance(dump_or_schema, dict)
        else dump_schema(dump_or_schema)
    )
    payload = json.dumps(dump, default=str).encode()
    if compress:
        path.write_bytes(gzip.compress(payload))
    else:
        path.write_bytes(payload)
    return path


def read_dump_file(path: str | Path) -> dict[str, Any]:
    """Read a dump written by :func:`write_dump_file` (auto-detects gzip).

    Any form of file damage — broken gzip framing, truncation, invalid
    JSON, a non-object payload — surfaces as :class:`DumpError`.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise DumpError(f"corrupt dump file {path}: {exc}") from exc
    try:
        dump = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DumpError(f"corrupt dump file {path}: {exc}") from exc
    if not isinstance(dump, dict):
        raise DumpError(f"corrupt dump file {path}: not a dump document")
    # JSON round-trip turns row tuples into lists and may stringify nothing
    # else; normalize_row on load re-validates types.
    return dump
