"""Whole-database persistence: save/load an instance to a directory.

An Open XDMoD installation survives restarts because MySQL is durable; the
embedded warehouse gets the same property through directory snapshots —
one (gzip) dump file per schema plus a manifest.  Used by the CLI and by
operators who want a satellite's state on disk between runs.  The binlog
position at save time is recorded in the manifest for audit; a reloaded
schema carries a *fresh* binlog (its load history), so replication after a
reload should re-ship loosely and convert to tight
(:meth:`repro.core.LooseChannel.to_tight`) rather than resume an old LSN.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .dump import dump_schema, load_schema, read_dump_file, write_dump_file
from .engine import Database
from .errors import DumpError

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def save_database(database: Database, directory: str | Path) -> Path:
    """Snapshot every schema of ``database`` into ``directory``.

    Overwrites any previous snapshot there.  Returns the directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "database": database.name,
        "schemas": [],
    }
    for name in database.schema_names():
        schema = database.schema(name)
        filename = f"{name}.dump.gz"
        dump = dump_schema(schema)
        write_dump_file(dump, directory / filename)
        manifest["schemas"].append(
            {
                "name": name,
                "file": filename,
                "binlog_head": dump["binlog_head"],
                "checksum": dump["checksum"],
            }
        )
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def load_database(directory: str | Path, *, verify: bool = True) -> Database:
    """Rebuild a database from a :func:`save_database` snapshot."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise DumpError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DumpError(f"corrupt manifest in {directory}: {exc}") from exc
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise DumpError(
            f"unsupported manifest version {manifest.get('manifest_version')!r}"
        )
    database = Database(manifest.get("database", "xdmod"))
    for entry in manifest["schemas"]:
        dump = read_dump_file(directory / entry["file"])
        schema = load_schema(database, dump, verify_checksum=False)
        if verify and schema.checksum() != entry["checksum"]:
            raise DumpError(
                f"schema {entry['name']!r} failed checksum verification on load"
            )
    return database


def snapshot_info(directory: str | Path) -> dict[str, Any]:
    """Read a snapshot's manifest without loading any data."""
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise DumpError(f"no {MANIFEST_NAME} in {directory}")
    return json.loads(manifest_path.read_text())
