"""Storage engine: databases, schemas, tables, CRUD, indexes.

This is the MySQL-equivalent substrate under every XDMoD instance.  A
:class:`Database` holds named :class:`Schema` objects (one per logical
database — XDMoD uses ``modw``, ``mod_shredder``, etc.; the federation hub
additionally holds one renamed schema per satellite).  Every schema owns a
:class:`~repro.warehouse.binlog.Binlog` and all committed changes are
recorded there, which is what makes tight federation possible.

Rows are stored as tuples in insertion order with tombstoned deletes, so row
ids remain stable; primary keys and declared secondary indexes are hash maps
from value to row ids.  The design favours clarity first (per the
optimization guide: make it work, make it right), with the hot aggregation
paths vectorized separately in :mod:`repro.aggregation`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..analysis.sanitizer import create_lock
from .binlog import Binlog, BinlogEvent, EventType
from .errors import (
    DuplicateObjectError,
    PrimaryKeyError,
    SchemaError,
    UnknownObjectError,
)
from .schema import ColumnType, TableSchema


_NAN = object()


def _nan_free(row: tuple[Any, ...]) -> tuple[Any, ...]:
    """``row`` with every NaN replaced by one sentinel (NaN != NaN)."""
    return tuple(_NAN if v != v else v for v in row)


class Table:
    """One table: schema + rows + indexes.

    Not constructed directly — use :meth:`Schema.create_table`.
    """

    def __init__(self, schema: "Schema", table_schema: TableSchema) -> None:
        self._owner = schema
        self.schema = table_schema
        self._rows: list[tuple[Any, ...] | None] = []  # None == tombstone
        self._live_count = 0
        self._pk_index: dict[tuple[Any, ...], int] = {}
        self._indexes: dict[str, dict[Any, set[int]]] = {
            name: {} for name in table_schema.indexes
        }
        #: (index, row position) per secondary index
        self._index_slots = tuple(
            (idx, table_schema.position(name)) for name, idx in self._indexes.items()
        )
        self._data_version = 0
        self._columnar_cache: dict[str, np.ndarray] = {}

    # -- introspection ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._live_count

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate live rows as dicts (insertion order)."""
        names = self.schema.column_names
        for row in self._rows:
            if row is not None:
                yield dict(zip(names, row))

    def raw_rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate live rows as stored tuples (no dict overhead)."""
        for row in self._rows:
            if row is not None:
                yield row

    def row_ids(self) -> Iterator[int]:
        for rid, row in enumerate(self._rows):
            if row is not None:
                yield rid

    def row_at(self, rid: int) -> tuple[Any, ...]:
        row = self._rows[rid]
        if row is None:
            raise UnknownObjectError(f"row id {rid} is deleted")
        return row

    def checksum(self) -> str:
        """Order-independent digest of live row contents.

        Used by :mod:`repro.core.consistency` to verify that replicated data
        on the hub is byte-identical to the satellite's (invariant 1 in
        DESIGN.md).
        """
        digests = sorted(
            hashlib.sha256(
                json.dumps(row, sort_keys=False, default=str).encode()
            ).hexdigest()
            for row in self.raw_rows()
        )
        h = hashlib.sha256()
        for d in digests:
            h.update(d.encode())
        return h.hexdigest()

    # -- mutation ----------------------------------------------------------

    def insert(self, values: Mapping[str, Any]) -> int:
        """Insert one row; returns its row id.

        Raises :class:`PrimaryKeyError` on duplicate key.
        """
        return self._store(*self._stage((values,)))

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert a batch atomically; returns the number of rows inserted.

        Every row is normalized and key-checked (against the table and the
        rest of the batch) before any is stored, so a bad row leaves the
        table and the binlog untouched.  The batch logs the same INSERT
        events as inserting its rows one at a time.
        """
        staged, keys = self._stage(rows)
        self._store(staged, keys)
        return len(staged)

    def upsert(self, values: Mapping[str, Any]) -> int:
        """Insert, or update in place when the primary key already exists."""
        row = self.schema.normalize_row(values)
        key = self.schema.key_of(row)
        if key is not None and key in self._pk_index:
            rid = self._pk_index[key]
            self._replace(rid, row)
            self._owner.binlog.append(
                EventType.UPDATE,
                self.name,
                {
                    "key": list(key),
                    "row": dict(zip(self.schema.column_names, row)),
                },
            )
            return rid
        return self._store([row], [key])

    def _stage(
        self, batch: Iterable[Mapping[str, Any]]
    ) -> tuple[list[tuple[Any, ...]], list[tuple[Any, ...] | None]]:
        """Normalize and key-check rows for :meth:`_store`; stores nothing."""
        normalize = self.schema.normalize_row
        key_of = self.schema.key_of
        rows: list[tuple[Any, ...]] = []
        keys: list[tuple[Any, ...] | None] = []
        staged: set[tuple[Any, ...]] = set()
        for values in batch:
            row = normalize(values)
            key = key_of(row)
            if key is not None:
                if key in self._pk_index or key in staged:
                    raise PrimaryKeyError(
                        f"table {self.name!r}: duplicate primary key {key!r}"
                    )
                staged.add(key)
            rows.append(row)
            keys.append(key)
        return rows, keys

    def _store(
        self,
        rows: Sequence[tuple[Any, ...]],
        keys: Sequence[tuple[Any, ...] | None],
    ) -> int:
        """Append staged rows, index them and log one INSERT per row;
        returns the first new row id."""
        first = len(self._rows)
        if not rows:
            return first
        self._rows.extend(rows)
        self._live_count += len(rows)
        self._mutated()
        for rid, (row, key) in enumerate(zip(rows, keys), first):
            if key is not None:
                self._pk_index[key] = rid
            self._index_add(rid, row)
        names = self.schema.column_names
        self._owner.binlog.append_many(
            EventType.INSERT,
            self.name,
            [{"row": dict(zip(names, row))} for row in rows],
        )
        return first

    def get(self, key: Sequence[Any]) -> dict[str, Any] | None:
        """Primary-key point lookup; returns the row dict or None."""
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self._pk_index.get(tuple(key))
        if rid is None:
            return None
        return dict(zip(self.schema.column_names, self._rows[rid]))  # type: ignore[arg-type]

    def update_where(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        changes: Mapping[str, Any],
    ) -> int:
        """Update all rows matching ``predicate``; returns count updated."""
        names = self.schema.column_names
        updated = 0
        for rid, row in enumerate(self._rows):
            if row is None:
                continue
            asdict = dict(zip(names, row))
            if not predicate(asdict):
                continue
            asdict.update(changes)
            self._update_at(rid, row, self.schema.normalize_row(asdict))
            updated += 1
        return updated

    def replace_row(
        self, old_values: Mapping[str, Any], values: Mapping[str, Any]
    ) -> bool:
        """Replace the first live row equal to ``old_values`` with ``values``.

        Logged like :meth:`update_where`.  Returns False, changing nothing,
        when no live row is equal.  NaN counts as equal to NaN here, so a
        row holding one still matches its own before-image.  Replication uses it for keyless tables,
        whose rows have no identity but their contents.
        """
        target = _nan_free(self.schema.normalize_row(old_values))
        for rid, row in enumerate(self._rows):
            if row is not None and _nan_free(row) == target:
                self._update_at(rid, row, self.schema.normalize_row(values))
                return True
        return False

    def _update_at(
        self, rid: int, row: tuple[Any, ...], new_row: tuple[Any, ...]
    ) -> None:
        names = self.schema.column_names
        new_key = self.schema.key_of(new_row)
        old_key = self.schema.key_of(row)
        if new_key != old_key and new_key in self._pk_index:
            raise PrimaryKeyError(
                f"table {self.name!r}: update collides on key {new_key!r}"
            )
        if old_key is not None:
            del self._pk_index[old_key]
        if new_key is not None:
            self._pk_index[new_key] = rid
        self._replace(rid, new_row)
        self._owner.binlog.append(
            EventType.UPDATE,
            self.name,
            {
                "key": list(new_key) if new_key is not None else None,
                "old_row": dict(zip(names, row)),
                "row": dict(zip(names, new_row)),
            },
        )

    def delete_where(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns count deleted."""
        names = self.schema.column_names
        deleted = 0
        for rid, row in enumerate(self._rows):
            if row is None:
                continue
            asdict = dict(zip(names, row))
            if not predicate(asdict):
                continue
            self._delete_at(rid, row, asdict)
            deleted += 1
        return deleted

    def delete_key(self, key: Sequence[Any]) -> bool:
        """Delete the row with primary key ``key`` through the PK index.

        Same bookkeeping and binlog event as :meth:`delete_where` matching
        that one row; returns False when no row has the key.
        """
        if not self.schema.primary_key:
            raise SchemaError(f"table {self.name!r} has no primary key")
        rid = self._pk_index.get(tuple(key))
        if rid is None:
            return False
        row = self.row_at(rid)
        self._delete_at(rid, row, dict(zip(self.schema.column_names, row)))
        return True

    def _delete_at(
        self, rid: int, row: tuple[Any, ...], asdict: dict[str, Any]
    ) -> None:
        key = self.schema.key_of(row)
        if key is not None:
            del self._pk_index[key]
        self._index_remove(rid, row)
        self._rows[rid] = None
        self._live_count -= 1
        self._mutated()
        self._owner.binlog.append(
            EventType.DELETE,
            self.name,
            {"key": list(key) if key is not None else None, "row": asdict},
        )

    def truncate(self) -> None:
        """Remove all rows (logged as one TRUNCATE event)."""
        self._rows.clear()
        self._live_count = 0
        self._pk_index.clear()
        for idx in self._indexes.values():
            idx.clear()
        self._mutated()
        self._owner.binlog.append(EventType.TRUNCATE, self.name, {})

    # -- index plumbing -----------------------------------------------------

    def lookup_index(self, column: str, value: Any) -> list[dict[str, Any]]:
        """Equality lookup through a declared secondary index."""
        if column not in self._indexes:
            raise UnknownObjectError(
                f"table {self.name!r} has no index on {column!r}"
            )
        names = self.schema.column_names
        rids = sorted(self._indexes[column].get(value, ()))
        return [dict(zip(names, self._rows[rid])) for rid in rids]  # type: ignore[arg-type]

    def index_row_ids(self, column: str, value: Any) -> set[int]:
        if column not in self._indexes:
            raise UnknownObjectError(
                f"table {self.name!r} has no index on {column!r}"
            )
        return set(self._indexes[column].get(value, ()))

    def _index_add(self, rid: int, row: tuple[Any, ...]) -> None:
        for idx, pos in self._index_slots:
            idx.setdefault(row[pos], set()).add(rid)

    def _index_remove(self, rid: int, row: tuple[Any, ...]) -> None:
        for idx, pos in self._index_slots:
            value = row[pos]
            bucket = idx.get(value)
            if bucket is not None:
                bucket.discard(rid)
                if not bucket:
                    del idx[value]

    def _replace(self, rid: int, new_row: tuple[Any, ...]) -> None:
        old_row = self._rows[rid]
        if old_row is not None:
            self._index_remove(rid, old_row)
        self._rows[rid] = new_row
        self._index_add(rid, new_row)
        self._mutated()

    # -- column access for vectorized aggregation ---------------------------

    def _mutated(self) -> None:
        """Invalidate the columnar cache; called from every mutation point
        (the same points that record a binlog event)."""
        self._data_version += 1
        self._owner._bump_data_version()
        if self._columnar_cache:
            self._columnar_cache.clear()

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on every row mutation.

        Lets callers (and tests) detect staleness of anything derived from
        the table's contents — the columnar cache keys off it internally.
        """
        return self._data_version

    def column_array(self, column: str) -> np.ndarray:
        """Cached NumPy array of one column's live values, in row order.

        This is the columnar view feeding the vectorized aggregation paths
        (:mod:`repro.aggregation.columnar`).  Arrays are built lazily per
        column and cached until the next mutation — insert, update, delete,
        or truncate, i.e. the same hook points that write the binlog —
        invalidates the whole cache.

        dtype mapping: INT/TIMESTAMP columns become ``int64`` (``float64``
        with NaN standing in for NULL when the column holds NULLs);
        FLOAT becomes ``float64`` (NULL becomes NaN); everything else
        (STR/BOOL/JSON) becomes an ``object`` array with NULLs kept as
        ``None``.  The returned array is shared cache state — callers must
        treat it as read-only.
        """
        cached = self._columnar_cache.get(column)
        if cached is not None:
            return cached
        pos = self.schema.position(column)
        ctype = self.schema.column(column).ctype
        values = [row[pos] for row in self._rows if row is not None]
        if ctype in (ColumnType.INT, ColumnType.TIMESTAMP, ColumnType.FLOAT):
            has_null = any(v is None for v in values)
            if has_null:
                arr = np.array(
                    [np.nan if v is None else v for v in values],
                    dtype=np.float64,
                )
            elif ctype is ColumnType.FLOAT:
                arr = np.array(values, dtype=np.float64)
            else:
                arr = np.array(values, dtype=np.int64)
        else:
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        self._columnar_cache[column] = arr
        return arr

    def column_arrays(self, columns: Sequence[str]) -> dict[str, np.ndarray]:
        """Cached columnar views of several columns (see :meth:`column_array`)."""
        return {c: self.column_array(c) for c in columns}

    def column_values(self, column: str) -> list[Any]:
        """All live values of one column, in row order (aggregation feed)."""
        pos = self.schema.position(column)
        return [row[pos] for row in self._rows if row is not None]

    def columns_values(self, columns: Sequence[str]) -> list[tuple[Any, ...]]:
        """Live values of several columns, in row order."""
        positions = [self.schema.position(c) for c in columns]
        return [
            tuple(row[p] for p in positions)
            for row in self._rows
            if row is not None
        ]


class Schema:
    """A named schema (logical database) with its own binlog.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) is optional; when
    wired, the schema publishes ``warehouse_binlog_events_total`` and
    ``warehouse_apply_events_total`` labelled by schema name.  The cost
    when absent is one ``None`` check per apply.  ``trace_provider``
    (typically ``Tracer.current_context``) stamps every binlog append
    with the live trace context for cross-member propagation.
    """

    def __init__(self, name: str, *, metrics=None, trace_provider=None) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid schema name {name!r}")
        self.name = name
        self._tables: dict[str, Table] = {}
        self._data_version = 0
        on_append = None
        self._apply_counter = None
        if metrics is not None:
            on_append = metrics.counter(
                "warehouse_binlog_events_total",
                "Events appended to each schema's binlog",
                ("schema",),
            ).labels(schema=name).inc
            self._apply_counter = metrics.counter(
                "warehouse_apply_events_total",
                "Replicated events applied into each schema",
                ("schema",),
            ).labels(schema=name)
        self.binlog = Binlog(on_append=on_append, trace_provider=trace_provider)
        self._lock = create_lock(f"Schema:{name}", rlock=True)  # guards: _tables, _data_version

    def _bump_data_version(self) -> None:
        # += on an int is read-modify-write: concurrent table mutators
        # (nightly ingest overlapping a replication tail) could lose
        # bumps and leave the serving cache thinking it is fresh.  The
        # RLock keeps the re-entrant call from create_table/drop_table
        # (which already hold it) cheap and safe.
        with self._lock:
            self._data_version += 1

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped on any mutation anywhere in the schema.

        Covers row mutations in every table (via :meth:`Table._mutated`)
        plus table creation/removal, so anything derived from the schema's
        contents — most importantly the serving layer's query-result cache
        (:mod:`repro.ui.serving`) — can detect staleness with one integer
        comparison instead of walking tables.
        """
        return self._data_version

    def create_table(self, table_schema: TableSchema) -> Table:
        with self._lock:
            if table_schema.name in self._tables:
                raise DuplicateObjectError(
                    f"schema {self.name!r}: table {table_schema.name!r} exists"
                )
            table = Table(self, table_schema)
            self._tables[table_schema.name] = table
            self._bump_data_version()
            self.binlog.append(
                EventType.CREATE_TABLE, table_schema.name, table_schema.to_dict()
            )
            return table

    def drop_table(self, name: str) -> None:
        with self._lock:
            if name not in self._tables:
                raise UnknownObjectError(
                    f"schema {self.name!r}: no table {name!r}"
                )
            del self._tables[name]
            self._bump_data_version()
            self.binlog.append(EventType.DROP_TABLE, name, {})

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownObjectError(
                f"schema {self.name!r}: no table {name!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def apply_event(self, event: BinlogEvent) -> None:
        """Apply a binlog event from another schema to this one.

        This is the replication "applier" side: the federation hub calls
        this for each event shipped from a satellite.  Row application goes
        through the normal table methods so the hub's own binlog also
        records the change (supporting hub-of-hubs topologies), but inserts
        use upsert semantics so replay is idempotent.
        """
        if self._apply_counter is not None:
            self._apply_counter.inc()
        if event.etype is EventType.CREATE_TABLE:
            schema = TableSchema.from_dict(event.data)
            if schema.name in self._tables:
                return  # idempotent re-provision
            self.create_table(schema)
            return
        if event.etype is EventType.DROP_TABLE:
            if event.table in self._tables:
                self.drop_table(event.table)
            return
        table = self.table(event.table)
        if event.etype is EventType.TRUNCATE:
            table.truncate()
        elif event.etype is EventType.INSERT:
            row = event.data["row"]
            if table.schema.primary_key:
                table.upsert(row)
            else:
                table.insert(row)
        elif event.etype is EventType.UPDATE:
            # update_where events carry the before-image: an update that
            # changed the key, or any update on a keyless table, must not
            # leave the old row behind
            row, old_row = event.data["row"], event.data.get("old_row")
            pk = table.schema.primary_key
            if pk:
                old_key = None if old_row is None else [old_row[c] for c in pk]
                if old_key is not None and old_key != event.data["key"]:
                    table.delete_key(old_key)
                table.upsert(row)
            elif old_row is None or not table.replace_row(old_row, row):
                table.insert(row)
        elif event.etype is EventType.DELETE:
            if event.data.get("key") is not None and table.schema.primary_key:
                table.delete_key(event.data["key"])
            else:
                target = event.data.get("row", {})
                table.delete_where(
                    lambda r, target=target: all(
                        r.get(k) == v for k, v in target.items()
                    )
                )
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled event type {event.etype}")

    def checksum(self) -> str:
        """Digest over all tables' contents (schema-name independent)."""
        h = hashlib.sha256()
        for name in self.table_names():
            h.update(name.encode())
            h.update(self._tables[name].checksum().encode())
        return h.hexdigest()


class Database:
    """Top-level container: a set of named schemas.

    One :class:`Database` per XDMoD instance.  The federation hub's database
    accumulates one extra schema per satellite (``fed_<instance>``) alongside
    its own.
    """

    def __init__(
        self, name: str = "xdmod", *, metrics=None, trace_provider=None
    ) -> None:
        self.name = name
        self.metrics = metrics
        self.trace_provider = trace_provider
        self._schemas: dict[str, Schema] = {}

    def create_schema(self, name: str) -> Schema:
        if name in self._schemas:
            raise DuplicateObjectError(f"schema {name!r} already exists")
        schema = Schema(
            name, metrics=self.metrics, trace_provider=self.trace_provider
        )
        self._schemas[name] = schema
        return schema

    def ensure_schema(self, name: str) -> Schema:
        if name in self._schemas:
            return self._schemas[name]
        return self.create_schema(name)

    def drop_schema(self, name: str) -> None:
        if name not in self._schemas:
            raise UnknownObjectError(f"no schema {name!r}")
        del self._schemas[name]

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownObjectError(f"no schema {name!r}") from None

    def has_schema(self, name: str) -> bool:
        return name in self._schemas

    def schema_names(self) -> list[str]:
        return sorted(self._schemas)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas
