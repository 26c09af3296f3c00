"""Typed schema definitions for the embedded data warehouse.

The warehouse models the subset of a relational catalog that Open XDMoD
actually relies on: named schemas (databases), tables with typed, possibly
nullable columns, a single- or multi-column primary key, and secondary hash
indexes.  Types are deliberately few — the XDMoD data warehouse stores
integers, floats, strings, booleans, epoch timestamps, and JSON blobs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import SchemaError, TypeMismatchError


class ColumnType(enum.Enum):
    """Column storage types supported by the warehouse."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    TIMESTAMP = "timestamp"  # stored as int epoch seconds
    JSON = "json"  # stored as an arbitrary JSON-serializable value

    def validate(self, value: Any, *, column: str = "?") -> Any:
        """Coerce/validate ``value`` for this type, returning the stored form.

        Raises :class:`TypeMismatchError` when the value cannot be stored.
        """
        if value is None:
            return None
        if self in (ColumnType.INT, ColumnType.TIMESTAMP):
            if isinstance(value, bool):
                raise TypeMismatchError(
                    f"column {column!r}: bool is not a valid {self.value}"
                )
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise TypeMismatchError(
                f"column {column!r}: {value!r} is not a valid {self.value}"
            )
        if self is ColumnType.FLOAT:
            if isinstance(value, bool):
                raise TypeMismatchError(f"column {column!r}: bool is not a float")
            if isinstance(value, (int, float)):
                return float(value)
            raise TypeMismatchError(f"column {column!r}: {value!r} is not a float")
        if self is ColumnType.STR:
            if isinstance(value, str):
                return value
            raise TypeMismatchError(f"column {column!r}: {value!r} is not a str")
        if self is ColumnType.BOOL:
            if isinstance(value, bool):
                return value
            raise TypeMismatchError(f"column {column!r}: {value!r} is not a bool")
        if self is ColumnType.JSON:
            try:
                json.dumps(value)
            except (TypeError, ValueError) as exc:
                raise TypeMismatchError(
                    f"column {column!r}: value is not JSON-serializable: {exc}"
                ) from exc
            return value
        raise AssertionError(f"unhandled column type {self}")  # pragma: no cover


#: the type a value must have exactly to already be in stored form (JSON:
#: none — every JSON value is checked for serializability)
_EXACT_TYPES: dict[ColumnType, type | None] = {
    ColumnType.INT: int,
    ColumnType.TIMESTAMP: int,
    ColumnType.FLOAT: float,
    ColumnType.STR: str,
    ColumnType.BOOL: bool,
    ColumnType.JSON: None,
}


@dataclass(frozen=True)
class Column:
    """A single typed column.

    Parameters
    ----------
    name:
        Column name; must be a valid identifier-ish string.
    ctype:
        One of :class:`ColumnType`.
    nullable:
        Whether NULL (``None``) is allowed.  Primary-key columns are always
        implicitly non-nullable.
    default:
        Value used when an insert omits the column.  ``None`` with
        ``nullable=False`` means the column is required.
    """

    name: str
    ctype: ColumnType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.default is not None:
            object.__setattr__(
                self, "default", self.ctype.validate(self.default, column=self.name)
            )


@dataclass(frozen=True)
class TableSchema:
    """Definition of one table: ordered columns, primary key, indexes.

    ``primary_key`` is a tuple of column names forming the (composite) key;
    empty means the table has no primary key and duplicate rows are allowed
    (fact tables in XDMoD use surrogate keys; aggregate tables often have
    composite keys).  ``indexes`` is a tuple of single-column names that get
    secondary hash indexes.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    indexes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(
                    f"table {self.name!r}: duplicate column {col.name!r}"
                )
            seen.add(col.name)
        for key_col in self.primary_key:
            if key_col not in seen:
                raise SchemaError(
                    f"table {self.name!r}: primary key column {key_col!r} undefined"
                )
        for idx_col in self.indexes:
            if idx_col not in seen:
                raise SchemaError(
                    f"table {self.name!r}: index column {idx_col!r} undefined"
                )

    # -- compiled row codec: derived once per (immutable) schema -----------

    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.column_names)}

    @cached_property
    def _codec(self) -> tuple[tuple[str, type | None, Callable[..., Any], Any, bool], ...]:
        """Per column: ``(name, exact type, validator, default, required)``.

        A value whose ``type()`` is exactly the column's type is already in
        stored form, so :meth:`normalize_row` skips the validator for it;
        JSON has no such type and is always validated.
        """
        pk = set(self.primary_key)
        return tuple(
            (
                col.name,
                _EXACT_TYPES[col.ctype],
                col.ctype.validate,
                col.default,
                not col.nullable or col.name in pk,
            )
            for col in self.columns
        )

    @cached_property
    def pk_positions(self) -> tuple[int, ...]:
        return tuple(self.position(c) for c in self.primary_key)

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def normalize_row(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        """Validate a mapping of column values and return the stored tuple.

        Missing columns take their default; unknown keys are an error; NULL
        constraints (including implicit PK non-nullability) are enforced.
        """
        if not self._positions.keys() >= values.keys():
            unknown = values.keys() - self._positions.keys()
            raise SchemaError(
                f"table {self.name!r}: unknown columns {sorted(unknown)!r}"
            )
        row: list[Any] = []
        for name, exact, validate, default, required in self._codec:
            if name in values:
                stored = values[name]
                if stored is not None and type(stored) is not exact:
                    stored = validate(stored, column=name)
            else:
                stored = default
            if stored is None and required:
                raise TypeMismatchError(
                    f"table {self.name!r}: column {name!r} may not be NULL"
                )
            row.append(stored)
        return tuple(row)

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...] | None:
        """Return the primary-key tuple for a stored row, or None if keyless."""
        positions = self.pk_positions
        return tuple([row[p] for p in positions]) if positions else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description (used by dumps and replication)."""
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "type": c.ctype.value,
                    "nullable": c.nullable,
                    "default": c.default,
                }
                for c in self.columns
            ],
            "primary_key": list(self.primary_key),
            "indexes": list(self.indexes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TableSchema":
        columns = tuple(
            Column(
                name=c["name"],
                ctype=ColumnType(c["type"]),
                nullable=c.get("nullable", True),
                default=c.get("default"),
            )
            for c in data["columns"]
        )
        return cls(
            name=data["name"],
            columns=columns,
            primary_key=tuple(data.get("primary_key", ())),
            indexes=tuple(data.get("indexes", ())),
        )


def make_columns(spec: Iterable[tuple[str, ColumnType] | tuple[str, ColumnType, bool]]) -> tuple[Column, ...]:
    """Small helper: build columns from ``(name, type[, nullable])`` tuples."""
    cols: list[Column] = []
    for entry in spec:
        if len(entry) == 2:
            name, ctype = entry  # type: ignore[misc]
            cols.append(Column(name, ctype))
        else:
            name, ctype, nullable = entry  # type: ignore[misc]
            cols.append(Column(name, ctype, nullable=nullable))
    return tuple(cols)
