"""The compiled row codec against the straightforward per-column reference.

``TableSchema.normalize_row`` and ``key_of`` run on metadata derived once
per schema and skip ``ColumnType.validate`` for values already in stored
form.  The reference below is the plain loop they replaced: validate every
value, scan for every position.  For any schema and any input mapping the
two must return the same tuple (same values and same Python types) or raise
the same exception with the same message.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.warehouse import (
    Column,
    ColumnType,
    SchemaError,
    TableSchema,
    TypeMismatchError,
)

C = ColumnType


def reference_normalize_row(
    schema: TableSchema, values: Mapping[str, Any]
) -> tuple[Any, ...]:
    names = [col.name for col in schema.columns]
    unknown = set(values) - set(names)
    if unknown:
        raise SchemaError(
            f"table {schema.name!r}: unknown columns {sorted(unknown)!r}"
        )
    row: list[Any] = []
    for col in schema.columns:
        if col.name in values:
            stored = col.ctype.validate(values[col.name], column=col.name)
        else:
            stored = col.default
        if stored is None and (not col.nullable or col.name in schema.primary_key):
            raise TypeMismatchError(
                f"table {schema.name!r}: column {col.name!r} may not be NULL"
            )
        row.append(stored)
    return tuple(row)


def reference_key_of(
    schema: TableSchema, row: Sequence[Any]
) -> tuple[Any, ...] | None:
    if not schema.primary_key:
        return None
    names = [col.name for col in schema.columns]
    return tuple(row[names.index(c)] for c in schema.primary_key)


def outcome(fn, *args) -> tuple[str, Any]:
    try:
        return "ok", fn(*args)
    except (SchemaError, TypeMismatchError) as exc:
        return type(exc).__name__, str(exc)


def same_value(a: Any, b: Any) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def assert_same(got: tuple[str, Any], want: tuple[str, Any]) -> None:
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert same_value(g, w), (got, want)


# -- inputs: every kind of value a feed hands the warehouse ----------------------

scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**20), max_value=2**20).map(float),  # integral float
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**40), max_value=2**40).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(min_value=0, max_value=1000).map(lambda i: np.float64(i)),
    st.text(max_size=8),
)
json_values = st.one_of(
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    st.just({"bad": object()}),
    st.just(object()),
)
any_value = st.one_of(scalar_values, json_values)

ints = st.integers(min_value=-(2**40), max_value=2**40)
integral_floats = st.integers(min_value=-(2**20), max_value=2**20).map(float)
#: values each type stores, in every spelling it accepts (mostly so that a
#: row gets past its other columns and the coercions are exercised)
STORABLE = {
    C.INT: st.one_of(st.none(), ints, integral_floats, integral_floats.map(np.float64)),
    C.FLOAT: st.one_of(
        st.none(), ints, st.floats(), st.floats().map(np.float64)
    ),
    C.STR: st.one_of(st.none(), st.text(max_size=8)),
    C.BOOL: st.one_of(st.none(), st.booleans()),
    C.JSON: st.one_of(
        st.none(), ints, st.floats(allow_nan=False), st.text(max_size=4),
        st.lists(st.integers(), max_size=3),
    ),
}
STORABLE[C.TIMESTAMP] = STORABLE[C.INT]

#: a valid stored default for each type (or None: no default)
DEFAULTS = {
    C.INT: st.one_of(st.none(), st.integers(-5, 5)),
    C.TIMESTAMP: st.one_of(st.none(), st.integers(0, 2**31)),
    C.FLOAT: st.one_of(st.none(), st.floats(allow_nan=False)),
    C.STR: st.one_of(st.none(), st.text(max_size=4)),
    C.BOOL: st.one_of(st.none(), st.booleans()),
    C.JSON: st.one_of(st.none(), st.lists(st.integers(), max_size=2)),
}


@st.composite
def table_schemas(draw) -> TableSchema:
    ncols = draw(st.integers(min_value=1, max_value=6))
    columns = []
    for i in range(ncols):
        ctype = draw(st.sampled_from(list(C)))
        columns.append(Column(
            f"c{i}", ctype,
            nullable=draw(st.booleans()),
            default=draw(DEFAULTS[ctype]),
        ))
    names = [c.name for c in columns]
    pk = draw(st.lists(st.sampled_from(names), unique=True, max_size=min(3, ncols)))
    indexes = draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    return TableSchema("t", tuple(columns), primary_key=tuple(pk), indexes=tuple(indexes))


@st.composite
def schema_and_values(draw) -> tuple[TableSchema, dict[str, Any]]:
    schema = draw(table_schemas())
    values: dict[str, Any] = {}
    for col in schema.columns:
        kind = draw(st.sampled_from(("missing", "storable", "storable", "any")))
        if kind == "storable":
            values[col.name] = draw(STORABLE[col.ctype])
        elif kind == "any":
            values[col.name] = draw(any_value)
        # missing: the default applies
    if draw(st.integers(0, 9)) == 0:
        values["unknown_col"] = 1
    return schema, values


@settings(max_examples=600, deadline=None)
@given(schema_and_values())
def test_codec_matches_reference(case):
    schema, values = case
    got = outcome(schema.normalize_row, values)
    want = outcome(reference_normalize_row, schema, values)
    assert_same(got, want)
    if got[0] == "ok":
        key = schema.key_of(got[1])
        ref_key = reference_key_of(schema, want[1])
        if ref_key is None:
            assert key is None
        else:
            assert_same(("ok", key), ("ok", ref_key))


ALL_TYPES = TableSchema(
    "all",
    tuple(Column(f"c_{t.value}", t) for t in C)
    + (Column("k", C.INT, nullable=False), Column("req", C.STR, nullable=False)),
    primary_key=("c_int", "k"),
)


@pytest.mark.parametrize(
    "column, value",
    [
        ("c_int", True),            # bool is not an int
        ("c_float", False),         # ... nor a float
        ("c_int", 1.5),             # fractional float
        ("c_timestamp", np.int64(3)),
        ("c_str", 5),
        ("c_bool", 1),
        ("c_json", {"a": object()}),
        ("c_int", None),            # NULL in a primary-key column
        ("k", None),                # NULL in a non-nullable primary-key column
        ("req", None),              # NULL in a non-nullable column
        ("nope", 1),                # unknown key
    ],
)
def test_rejections_match_reference(column, value):
    values = {"c_int": 1, "k": 2, "req": "r", column: value}
    got = outcome(ALL_TYPES.normalize_row, values)
    assert got[0] != "ok"
    assert_same(got, outcome(reference_normalize_row, ALL_TYPES, values))


def test_stored_forms_match_reference():
    values = {
        "c_int": 4.0, "c_float": np.float64(2.5), "c_str": "s",
        "c_bool": False, "c_timestamp": 7, "c_json": [1, {"a": 2}],
        "k": 3, "req": "r",
    }
    row = ALL_TYPES.normalize_row(values)
    assert_same(("ok", row), ("ok", reference_normalize_row(ALL_TYPES, values)))
    assert type(row[0]) is int and type(row[1]) is float
    assert ALL_TYPES.key_of(row) == (4, 3)


def test_unknown_position_raises_schema_error():
    with pytest.raises(SchemaError):
        ALL_TYPES.position("nope")
    with pytest.raises(SchemaError):
        ALL_TYPES.column("nope")
    assert ALL_TYPES.column("k").name == "k"
