"""Tests for the column-oriented storage layer."""

import pytest
from hypothesis import given, strategies as st

from repro.datatypes import (
    FLOAT,
    INT,
    TEXT,
    columns_to_rows,
    infer_column_type,
    infer_type,
    parse_value,
    rows_to_columns,
    unify_types,
)
from repro.errors import CatalogError, SchemaError
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table


class TestColumn:
    def test_basic_construction_and_length(self):
        column = Column("x", [1, 2, 3])
        assert len(column) == 3
        assert list(column) == [1, 2, 3]
        assert column.dtype == INT

    def test_type_inference_widens_to_text(self):
        assert Column("x", [1, "a"]).dtype == TEXT

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", [1])

    def test_take_returns_selected_offsets(self):
        column = Column("x", [10, 20, 30, 40])
        assert column.take([3, 0, 0]).values == [40, 10, 10]

    def test_distinct_and_min_max(self):
        column = Column("x", [3, 1, 3, None])
        assert column.distinct_count() == 3
        assert column.min_max() == (1, 3)
        assert column.null_count() == 1

    def test_min_max_all_null(self):
        assert Column("x", [None, None]).min_max() == (None, None)

    def test_rename_shares_values(self):
        column = Column("x", [1])
        renamed = column.rename("y")
        assert renamed.name == "y"
        assert renamed.values is column.values


class TestTable:
    def test_from_rows_roundtrip(self):
        table = Table.from_rows("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert table.to_rows() == [(1, "x"), (2, "y")]
        assert table.column_names == ["a", "b"]
        assert table.arity == 2
        assert table.num_rows == 2

    def test_from_columns_roundtrip(self):
        table = Table.from_columns("t", {"a": [1, 2], "b": [3, 4]})
        assert table.row(1) == (2, 4)

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", [1]), Column("a", [2])])

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", [1]), Column("b", [1, 2])])

    def test_unknown_column_lookup_raises(self):
        table = Table.from_columns("t", {"a": [1]})
        with pytest.raises(SchemaError):
            table.column("missing")

    def test_row_values_selected_columns(self):
        table = Table.from_columns("t", {"a": [1, 2], "b": [3, 4], "c": [5, 6]})
        assert table.row_values(1, ["c", "a"]) == (6, 2)

    def test_filter_preserves_bag_semantics(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,), (1,), (3,)])
        filtered = table.filter(lambda row: row[0] == 1)
        assert filtered.to_rows() == [(1,), (1,)]

    def test_project_keeps_duplicates(self):
        table = Table.from_rows("t", ["a", "b"], [(1, 2), (1, 3)])
        assert table.project(["a"]).to_rows() == [(1,), (1,)]

    def test_distinct_removes_duplicates(self):
        table = Table.from_rows("t", ["a"], [(1,), (1,), (2,)])
        assert table.distinct().to_rows() == [(1,), (2,)]

    def test_take_and_head(self):
        table = Table.from_rows("t", ["a"], [(i,) for i in range(10)])
        assert table.take([9, 0]).to_rows() == [(9,), (0,)]
        assert table.head(3).num_rows == 3

    def test_concat_requires_same_schema(self):
        left = Table.from_columns("t", {"a": [1]})
        right = Table.from_columns("u", {"b": [2]})
        with pytest.raises(SchemaError):
            left.concat(right)

    def test_concat_appends_rows(self):
        left = Table.from_columns("t", {"a": [1]})
        right = Table.from_columns("t", {"a": [2]})
        assert left.concat(right).to_rows() == [(1,), (2,)]

    def test_rename_columns(self):
        table = Table.from_columns("t", {"a": [1]})
        assert table.rename_columns({"a": "z"}).column_names == ["z"]

    def test_same_bag_ignores_order(self):
        first = Table.from_rows("t", ["a", "b"], [(1, 2), (3, 4)])
        second = Table.from_rows("u", ["x", "y"], [(3, 4), (1, 2)])
        assert first.same_bag(second)

    def test_same_bag_respects_multiplicity(self):
        first = Table.from_rows("t", ["a"], [(1,), (1,)])
        second = Table.from_rows("t", ["a"], [(1,)])
        assert not first.same_bag(second)


class TestCatalog:
    def test_register_and_get(self):
        catalog = Catalog()
        table = Table.from_columns("t", {"a": [1]})
        catalog.register(table)
        assert catalog.get("t") is table
        assert "t" in catalog
        assert catalog.table_names() == ["t"]

    def test_duplicate_registration_rejected(self):
        catalog = Catalog()
        catalog.register(Table.from_columns("t", {"a": [1]}))
        with pytest.raises(CatalogError):
            catalog.register(Table.from_columns("t", {"a": [2]}))

    def test_replace_allows_overwrite(self):
        catalog = Catalog()
        catalog.register(Table.from_columns("t", {"a": [1]}))
        replacement = Table.from_columns("t", {"a": [2]})
        catalog.register(replacement, replace=True)
        assert catalog.get("t") is replacement

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.register(Table.from_columns("t", {"a": [1]}))
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop("t")

    def test_total_rows(self):
        catalog = Catalog()
        catalog.register(Table.from_columns("t", {"a": [1, 2]}))
        catalog.register(Table.from_columns("u", {"a": [1]}))
        assert catalog.total_rows() == 3


class TestDatatypes:
    def test_parse_value_prefers_int_then_float_then_text(self):
        assert parse_value("42") == 42
        assert parse_value("4.5") == 4.5
        assert parse_value("abc") == "abc"
        assert parse_value("") is None

    def test_rows_columns_roundtrip(self):
        rows = [(1, "a"), (2, "b")]
        columns = rows_to_columns(rows, 2)
        assert columns_to_rows(columns) == rows

    def test_rows_to_columns_arity_mismatch(self):
        with pytest.raises(ValueError):
            rows_to_columns([(1, 2), (1,)], 2)

    def test_infer_column_type_all_null_defaults_to_text(self):
        assert infer_column_type([None, None]) == TEXT


def _infer_column_type_by_value(values):
    """The per-value loop ``infer_column_type`` replaced, kept as its oracle."""
    current = None
    for value in values:
        current = unify_types(current, infer_type(value))
        if current == TEXT:
            break
    return current if current is not None else TEXT


_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True), st.text(max_size=3)
)


class TestInferColumnType:
    @given(st.lists(_VALUES, max_size=12))
    def test_matches_the_per_value_loop(self, values):
        assert infer_column_type(values) == _infer_column_type_by_value(values)

    @given(st.lists(st.one_of(st.none(), st.booleans(), st.integers()), min_size=1))
    def test_bools_and_nulls_do_not_widen_ints(self, values):
        expected = TEXT if all(value is None for value in values) else INT
        assert infer_column_type(values) == expected

    def test_edges(self):
        assert infer_column_type([]) == TEXT
        assert infer_column_type([None] * 5) == TEXT
        assert infer_column_type([True, False]) == INT
        assert infer_column_type([1, None, 2.5]) == FLOAT
        assert infer_column_type([2.5, 1, "a", None]) == TEXT

    def test_the_table_columns_are_typed_like_the_loop(self):
        table = Table.from_rows("t", ["a", "b", "c"], [(1, 1.5, None), (None, 2, "x")])
        assert [c.dtype for c in table.columns] == [INT, FLOAT, TEXT]

    def test_unsupported_type_is_rejected_wherever_it_stands(self):
        with pytest.raises(TypeError):
            infer_column_type([1, object()])
        # The per-value loop stopped at the first string and let this pass.
        assert _infer_column_type_by_value(["a", object()]) == TEXT
        with pytest.raises(TypeError):
            infer_column_type(["a", object()])


def test_to_rows_is_one_zip_over_every_column_representation():
    table = Table.from_columns("t", {"x": [1, 2, 3], "y": ["a", None, "c"]})
    assert table.to_rows() == list(table.iter_rows()) == [(1, "a"), (2, None), (3, "c")]
    assert table.to_rows() == columns_to_rows([c.values for c in table.columns])
    assert columns_to_rows([]) == [] and columns_to_rows([[], []]) == []
    packed = Table("p", [Column("x", [], dtype=INT)])
    packed.columns[0].values = memoryview(bytes(16)).cast("q")  # an shm attachment's view
    assert packed.to_rows() == list(packed.iter_rows()) == [(0,), (0,)]


def test_packed_columns_are_one_representation_with_shm_attachments():
    """A column built from kernel gathers is the storage an attachment holds.

    Packed: a cast ``memoryview`` whose dtype, rows and fingerprint equal a
    list column's over the same values, exported to shared memory as its
    own buffer and attached back unchanged.  Any list part, or no rows at
    all, gives a list column exactly as ``Table.from_rows`` would.
    """
    np = pytest.importorskip("numpy")
    from repro.kernels.encoding import gathered_column
    from repro.storage import shm

    ints = gathered_column("i", [np.array([2**63 - 1, -(2**63 - 1)]), np.array([7])], [None, [2]])
    floats = gathered_column("f", [np.array([-0.0, 1.5]), np.array([2.5, 0.25])], [None, None])
    table = Table("packed", [ints, floats])
    listed = Table.from_rows("packed", ["i", "f"], table.to_rows())
    rows = [(2**63 - 1, -0.0), (-(2**63 - 1), 1.5), (7, 2.5), (7, 0.25)]
    assert repr(table.to_rows()) == repr(rows)
    assert [type(c.values) for c in table.columns] == [memoryview, memoryview]
    assert [c.dtype for c in table.columns] == [c.dtype for c in listed.columns] == [INT, FLOAT]
    assert table.fingerprint() == listed.fingerprint()

    handle = shm.export_table(table)
    attached, attachment = shm.attach_table(handle)
    try:
        assert [type(c.values) for c in attached.columns] == [memoryview, memoryview]
        assert repr(attached.to_rows()) == repr(table.to_rows())
        assert attached.fingerprint() == table.fingerprint()
    finally:
        del attached
        attachment.close()

    mixed = gathered_column("i", [np.array([1, 2]), [True, 3]], [np.array([1, 2]), None])
    assert type(mixed.values) is list and repr(mixed.values) == "[1, 2, 2, True, 3]"
    assert mixed.dtype == INT
    empty = gathered_column("i", [np.array([], dtype=np.int64)], [None])
    assert empty.values == [] and empty.dtype == Column("i", []).dtype
