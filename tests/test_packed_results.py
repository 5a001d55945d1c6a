"""Packed query results: a plain SELECT's numeric columns stay buffers.

A plain SELECT's final pipeline runs into a :class:`~repro.engine.output.RowSink`,
which takes the kernels' ``int64`` / ``float64`` gathers as arrays, and the
result table is built from them the way a bushy plan's intermediates are
(:func:`repro.engine.pipeline.result_table`): a clean INT / FLOAT column the
kernels gathered is one read-only ``memoryview``; TEXT, NULL-bearing, bool,
NaN and row-path columns are lists.  Whatever the storage, a result table
must have the rows, reprs, dtypes and fingerprint ``Table.from_rows`` would
give, and every row view of the join result must hold Python values only —
on the three plan policies x ``REPRO_KERNELS`` on/off x serial / thread /
process.
"""

from __future__ import annotations

import pytest

from repro import ExecOptions
from repro.engine.session import Database
from repro.errors import SchemaError
from repro.storage.catalog import Catalog
from repro.storage.table import Table

ENGINES = ("freejoin", "binary", "generic")

BACKENDS = {
    "serial": {},
    "thread": {"parallelism": 2, "parallel_mode": "thread"},
    "process": {"parallelism": 2, "parallel_mode": "process"},
}


def _catalog() -> Catalog:
    catalog = Catalog()
    for name, data in {
        "r": {
            "a": [1, 2, 2, 3, 4],
            "f": [0.5, -0.0, 2.25, 1e300, -3.5],
            "s": ["one", "two", "deux", "three", "four"],
            "n": [1, None, 2, 3, None],
            "b": [True, False, True, False, True],
            "nan": [float("nan"), 1.5, 0.0, 2.5, float("nan")],
            "big": [2**63 - 1, -(2**63 - 1), 0, -1, 7],
        },
        "t": {"a": [1, 2, 2, 3, 5], "g": [10, 20, 21, 30, 50]},
        "z": {"a": [100, 200], "h": [1.0, 2.0]},
    }.items():
        catalog.register(Table.from_columns(name, data))
    return catalog


JOIN = "FROM r, t WHERE r.a = t.a"

#: case -> (SQL, the result labels the kernels hand over packed)
CASES = {
    "every-kind": (
        f"SELECT r.a, r.f, r.s, r.n, r.b, r.nan, r.big, t.g {JOIN}",
        {"r.a", "r.f", "r.big", "t.g"},
    ),
    "select-star": (f"SELECT * {JOIN}", {"r_a", "r_f", "r_big", "t_g"}),
    "selected-twice": (
        f"SELECT t.g, r.s, t.g AS g2, r.s AS s2 {JOIN}",
        {"t.g", "g2"},
    ),
    "empty": ("SELECT r.a, r.f, z.h FROM r, z WHERE r.a = z.a", set()),
    # The final pass rebuilds the table from rows: lists, like from_rows.
    "order-by": (f"SELECT r.a, t.g, r.f {JOIN} ORDER BY t.g DESC", set()),
    "limit": (f"SELECT r.a, t.g {JOIN} ORDER BY r.a LIMIT 3", set()),
    "distinct": (f"SELECT DISTINCT r.a, r.s {JOIN}", set()),
}


@pytest.fixture(scope="module")
def databases():
    sessions = {name: Database(_catalog(), **configure) for name, configure in BACKENDS.items()}
    yield sessions
    for session in sessions.values():
        session.close()


def _assert_built_like_from_rows(table):
    """Same rows, reprs, dtypes and fingerprint as ``Table.from_rows``."""
    rebuilt = Table.from_rows(table.name, table.column_names, table.to_rows())
    assert repr(table.to_rows()) == repr(rebuilt.to_rows())
    assert [c.dtype for c in table.columns] == [c.dtype for c in rebuilt.columns]
    assert table.fingerprint() == rebuilt.fingerprint()


def _python_values(rows):
    return all(type(value) in (int, float, str, bool, type(None)) for row in rows for value in row)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_result_columns_pack_and_read_like_from_rows(
    monkeypatch, databases, case, engine, kernels, backend
):
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    sql, packed = CASES[case]
    database = databases[backend]
    outcome = database.execute(sql, options=ExecOptions(engine=engine))
    serial = databases["serial"].execute(sql, options=ExecOptions(engine="binary"))
    table = outcome.table

    assert sorted(map(repr, outcome.rows())) == sorted(map(repr, serial.rows()))
    _assert_built_like_from_rows(table)
    storage = {c.name for c in table.columns if isinstance(c.values, memoryview)}
    assert storage == (packed if kernels == "on" else set())
    assert all(isinstance(c.values, list) for c in table.columns if c.name not in storage)
    if case == "empty":
        assert table.num_rows == 0
        assert [c.dtype for c in table.columns] == ["TEXT"] * 3

    result = outcome.join_result
    for rows in (result.to_rows(), list(result.iter_rows()), result.sorted_rows()):
        assert _python_values(rows)
    assert _python_values(zip(*result.columns()))
    assert result.same_bag(result)
    assert result.count() == len(result.to_rows())


def test_a_variable_selected_twice_gets_a_column_of_its_own(databases):
    table = databases["serial"].execute(CASES["selected-twice"][0]).table
    g, s, g2, s2 = table.columns
    assert isinstance(g.values, memoryview) and isinstance(g2.values, memoryview)
    assert g.values.readonly and g2.values == g.values
    assert isinstance(s.values, list) and s2.values == s.values and s2.values is not s.values


def test_appending_to_a_packed_result_raises(databases):
    table = databases["serial"].execute(CASES["every-kind"][0]).table
    assert isinstance(table.column("r.a").values, memoryview)
    before = table.to_rows()
    with pytest.raises(SchemaError, match="cannot be mutated"):
        table.append_rows([before[0]])
    assert table.to_rows() == before
