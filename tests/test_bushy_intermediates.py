"""Bushy plans: what a non-final pipeline hands the next one.

A bushy plan's right subtrees run first and are materialized as flat tables
(Section 5.2) that later pipelines see as atoms.  Those tables sit on the
kernel plane's cache keys — a compiled program and a sorted index are keyed
by their atoms' ``Table.fingerprint()`` — so *how* an intermediate is built
may change, but its rows, their order, its column dtypes and its fingerprint
may not: they must equal the table the pipeline's result rows would build
through ``Table.from_rows``.

Every shape an intermediate can take (bag multiplicities, NULL join keys, an
INT column meeting a FLOAT one, TEXT payloads, no rows at all, a single
column kept only to carry the cardinality) runs on the three plan policies x
``REPRO_KERNELS`` on/off x serial / thread / process against the independent
nested-loop reference.
"""

from __future__ import annotations

import pytest

from repro.engine.aggregates import post_join
from repro.engine.session import Database
from repro.experiments.differential import canonicalize, reference_rows
from repro.optimizer.binary_plan import BinaryPlan, JoinNode, LeafNode
from repro.query.planner import Planner
from repro.query.sql import parse_sql
from repro.storage.catalog import Catalog
from repro.storage.table import Table


def _catalog() -> Catalog:
    catalog = Catalog()
    for name, data in {
        # The left spine r - s ...
        "r": {"a": [1, 2, 2, 3, 4, 5], "b": [10, 20, 20, 30, None, 40]},
        "s": {"b": [10, 20, 20, 30, None, 50], "c": [7, 8, 8, 9, 7, None]},
        # ... and what the right subtrees are made of: duplicate and NULL
        # keys in t, a TEXT payload in u, fan-out on d in v.
        "t": {"c": [7, 7, 8, 9, None, 9], "d": [1, 2, 2, 3, 1, None]},
        "u": {"d": [1, 2, 2, 3, None, 5], "e": ["one", "two", "deux", None, "nil", "five"]},
        "v": {"d": [1, 1, 1, 2, 2, 3, 6], "f": [0, 0, 1, 2, 2, 3, 4]},
        # The same keys as FLOATs, and keys nothing matches.
        "uf": {"d": [1.0, 2.0, 2.5, 3.0, None], "e": ["one", "two", "half", "three", "nil"]},
        "z": {"d": [100, 200], "h": [1, 2]},
    }.items():
        catalog.register(Table.from_columns(name, data))
    return catalog


def _bushy(*right) -> BinaryPlan:
    """``(r JOIN s) JOIN (right[0] JOIN right[1] JOIN ...)``."""
    subtree = LeafNode(right[0])
    for name in right[1:]:
        subtree = JoinNode(subtree, LeafNode(name))
    return BinaryPlan(JoinNode(JoinNode(LeafNode("r"), LeafNode("s")), subtree))


SPINE = "r.b = s.b AND s.c = t.c"

#: case -> (SQL, the right subtree's relations in pipeline order)
CASES = {
    # v binds nothing read later: its matches are bag multiplicities > 1.
    "multiplicities": (
        f"SELECT r.a, u.e FROM r, s, t, u, v WHERE {SPINE} AND t.d = u.d AND t.d = v.d",
        ("t", "u", "v"),
    ),
    "count-over-multiplicities": (
        f"SELECT COUNT(*) FROM r, s, t, u, v WHERE {SPINE} AND t.d = u.d AND t.d = v.d",
        ("t", "u", "v"),
    ),
    # The NULL-bearing key columns themselves cross the pipeline boundary.
    "null-join-keys": (
        f"SELECT s.c, t.d, r.a FROM r, s, t, u WHERE {SPINE} AND t.d = u.d",
        ("t", "u"),
    ),
    "int-joins-float": (
        f"SELECT r.a, uf.e FROM r, s, t, uf WHERE {SPINE} AND t.d = uf.d",
        ("t", "uf"),
    ),
    "text-payload": (
        f"SELECT u.e, MIN(r.a), COUNT(*) FROM r, s, t, u WHERE {SPINE} AND t.d = u.d GROUP BY u.e",
        ("t", "u"),
    ),
    "zero-rows": (
        f"SELECT r.a, z.h FROM r, s, t, z WHERE {SPINE} AND t.d = z.d",
        ("t", "z"),
    ),
    # Nothing outside v JOIN z reads any of its variables: it keeps one
    # column, only to carry its cardinality into the product.
    "cardinality-carrier": (
        "SELECT r.a FROM r, s, u, v WHERE r.b = s.b AND u.d = v.d",
        ("u", "v"),
    ),
}

BACKENDS = {
    "serial": {},
    "thread": {"parallelism": 2, "parallel_mode": "thread"},
    "process": {"parallelism": 2, "parallel_mode": "process"},
}


@pytest.fixture(scope="module")
def databases():
    sessions = {name: Database(_catalog(), **configure) for name, configure in BACKENDS.items()}
    yield sessions
    for session in sessions.values():
        session.close()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bushy_plan_matches_the_reference_and_pins_its_intermediates(
    monkeypatch, databases, intermediates, case, engine, kernels, backend
):
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    sql, right = CASES[case]
    database = databases[backend]
    expected = canonicalize(reference_rows(database.catalog, parse_sql(sql)), ordered=False)
    logical = Planner(database.catalog).plan_sql(sql)
    report = database.run_join(logical, _bushy(*right), engine)
    _result, table = post_join(report.result, logical, report.details)
    assert canonicalize(table.to_rows(), ordered=False) == expected

    # Generic Join runs any plan as one pipeline; the other two materialize
    # the right subtree.
    assert len(intermediates) == (0 if engine == "generic" else 1)
    assert report.details["num_pipelines"] == 1 + len(intermediates)
    for built in intermediates:
        assert built.name.startswith(BinaryPlan.INTERMEDIATE_PREFIX)
        from_rows = Table.from_rows(built.name, built.column_names, built.to_rows())
        assert [c.dtype for c in built.columns] == [c.dtype for c in from_rows.columns]
        assert built.fingerprint() == from_rows.fingerprint()
        assert all(type(column.values) is list for column in built.columns)
        if case == "cardinality-carrier":
            assert built.arity == 1
        if case == "zero-rows":
            assert built.num_rows == 0


@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ["freejoin", "binary"])
def test_intermediates_are_identical_on_every_backend(
    monkeypatch, databases, intermediates, engine, kernels
):
    """Same columns, dtypes and rows in the same order, whoever ran the tasks.

    (Not fingerprints: a TEXT column digests as a pickle, which tells one
    shared string object from equal copies that crossed a process.  Not
    ``int-joins-float``: a join variable that is an INT on one side and a
    FLOAT on the other is decoded from whichever side the executing path
    binds it last, and a tiny steal task may take the row path.)
    """
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    for case in sorted(set(CASES) - {"int-joins-float"}):
        sql, right = CASES[case]
        built = set()
        for backend in sorted(BACKENDS):
            logical = Planner(databases[backend].catalog).plan_sql(sql)
            databases[backend].run_join(logical, _bushy(*right), engine)
            table = intermediates.pop()
            schema = [(column.name, column.dtype) for column in table.columns]
            built.add(repr((schema, table.to_rows())))
        assert not intermediates
        assert len(built) == 1, case
