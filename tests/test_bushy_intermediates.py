"""Bushy plans: what a non-final pipeline hands the next one.

A bushy plan's right subtrees run first and are materialized as flat tables
(Section 5.2) that later pipelines see as atoms.  Those tables sit on the
kernel plane's cache keys — a sorted index is keyed by its atom's
``Table.fingerprint()`` — so *how* an intermediate is built
may change, but its rows, their order, its column dtypes and its fingerprint
may not: they must equal the table the pipeline's result rows would build
through ``Table.from_rows``.

Every shape an intermediate can take (bag multiplicities, NULL join keys, an
INT column meeting a FLOAT one, TEXT payloads, no rows at all, a single
column kept only to carry the cardinality, int64 bounds, ints beyond int64,
bools, NaN and -0.0) runs on the three plan policies x ``REPRO_KERNELS``
on/off x serial / thread / process against the independent nested-loop
reference.  On the kernel path, a column the kernels gathered as int64 /
float64 stays packed (a ``memoryview`` over the buffer); every other column
is a list.
"""

from __future__ import annotations

import pytest

from repro.engine.aggregates import aggregate_result, finalize_output
from repro.kernels import executor as kernel_executor
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
        # Clean numeric columns (the kernels' packed kinds) beside the
        # values that must stay Python objects: ints beyond int64, bools,
        # NaN.  kf's FLOAT keys meet w's and r's INT ones.
        "k": {"c": [7, 8, 9, 7], "d": [1, 2, 3, 5]},
        "kf": {"d": [1.0, 2.0, 3.0, 5.0, 2.0], "g": [-0.0, 0.5, 1.5, -2.5, 0.25]},
        "w": {
            "d": [1, 2, 2, 3, 5, 6],
            "big": [2**63 - 1, -(2**63 - 1), 0, -1, 2**62, 6],
            "huge": [2**63, -(2**63) - 1, 0, 1, 2**64, 6],
            "flag": [True, False, True, False, True, True],
            "nan": [float("nan"), 1.5, -0.0, float("nan"), 2.5, 0.0],
            "neg0": [-0.0, 1.5, -0.0, 0.0, -2.5, 3.25],
        },
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

#: case -> (SQL, the right subtree's relations in pipeline order, the
#: intermediate's columns the kernels hand over packed)
CASES = {
    # v binds nothing read later: its matches are bag multiplicities > 1.
    "multiplicities": (
        f"SELECT r.a, u.e FROM r, s, t, u, v WHERE {SPINE} AND t.d = u.d AND t.d = v.d",
        ("t", "u", "v"),
        frozenset(),
    ),
    "count-over-multiplicities": (
        f"SELECT COUNT(*) FROM r, s, t, u, v WHERE {SPINE} AND t.d = u.d AND t.d = v.d",
        ("t", "u", "v"),
        frozenset(),
    ),
    # The NULL-bearing key columns themselves cross the pipeline boundary.
    "null-join-keys": (
        f"SELECT s.c, t.d, r.a FROM r, s, t, u WHERE {SPINE} AND t.d = u.d",
        ("t", "u"),
        frozenset(),
    ),
    "int-joins-float": (
        f"SELECT r.a, uf.e FROM r, s, t, uf WHERE {SPINE} AND t.d = uf.d",
        ("t", "uf"),
        frozenset(),
    ),
    "text-payload": (
        f"SELECT u.e, MIN(r.a), COUNT(*) FROM r, s, t, u WHERE {SPINE} AND t.d = u.d GROUP BY u.e",
        ("t", "u"),
        frozenset(),
    ),
    "zero-rows": (
        f"SELECT r.a, z.h FROM r, s, t, z WHERE {SPINE} AND t.d = z.d",
        ("t", "z"),
        frozenset(),
    ),
    # Nothing outside v JOIN z reads any of its variables: it keeps one
    # column, only to carry its cardinality into the product.
    "cardinality-carrier": (
        "SELECT r.a FROM r, s, u, v WHERE r.b = s.b AND u.d = v.d",
        ("u", "v"),
        frozenset(),
    ),
    "int64-bounds": (
        "SELECT r.a, w.big FROM r, s, k, w WHERE r.b = s.b AND s.c = k.c AND k.d = w.d",
        ("k", "w"),
        {"s_c", "w_big"},
    ),
    "beyond-int64": (
        "SELECT r.a, w.huge FROM r, s, k, w WHERE r.b = s.b AND s.c = k.c AND k.d = w.d",
        ("k", "w"),
        {"s_c"},
    ),
    "bool-payload": (
        "SELECT r.a, w.flag FROM r, s, k, w WHERE r.b = s.b AND s.c = k.c AND k.d = w.d",
        ("k", "w"),
        {"s_c"},
    ),
    "nan-and-negative-zero": (
        "SELECT r.a, w.nan, w.neg0 FROM r, s, k, w "
        "WHERE r.b = s.b AND s.c = k.c AND k.d = w.d",
        ("k", "w"),
        {"s_c", "w_neg0"},
    ),
    # FLOAT keys meet INT ones inside the subtree (kf.d = w.d) and across
    # the boundary (r.a probes the intermediate's d).  The key itself is not
    # selected: which binder's value (1 or 1.0) a join variable reports is
    # the plan policy's choice.
    "int-key-meets-float-key": (
        "SELECT kf.g, w.big FROM r, s, kf, w WHERE r.b = s.b AND r.a = kf.d AND kf.d = w.d",
        ("kf", "w"),
        {"r_a", "kf_g", "w_big"},
    ),
}

#: Packed columns that depend on the plan policy: the variable both u and v
#: bind decodes from the relation the policy binds it in last — v (clean
#: INTs) on binary, u (NULL-bearing, so a list) on Free Join.
ENGINE_PACKED = {("cardinality-carrier", "binary"): {"u_d"}}

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


def _bag(rows):
    """Rows as a comparable bag that tells ``True`` from ``1``, ``-0.0``
    from ``0.0`` and matches NaN with NaN."""
    return sorted(map(repr, canonicalize(rows, ordered=False)))


def _run(database, sql, right, engine):
    """Run ``sql`` on the bushy plan; check it against the reference."""
    expected = _bag(reference_rows(database.catalog, parse_sql(sql)))
    logical = Planner(database.catalog).plan_sql(sql)
    report = database.run_join(logical, _bushy(*right), engine)
    table = finalize_output(aggregate_result(report.result, logical), logical)
    assert _bag(table.to_rows()) == expected
    return report


def _assert_built_like_from_rows(built):
    """Same rows, row order, dtypes and fingerprint as ``Table.from_rows``."""
    from_rows = Table.from_rows(built.name, built.column_names, built.to_rows())
    assert repr(built.to_rows()) == repr(from_rows.to_rows())
    assert [c.dtype for c in built.columns] == [c.dtype for c in from_rows.columns]
    assert built.fingerprint() == from_rows.fingerprint()


def _packed(table):
    return {c.name for c in table.columns if isinstance(c.values, memoryview)}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bushy_plan_matches_the_reference_and_pins_its_intermediates(
    monkeypatch, databases, intermediates, case, engine, kernels, backend
):
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    sql, right, packed = CASES[case]
    report = _run(databases[backend], sql, right, engine)

    # Generic Join runs any plan as one pipeline; the other two materialize
    # the right subtree.
    assert len(intermediates) == (0 if engine == "generic" else 1)
    assert report.details["num_pipelines"] == 1 + len(intermediates)
    for built in intermediates:
        assert built.name.startswith(BinaryPlan.INTERMEDIATE_PREFIX)
        _assert_built_like_from_rows(built)
        # Kernel-path INT / FLOAT gathers stay packed; everything else —
        # TEXT, NULL-bearing, bool, NaN, beyond int64, the row path — is a list.
        expected = set(packed) | ENGINE_PACKED.get((case, engine), set())
        assert _packed(built) == (expected if kernels == "on" else set())
        assert all(type(c.values) is list for c in built.columns if c.name not in expected)
        assert [entry["packed_columns"] for entry in report.details["intermediates"]] == [
            [c.name for c in built.columns if c.name in _packed(built)]
        ]
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

    Fingerprints are compared over the packed columns only: a TEXT column
    digests as a pickle, which tells one shared string object from equal
    copies that crossed a process.
    """
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    for case in sorted(CASES):
        sql, right, _packed_columns = CASES[case]
        built = set()
        for backend in sorted(BACKENDS):
            logical = Planner(databases[backend].catalog).plan_sql(sql)
            databases[backend].run_join(logical, _bushy(*right), engine)
            table = intermediates.pop()
            schema = [(column.name, column.dtype) for column in table.columns]
            packed = [c for c in table.columns if c.name in _packed(table)]
            fingerprint = Table(table.name, packed).fingerprint() if packed else None
            built.add(repr((schema, table.to_rows(), fingerprint)))
        assert not intermediates
        assert len(built) == 1, case


@pytest.mark.parametrize("engine", ["freejoin", "binary"])
def test_one_task_on_the_row_path_lists_the_intermediate(monkeypatch, intermediates, engine):
    """A task that falls back hands over lists beside the others' arrays.

    The hot key's task explodes past the (lowered) frontier guard and
    re-runs on the row path; the rest stay on the kernels.  A column mixing
    both is built as a list, still exactly what ``Table.from_rows`` gives.
    """
    monkeypatch.setenv("REPRO_KERNELS", "on")
    monkeypatch.setattr(kernel_executor, "FRONTIER_GUARD_ROWS", 40)
    catalog = _catalog()
    keys = [1] * 10 + list(range(2, 40))
    catalog.register(Table.from_columns("hot", {"d": keys, "p": list(range(len(keys)))}))
    catalog.register(Table.from_columns("fan", {"d": keys, "q": [2 * k for k in keys]}))
    sql = (
        "SELECT r.a, hot.p, fan.q FROM r, s, hot, fan "
        "WHERE r.b = s.b AND r.a = hot.d AND hot.d = fan.d"
    )
    database = Database(catalog, parallelism=2, parallel_mode="thread")
    try:
        report = _run(database, sql, ("hot", "fan"), engine)
    finally:
        database.close()
    (built,) = intermediates
    _assert_built_like_from_rows(built)
    subtree = report.details["parallel"][0]  # the intermediate's pipeline
    assert 0 < subtree["kernels_fallbacks"].count("frontier-explosion") < subtree["tasks"]
    assert _packed(built) == set()
    assert report.details["intermediates"][0]["rows"] == built.num_rows == 100 + 38
