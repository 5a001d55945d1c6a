"""Late materialization: the final pipeline emits only what the query reads.

``LogicalQuery.needed_variables`` narrows the join's output to the variables
the post-join pass reads, and the kernels' backward pass turns every probe
that binds nothing read later into a multiplicity.  Both are easy to get
subtly wrong — a dropped column that a residual predicate, a LEFT JOIN key
or a hidden GROUP BY key still needed; a duplicate lost with its column —
so every shape pruning can get wrong runs here on the full engine matrix
(3 engines x ``REPRO_KERNELS`` on/off x serial / thread / process) against
the independent nested-loop reference.
"""

from __future__ import annotations

import pytest

from repro.engine.aggregates import output_mode, post_join
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.experiments.differential import (
    DifferentialRunner,
    canonicalize,
    default_configs,
    reference_rows,
)
from repro.optimizer.binary_plan import BinaryPlan, JoinNode, LeafNode
from repro.query.planner import Planner
from repro.query.sql import parse_sql
from repro.storage.catalog import Catalog
from repro.storage.table import Table


def _catalog() -> Catalog:
    """A chain r - s - t - u with duplicates, NULLs and dangling rows."""
    catalog = Catalog()
    catalog.register(Table.from_columns("r", {
        "a": [1, 2, 2, 3, 4, 4], "b": [10, 20, 20, 30, 40, None], "p": [5, 6, 6, 7, 8, 9],
    }))
    catalog.register(Table.from_columns("s", {
        "b": [10, 20, 20, 30, 50], "c": [7, 8, 8, 9, 7], "q": [1.5, None, 2.5, 3.5, 4.5],
    }))
    catalog.register(Table.from_columns("t", {
        "c": [7, 7, 8, 9, 9], "d": [1, 2, 2, 3, 4],
    }))
    catalog.register(Table.from_columns("u", {
        "d": [1, 2, 2, 3, 5], "e": [100, 200, 300, 400, 500],
    }))
    catalog.register(Table.from_columns("opt", {
        "c": [7, 8, 8, 11], "z": [70, 80, 81, 110],
    }))
    return catalog


CHAIN = "FROM r, s, t WHERE r.b = s.b AND s.c = t.c"

#: shape -> SQL.  Each one leaves at least one join variable or payload
#: column unread by the SELECT list.
SHAPES = {
    "count-star-only": f"SELECT COUNT(*) {CHAIN}",
    "aggregate-over-join-key": f"SELECT MIN(r.b), MAX(s.c), SUM(t.c), COUNT(s.b) {CHAIN}",
    "same-variable-twice": f"SELECT r.a, r.a AS a2, t.d, s.b, r.b {CHAIN}",
    "same-variable-aggregated-twice": f"SELECT MIN(s.q), MAX(s.q), AVG(s.q), COUNT(s.q) {CHAIN}",
    "group-key-not-selected": f"SELECT COUNT(*), MIN(t.d) {CHAIN} GROUP BY r.a",
    "residual-over-unread-variable": f"SELECT r.a, COUNT(*) {CHAIN} AND r.p > t.d GROUP BY r.a",
    "residual-aggregate-ungrouped": f"SELECT SUM(s.q), COUNT(*) {CHAIN} AND r.p <> t.d",
    "left-join-key-unread": (
        "SELECT r.a, opt.z FROM r, s LEFT JOIN opt ON opt.c = s.c WHERE r.b = s.b"
    ),
    "left-join-aggregate": (
        "SELECT r.a, COUNT(opt.z), COUNT(*) FROM r, s LEFT JOIN opt ON opt.c = s.c "
        "WHERE r.b = s.b GROUP BY r.a"
    ),
    "order-by-limit": f"SELECT t.d, r.a {CHAIN} ORDER BY t.d DESC, r.a LIMIT 4",
    "grouped-having-order": (
        f"SELECT s.c, COUNT(*) {CHAIN} GROUP BY s.c HAVING COUNT(*) > 1 "
        "ORDER BY COUNT(*) DESC, s.c"
    ),
}


@pytest.fixture(scope="module")
def runner():
    runner = DifferentialRunner(_catalog())
    yield runner
    runner.close()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_configuration_matches_the_reference(runner, shape):
    assert len(runner.configs) == len(default_configs()) == 18
    divergences = runner.check_sql(SHAPES[shape])
    assert not divergences, "\n".join(d.summary() for d in divergences)


def test_select_star_keeps_every_variable(runner):
    """``SELECT *`` reads everything: one column per query variable (the
    reference repeats join columns per table, so it gets the explicit list)."""
    star = f"SELECT * {CHAIN}"
    explicit = f"SELECT r.a, r.b, r.p, s.c, s.q, t.d {CHAIN}"
    expected = canonicalize(reference_rows(runner.catalog, parse_sql(explicit)), ordered=False)
    for config in runner.configs:
        actual = canonicalize(runner.run_config(star, config), ordered=False)
        assert actual == expected, config.label()


def test_needed_variables_are_what_the_post_join_pass_reads():
    planner = Planner(_catalog())

    def needed(sql):
        logical = planner.plan_sql(sql)
        return logical.needed_variables(), output_mode(logical)

    assert needed(SHAPES["count-star-only"]) == ((), "count")
    # SELECT order, deduplicated; the join keys s.c / t.c are never decoded.
    assert needed(SHAPES["same-variable-twice"]) == (("r_a", "t_d", "r_b"), "rows")
    assert needed(SHAPES["group-key-not-selected"]) == (("t_d", "r_a"), "aggregate")
    # Residual operands and LEFT JOIN keys ride along, after the SELECT list;
    # a residual aggregate still folds in the sink.
    assert needed(SHAPES["residual-over-unread-variable"]) == (("r_a", "r_p", "t_d"), "aggregate")
    assert needed(SHAPES["left-join-key-unread"]) == (("r_a", "s_c"), "rows")
    assert needed(f"SELECT * {CHAIN}") == (("r_a", "r_b", "r_p", "s_c", "s_q", "t_d"), "rows")


@pytest.mark.parametrize("configure", [
    {},
    {"parallelism": 2, "parallel_mode": "thread"},
    {"parallelism": 2, "parallel_mode": "process"},
])
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
def test_order_by_limit_streams_the_same_rows(monkeypatch, engine, kernels, configure):
    """The top-k stream ranks on the narrowed layout (``execute_iter`` side)."""
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    catalog = _catalog()
    sql = SHAPES["order-by-limit"]
    expected = canonicalize(reference_rows(catalog, parse_sql(sql)), ordered=True)
    database = Database(catalog, **configure)
    try:
        with database.execute_iter(sql, options=ExecOptions(engine=engine, batch_rows=3)) as stream:
            streamed = [row for batch in stream for row in batch]
    finally:
        database.close()
    assert canonicalize(streamed, ordered=True) == expected


@pytest.mark.parametrize("configure", [
    {},
    {"parallelism": 2, "parallel_mode": "thread"},
    {"parallelism": 2, "parallel_mode": "process"},
])
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ["freejoin", "binary"])
def test_bushy_intermediate_drops_the_columns_nothing_reads(
    monkeypatch, intermediates, engine, kernels, configure
):
    """(r ⋈ s) ⋈ (t ⋈ u): the materialized ``t ⋈ u`` keeps ``c`` (a join key
    of the final pipeline) and ``e`` (selected), and drops ``d``."""
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    catalog = _catalog()
    sql = (
        "SELECT r.a, SUM(u.e), COUNT(*) FROM r, s, t, u "
        "WHERE r.b = s.b AND s.c = t.c AND t.d = u.d GROUP BY r.a"
    )
    expected = canonicalize(reference_rows(catalog, parse_sql(sql)), ordered=False)
    bushy = BinaryPlan(JoinNode(
        JoinNode(LeafNode("r"), LeafNode("s")),
        JoinNode(LeafNode("t"), LeafNode("u")),
    ))
    database = Database(catalog, **configure)
    try:
        logical = Planner(catalog).plan_sql(sql)
        report = database.run_join(logical, bushy, engine)
        _result, table = post_join(report.result, logical, report.details)
    finally:
        database.close()
    assert canonicalize(table.to_rows(), ordered=False) == expected
    # Six (t, u) pairs join on d; the bag survives the dropped column.
    materialized = [(table.column_names, table.num_rows) for table in intermediates]
    assert materialized == [(["s_c", "u_e"], 6)]
    assert report.details["output"] == {"mode": "aggregate", "variables": ["r_a", "u_e"]}
