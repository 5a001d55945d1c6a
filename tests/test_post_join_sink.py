"""The post-join sink: residual mask, LEFT JOIN extension and projection.

Queries with residual predicates or LEFT JOINs run their post-join work in
the final pipeline's sink (:class:`~repro.engine.aggregates.PostJoinSink`),
in front of whatever sink the SELECT list picks.  These tests pin:

* one matrix — seven shapes x ``execute`` / ``execute_iter`` x serial / two
  threads / two processes x three engines x kernels on / off — against the
  naive reference, bag-exact, and ``repr``-exact where ORDER BY fixes the
  row order;
* that a residual aggregate folds where the join produces its rows (an
  ``"aggregate"`` output mode) and, on a parallel session, streams a group
  delta before its final snapshot;
* the wrapper's declared flags and its LEFT JOIN counters under concurrent
  reporters.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine.aggregates import PartialAggregateSink, PostJoinSink, aggregate_spec
from repro.engine.options import ExecOptions
from repro.engine.output import CountSink, RowSink
from repro.engine.session import Database
from repro.engine.streaming import StreamingAggregateSink, collapse_grouped_batches
from repro.experiments.differential import canonicalize, reference_rows
from repro.kernels import kernels_enabled
from repro.query.planner import Planner
from repro.query.sql import parse_sql
from repro.storage.table import Table

CORE = "FROM orders AS o, lines AS l"
LEFT = "FROM orders AS o, lines AS l LEFT OUTER JOIN customers AS c ON o.cid = c.id"
RESIDUAL = "WHERE l.oid = o.id AND o.amt > l.q"

#: shape -> (SQL, group-key positions of the delivered rows: ``None`` for
#: row shapes, whose streams deliver rows rather than group deltas).  Row
#: shapes never select ``o.amt``, the residual's other operand, so a stream
#: must mask before it projects.
SHAPES = {
    "residual-group-by": (
        f"SELECT o.cid, COUNT(*), MIN(l.q), SUM(o.amt) {CORE} {RESIDUAL} GROUP BY o.cid",
        [0],
    ),
    "residual-count-star": (f"SELECT COUNT(*) {CORE} {RESIDUAL}", []),
    "residual-rows": (f"SELECT o.id, l.q {CORE} {RESIDUAL}", None),
    "residual-order-by-limit": (
        f"SELECT l.q, o.id {CORE} {RESIDUAL} ORDER BY l.q DESC, o.id LIMIT 7",
        None,
    ),
    "left-join-rows": (f"SELECT o.id, o.cid, c.region {LEFT} WHERE l.oid = o.id", None),
    "left-join-group-by": (
        f"SELECT c.region, COUNT(*), MAX(o.amt) {LEFT} WHERE l.oid = o.id GROUP BY c.region",
        [0],
    ),
    "left-join-residual": (f"SELECT o.id, c.region, l.q {LEFT} {RESIDUAL}", None),
}

SESSIONS = {
    "serial": {},
    "thread": {"parallelism": 2, "parallel_mode": "thread"},
    "process": {"parallelism": 2, "parallel_mode": "process"},
}


def _catalog_tables():
    """NULL keys on both sides, duplicate optional rows, unmatched core rows."""
    return [
        Table.from_rows(
            "orders",
            ["id", "cid", "amt"],
            [(i, None if i % 4 == 0 else i % 9, (i * 7) % 11) for i in range(60)],
        ),
        Table.from_rows("lines", ["oid", "q"], [(i % 60, i % 5) for i in range(150)]),
        Table.from_rows(
            "customers",
            ["id", "region"],
            [(1, "n"), (1, "s"), (2, "e"), (2, "e"), (3, None), (10, "w"), (None, "x")],
        ),
    ]


def _database(**session) -> Database:
    db = Database(**session)
    db.register_all(_catalog_tables())
    return db


@pytest.fixture(scope="module")
def sessions():
    databases = {name: _database(**configure) for name, configure in SESSIONS.items()}
    yield databases
    for db in databases.values():
        db.close()


@pytest.fixture(scope="module")
def expected():
    catalog = _database().catalog
    return {name: reference_rows(catalog, parse_sql(sql)) for name, (sql, _keys) in SHAPES.items()}


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels-on", "kernels-off"])
@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
@pytest.mark.parametrize("session", sorted(SESSIONS))
@pytest.mark.parametrize("entry", ["execute", "execute_iter"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_post_join_matrix_matches_the_reference(
    sessions, expected, shape, entry, session, engine, kernels
):
    sql, key_positions = SHAPES[shape]
    db = sessions[session]
    options = ExecOptions(engine=engine, batch_rows=8)
    with kernels_enabled(kernels):
        if entry == "execute":
            outcome = db.execute(sql, options=options)
            rows = outcome.rows()
            if "LEFT" in sql:
                assert outcome.report.details["post_join"]["left_joins"][0]["alias"] == "c"
        else:
            with db.execute_iter(sql, options=options) as stream:
                batches = list(stream)
            if key_positions is None:
                rows = [row for batch in batches for row in batch]
            else:
                rows = collapse_grouped_batches(batches, key_positions)
    reference = expected[shape]
    assert canonicalize(rows, ordered=False) == canonicalize(reference, ordered=False)
    if "ORDER BY" in sql:
        assert repr(rows) == repr(reference)


def test_residual_aggregate_folds_in_the_final_pipeline():
    db = _database()
    sql, _keys = SHAPES["residual-group-by"]
    outcome = db.execute(sql)
    assert outcome.report.details["output"]["mode"] == "aggregate"
    assert outcome.join_result.batches == [] and outcome.join_result.partial is not None
    count_sql, _keys = SHAPES["residual-count-star"]
    assert db.execute(count_sql).report.details["output"]["mode"] == "count"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_residual_group_by_streams_a_delta_before_the_snapshot(sessions, backend):
    sql, key_positions = SHAPES["residual-group-by"]
    db = sessions[backend]
    expected = db.execute(sql).rows()
    with db.execute_iter(sql, options=ExecOptions(batch_rows=2)) as stream:
        assert isinstance(stream.sink, StreamingAggregateSink)
        batches = list(stream)
    assert stream.sink.stats()["aggregate"]["delta_batches"] > 0
    # Deltas first, then the snapshot: more rows than groups were delivered.
    assert sum(map(len, batches)) > len(expected)
    assert collapse_grouped_batches(batches, key_positions) == expected


def _logical(shape):
    return Planner(_database().catalog).plan_sql(SHAPES[shape][0])


def test_wrapper_declares_its_own_flags_and_takes_mode_from_the_inner_sink():
    logical = _logical("residual-group-by")
    fold = PartialAggregateSink(aggregate_spec(logical, logical.result_variables()))
    for inner in (fold, CountSink(()), RowSink(logical.result_variables())):
        sink = PostJoinSink(inner, logical)
        assert not (sink.counts_only or sink.accepts_factorized or sink.packs_columns)
        assert (sink.mode, sink.absorb_on_arrival) == (inner.mode, inner.absorb_on_arrival)
        assert sink.variables == logical.needed_variables()


def test_left_join_counters_are_exact_under_concurrent_reporters():
    """Thread workers report into one wrapper at once; its counters add up."""
    logical = _logical("left-join-group-by")

    def wrapper():  # the inner fold absorbs on arrival: it owns a lock too
        spec = aggregate_spec(logical, logical.result_variables())
        return PostJoinSink(PartialAggregateSink(spec), logical)

    sink = wrapper()
    assert sink.absorb_on_arrival and sink.variables == ("o_amt", "o_cid")
    batch = [[i % 11 for i in range(60)], [None if i % 4 == 0 else i % 9 for i in range(60)]]

    def report():
        for _ in range(50):
            sink.on_batch(batch, [2] * 60)

    serial = wrapper()
    serial.on_batch(batch, [2] * 60)
    threads = [threading.Thread(target=report) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    (one,) = serial.summary()["left_joins"]
    (total,) = sink.summary()["left_joins"]
    assert total["matched_core_rows"] == 400 * one["matched_core_rows"] > 0
    assert total["rows_after"] == 400 * one["rows_after"] == sink.result().count()
