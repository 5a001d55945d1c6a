"""Parity fuzz for the columnar batch output contract.

The refactored sink plane delivers join output three ways: flat rows
(``RowSink``), columnar batches, and factorized batches (a shared prefix
plus independent factor columns, never expanded inside the executor).
These tests pin all of them to the flat row bag on randomly generated
inputs:

* every engine (free join / binary / generic), kernels on and off, must
  produce the same bag through a ``FactorizedSink`` as through a
  ``RowSink``;
* thread- and process-parallel sessions stream the same bag the serial
  session materializes, kernels on and off, on all three engines;
* a factorized star query delivers its first streamed batch while the
  producer is still running, with factorized batches reaching the sink
  un-expanded;
* ``ORDER BY ... LIMIT`` streams through the bounded top-k sink and
  matches the materializing path row for row, in order.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.binaryjoin.executor import BinaryJoinEngine
from repro.core.engine import FreeJoinEngine
from repro.engine.options import ExecOptions
from repro.engine.output import FactorizedSink, RowSink
from repro.engine.session import Database
from repro.engine.streaming import StreamingTopKSink
from repro.genericjoin.executor import GenericJoinEngine
from repro.kernels import kernels_enabled
from repro.optimizer.join_order import optimize_query
from repro.query.builder import QueryBuilder
from repro.storage.table import Table

ENGINES = ("freejoin", "binary", "generic")

values = st.integers(min_value=0, max_value=3)


def rows_strategy(arity: int, max_rows: int = 8):
    return st.lists(st.tuples(*([values] * arity)), min_size=0, max_size=max_rows)


def star_query(r, s, t):
    builder = QueryBuilder("star")
    builder.add_atom("r", Table.from_rows("r", ["x", "a"], r), ["x", "a"])
    builder.add_atom("s", Table.from_rows("s", ["x", "b"], s), ["x", "b"])
    builder.add_atom("t", Table.from_rows("t", ["x", "c"], t), ["x", "c"])
    return builder.build()


def run_engine(name, query, plan, sink):
    engines = {"freejoin": FreeJoinEngine, "binary": BinaryJoinEngine, "generic": GenericJoinEngine}
    return engines[name]().run(query, plan, sink=sink)


# --------------------------------------------------------------------------- #
# Factorized output is the same bag as flat rows, all engines, kernels on/off
# --------------------------------------------------------------------------- #


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(r=rows_strategy(2), s=rows_strategy(2), t=rows_strategy(2))
def test_factorized_sink_matches_row_sink(r, s, t):
    query = star_query(r, s, t)
    plan = optimize_query(query)
    for engine in ENGINES:
        for enabled in (True, False):
            with kernels_enabled(enabled):
                flat = RowSink(query.output_variables)
                run_engine(engine, query, plan, flat)
                factorized = FactorizedSink(query.output_variables)
                run_engine(engine, query, plan, factorized)
            flat_rows = sorted(flat.result().iter_rows(), key=repr)
            fact_rows = sorted(factorized.result().iter_rows(), key=repr)
            assert fact_rows == flat_rows, (
                f"factorized bag diverges from flat rows on "
                f"{engine}/kernels={'on' if enabled else 'off'}"
            )


# --------------------------------------------------------------------------- #
# Streamed batches match materialized rows on every backend
# --------------------------------------------------------------------------- #

STAR_SQL = (
    "SELECT r.a, s.b, t.c FROM r, s, t "
    "WHERE r.x = s.x AND s.x = t.x"
)


def _register_star(db, r, s, t):
    db.register(Table.from_rows("r", ["x", "a"], r))
    db.register(Table.from_rows("s", ["x", "b"], s))
    db.register(Table.from_rows("t", ["x", "c"], t))
    return db


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(r=rows_strategy(2), s=rows_strategy(2), t=rows_strategy(2))
def test_streamed_batches_match_serial_rows_on_all_backends(r, s, t):
    serial = _register_star(Database(), r, s, t)
    backends = {
        "thread": _register_star(
            Database(parallelism=2, parallel_mode="thread"), r, s, t
        ),
        "process": _register_star(
            Database(parallelism=2, parallel_mode="process"), r, s, t
        ),
    }
    for engine in ENGINES:
        for enabled in (True, False):
            with kernels_enabled(enabled):
                expected = sorted(
                    serial.execute(STAR_SQL, options=ExecOptions(engine=engine)).rows(), key=repr
                )
                for label, db in backends.items():
                    with db.execute_iter(STAR_SQL, options=ExecOptions(engine=engine)) as stream:
                        streamed = sorted(
                            itertools.chain.from_iterable(stream), key=repr
                        )
                    assert streamed == expected, (
                        f"streamed rows diverge on {engine}/"
                        f"kernels={'on' if enabled else 'off'}/{label}"
                    )


# --------------------------------------------------------------------------- #
# Factorized streaming delivers before the join completes
# --------------------------------------------------------------------------- #


def test_factorized_stream_delivers_first_batch_before_completion():
    fan = 30
    r = [(x, x) for x in range(fan)]
    s = [(x, b) for x in range(fan) for b in range(fan)]
    t = [(x, c) for x in range(fan) for c in range(fan)]
    db = _register_star(Database(), r, s, t)
    stream = db.execute_iter(
        STAR_SQL, options=ExecOptions(engine="freejoin", batch_rows=64, max_batches=2)
    )
    try:
        first = stream.next_batch()
        assert first, "no batch delivered"
        # 27k output rows against a 2x64-row queue: the producer must still
        # be blocked on backpressure when the first batch arrives.
        assert not stream.finished
    finally:
        total = len(first)
        for batch in stream:
            total += len(batch)
        stream.close()
    assert total == fan * fan * fan
    # The executor handed the sink factorized batches, not expanded rows.
    assert stream.sink.stats()["factorized_batches"] > 0


# --------------------------------------------------------------------------- #
# ORDER BY ... LIMIT streams through the bounded top-k sink
# --------------------------------------------------------------------------- #


def _topk_db():
    db = Database()
    db.register(
        Table.from_rows(
            "edges",
            ["src", "dst"],
            [(i % 7, (i * 3) % 11) for i in range(60)],
        )
    )
    db.register(
        Table.from_rows(
            "weights",
            ["dst", "w"],
            [((i * 3) % 11, i % 5) for i in range(40)],
        )
    )
    return db


def test_order_by_limit_streams_through_topk_sink():
    db = _topk_db()
    sql = (
        "SELECT edges.src, weights.w FROM edges, weights "
        "WHERE edges.dst = weights.dst "
        "ORDER BY weights.w DESC, edges.src LIMIT 7"
    )
    expected = db.execute(sql).rows()
    with db.execute_iter(sql, options=ExecOptions(batch_rows=3)) as stream:
        assert isinstance(stream.sink, StreamingTopKSink)
        streamed = list(itertools.chain.from_iterable(stream))
    assert streamed == expected
    assert stream.sink.stats()["topk"]["limit"] == 7


def test_bare_limit_streams_through_topk_sink():
    db = _topk_db()
    sql = (
        "SELECT edges.src, weights.w FROM edges, weights "
        "WHERE edges.dst = weights.dst LIMIT 9"
    )
    expected = db.execute(sql).rows()
    with db.execute_iter(sql, options=ExecOptions(batch_rows=4)) as stream:
        assert isinstance(stream.sink, StreamingTopKSink)
        streamed = list(itertools.chain.from_iterable(stream))
    assert streamed == expected


# --------------------------------------------------------------------------- #
# LEFT JOIN differential: one hash probe, identical on every configuration
# --------------------------------------------------------------------------- #

#: ``orders`` x ``lines`` is the core join; ``lines`` contributes no output
#: column, so the kernels fold it into core multiplicities > 1.  NULL keys on
#: both sides, duplicate optional rows (customers 1 and 2), unmatched core
#: rows (cid 0, 4-8 and NULL) and an optional row nobody matches (id 10).
LEFT_JOIN_SQL = (
    "SELECT o.id, o.cid, c.region FROM orders AS o, lines AS l "
    "LEFT OUTER JOIN customers AS c ON o.cid = c.id WHERE l.oid = o.id"
)


def _left_outer_db(**session):
    db = Database(**session)
    db.register(
        Table.from_rows(
            "orders",
            ["id", "cid"],
            [(i, None if i % 4 == 0 else i % 9) for i in range(30)],
        )
    )
    db.register(
        Table.from_rows("lines", ["oid"], [(i % 30,) for i in range(75)])
    )
    db.register(
        Table.from_rows(
            "customers",
            ["id", "region"],
            [(1, "n"), (1, "s"), (2, "e"), (2, "e"), (3, None), (10, "w"), (None, "x")],
        )
    )
    return db


def test_left_join_is_identical_across_engines_kernels_and_backends():
    from repro.experiments.differential import canonicalize, reference_rows
    from repro.query.sql import parse_sql

    # Core row order is the engine's business; ORDER BY pins it, so the
    # tables must then agree byte for byte, row order included.
    ordered_sql = LEFT_JOIN_SQL + " ORDER BY o.id DESC, c.region"
    catalog = _left_outer_db().catalog
    expected = canonicalize(reference_rows(catalog, parse_sql(LEFT_JOIN_SQL)), False)
    assert any(row[2] is None for row in expected)  # padded rows exist
    ordered_tables = set()
    for session in ({}, {"parallelism": 2, "parallel_mode": "thread"}):
        for kernels in (True, False):
            for engine in ENGINES:
                options = ExecOptions(engine=engine)
                with kernels_enabled(kernels):
                    db = _left_outer_db(**session)
                    outcome = db.execute(LEFT_JOIN_SQL, options=options)
                    ordered_tables.add(repr(db.execute(ordered_sql, options=options).rows()))
                assert canonicalize(outcome.rows(), False) == expected
                assert outcome.report.details["post_join"] == {
                    "left_joins": [
                        {"alias": "c", "matched_core_rows": 21, "rows_after": 91}
                    ]
                }
                assert "left-outer-extension" not in outcome.report.details[
                    "kernels"
                ].get("fallbacks", [])
    assert len(ordered_tables) == 1


def test_left_outer_probe_ignores_repro_kernels():
    """Same core rows in, same extended rows out — in order — on and off."""
    from repro.engine.aggregates import post_join
    from repro.engine.output import JoinResult
    from repro.query.planner import Planner

    logical = Planner(_left_outer_db().catalog).plan_sql(LEFT_JOIN_SQL)
    assert tuple(logical.query.output_variables) == ("l_oid", "o_cid")
    rows = [(i % 30, None if i % 4 == 0 else i % 9) for i in range(40)]
    multiplicities = [1 + i % 3 for i in range(40)]
    tables = []
    for kernels in (True, False):
        with kernels_enabled(kernels):
            core = JoinResult.from_rows(("l_oid", "o_cid"), list(rows), list(multiplicities))
            tables.append(post_join(core, logical, {})[1].to_rows())
    assert tables[0] == tables[1]
    assert tables[0][:4] == [(0, None, None), (1, 1, "n"), (1, 1, "n"), (1, 1, "s")]
