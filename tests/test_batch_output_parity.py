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
  matches the materializing path and the naive reference row for row, in
  order, on every session backend — its cutoff filter included.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading

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
from repro.query.planner import ResolvedOrderItem
from repro.storage.table import Table
from repro.workloads.synthetic import FANOUT_SQL, fanout_tables

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


#: ORDER BY key values: NULLs, bools beside ints, ints past 2**53 and 2**63
#: and signed zeros — or strings (a column holds one kind or the other).
NUMERIC_KEYS = [None, True, False, 0, 1, -1, 2**53, 2**53 + 1, 2**63 + 5, -(2**64), 0.0, -0.0, 1.5]
STRING_KEYS = [None, "a", "b", "c"]
TOPK_SESSIONS = (
    {},
    {"parallelism": 2, "parallel_mode": "thread"},
    {"parallelism": 2, "parallel_mode": "process"},
)
#: What follows ``SELECT s.b, s.k, r.k, r.a`` (``r.a`` is SELECT column 3 but
#: join column 2): ``t`` binds nothing read later, so the kernels fold it
#: into multiplicity 2; ``r.x <= s.y`` is a residual.
TOPK_FROM = {
    "plain": "FROM r, s WHERE r.k = s.k",
    "folded-probe": "FROM r, s, t WHERE r.k = s.k AND s.k = t.k",
    "residual": "FROM r, s WHERE r.k = s.k AND r.x <= s.y",
}

few_keys = st.sampled_from([NUMERIC_KEYS, STRING_KEYS]).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=5)
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    a=few_keys,
    b=few_keys,
    order=st.lists(
        st.tuples(st.sampled_from(["r.a", "s.b"]), st.booleans()), min_size=1, max_size=2
    ),
    limit=st.sampled_from([0, 1, 7, 100, 100_000]),
    shape=st.sampled_from(sorted(TOPK_FROM)),
    batch_rows=st.sampled_from([1, 3, 1024]),
)
def test_streamed_topk_matches_execute_and_the_reference(a, b, order, limit, shape, batch_rows):
    """Row for row, in order: 80 x 70 rows on one join key is past the
    top-k's first prune, so its cutoff filter runs (unless a bool, a NULL
    or a string key turns it off); few distinct keys make heavy ties."""
    from repro.experiments.differential import reference_rows
    from repro.query.sql import parse_sql

    order_sql = ", ".join(f"{column} DESC" if desc else column for column, desc in order)
    sql = f"SELECT s.b, s.k, r.k, r.a {TOPK_FROM[shape]} ORDER BY {order_sql} LIMIT {limit}"
    r = [(0, a[i % len(a)], i) for i in range(80)]
    s = [(0, b[i * 3 % len(b)], i) for i in range(70)]
    reference = None
    for session in TOPK_SESSIONS:
        db = Database(**session)
        db.register(Table.from_rows("r", ["k", "a", "x"], r))
        db.register(Table.from_rows("s", ["k", "b", "y"], s))
        db.register(Table.from_rows("t", ["k"], [(0,), (0,)]))
        reference = reference or repr(reference_rows(db.catalog, parse_sql(sql)))
        assert repr(db.execute(sql).rows()) == reference, session
        with db.execute_iter(sql, options=ExecOptions(batch_rows=batch_rows)) as stream:
            assert isinstance(stream.sink, StreamingTopKSink)
            assert repr(list(itertools.chain.from_iterable(stream))) == reference, session


def _topk_sink(descending):
    sink = StreamingTopKSink(
        ("v",), limit=2, order_by=[ResolvedOrderItem(0, descending)], max_batches=2
    )
    # The batch's own bound keeps 2 rows: the cutoff is 1 (ASC) or 4998 (DESC).
    sink.on_batch([list(range(5000))])
    return sink


def test_topk_cutoff_keeps_nan_and_ties():
    sink = _topk_sink(descending=False)
    sink.on_batch([[float("nan"), 7, 1, 0.5, 2.0]])
    topk = sink.stats()["topk"]
    assert topk["skipped_rows"] == 4998 + 2  # 7 and 2.0; NaN and the tie 1 stay
    assert topk["candidate_rows"] == 2 + 3


def test_topk_cutoff_leaves_a_column_holding_a_bool_alone():
    sink = _topk_sink(descending=True)
    sink.on_batch([[3, True]])  # numpy reads True as 1; the sort ranks it above every number
    sink.finish()
    assert sink.next_batch() == [(True,), (4999,)]
    assert sink.stats()["topk"]["skipped_rows"] == 4998  # all in the first batch


def test_topk_cutoff_under_concurrent_batches():
    """Eight threads report into one top-k at a tiny switch interval (thread
    workers absorb concurrently): the prefix and the row accounting stay exact."""
    values = list(range(40_000))
    random.Random(3).shuffle(values)
    chunks = [[values[i : i + 500]] for i in range(0, len(values), 500)]
    sink = StreamingTopKSink(("v",), limit=5, order_by=[ResolvedOrderItem(0, False)], max_batches=2)

    def report(batches):
        for columns in batches:
            sink.on_batch(columns)

    threads = [threading.Thread(target=report, args=(chunks[w::8],)) for w in range(8)]
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
    topk = sink.stats()["topk"]
    assert topk["skipped_rows"] + topk["candidate_rows"] == len(values)
    assert topk["skipped_rows"] > len(values) / 2
    sink.finish()
    assert sink.next_batch() == [(v,) for v in range(5)]


def test_fanout_topk_skips_most_rows_before_building_tuples():
    db = Database()
    db.register_all(fanout_tables(400, keys=8).values())
    sql = FANOUT_SQL + " ORDER BY fan_s.b DESC, fan_r.a LIMIT 100"
    total = len(db.execute(FANOUT_SQL).rows())
    with db.execute_iter(sql) as stream:
        streamed = list(itertools.chain.from_iterable(stream))
    assert streamed == db.execute(sql).rows()
    topk = stream.sink.stats()["topk"]
    assert topk["skipped_rows"] > total / 2
    assert topk["skipped_rows"] + topk["candidate_rows"] == total


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
    from repro.engine.aggregates import PostJoinSink, aggregate_result, finalize_output
    from repro.query.planner import Planner

    logical = Planner(_left_outer_db().catalog).plan_sql(LEFT_JOIN_SQL)
    assert tuple(logical.query.output_variables) == ("l_oid", "o_cid")
    rows = [(i % 30, None if i % 4 == 0 else i % 9) for i in range(40)]
    multiplicities = [1 + i % 3 for i in range(40)]
    tables = []
    for kernels in (True, False):
        with kernels_enabled(kernels):
            sink = PostJoinSink(RowSink(logical.result_variables()), logical)
            assert sink.variables == logical.needed_variables()
            sink.on_batch([list(column) for column in zip(*rows)], list(multiplicities))
            table = finalize_output(aggregate_result(sink.result(), logical), logical)
            tables.append(table.to_rows())
    assert tables[0] == tables[1]
    assert tables[0][:4] == [(0, None, None), (1, 1, "n"), (1, 1, "n"), (1, 1, "s")]
