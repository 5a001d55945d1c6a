"""Tests for the partial-aggregate plane (streaming & parallel aggregation).

The acceptance bar from the aggregation tentpole:

* ``GROUP BY`` queries via ``execute_iter`` yield their **first batch before
  the join completes** on serial, thread-steal and process-steal backends;
* every aggregate function's partial state is **mergeable**: folding rows in
  chunks and combining the partials equals one serial fold, in any order;
* streamed/parallel grouped-aggregate results — collapsed last-write-wins
  per group key — equal the serial materialized results across engines,
  group counts (0, 1, many), NULL-bearing columns, and multiplicity-weighted
  ``SUM``/``AVG``/``COUNT`` (a hypothesis fuzz pins this);
* factorized groups fold without expanding whenever the group key is bound
  by the prefix;
* partial-merge telemetry lands in ``RunReport.details["parallel"]``.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import aggregates, output
from repro.engine.aggregates import (
    AggregateSpec,
    GroupedAggregateState,
    _AggregateState,
)
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.engine.streaming import (
    StreamingAggregateSink,
    collapse_grouped_batches,
)
from repro.errors import QueryError
from repro.kernels.executor import CHUNK_ROWS
from repro.parallel import scheduler
from repro.storage import shm
from repro.storage.table import Table
from repro.workloads.synthetic import FANOUT_GROUP_SQL, fanout_tables

FANOUT_ROWS = 2000
FANOUT_KEYS = 20

#: Joins r (many rows per key) with s (NULL-bearing payload), grouped by the
#: join key: every aggregate function, multiplicity-weighted.
GROUP_SQL = (
    "SELECT r.k AS k, COUNT(*) AS n, COUNT(s.b) AS nb, SUM(s.b) AS s, "
    "MIN(s.b) AS lo, MAX(s.b) AS hi, AVG(s.b) AS mean "
    "FROM r, s WHERE r.k = s.k GROUP BY r.k"
)


def _grouped_catalog() -> Database:
    database = Database()
    database.register(Table.from_columns("r", {
        "k": [i % FANOUT_KEYS for i in range(FANOUT_ROWS)],
        "a": list(range(FANOUT_ROWS)),
    }))
    database.register(Table.from_columns("s", {
        "k": [i % FANOUT_KEYS for i in range(400)],
        "b": [None if i % 7 == 0 else i for i in range(400)],
    }))
    return database


@pytest.fixture(scope="module")
def grouped_db() -> Database:
    return _grouped_catalog()


@pytest.fixture(scope="module")
def grouped_expected(grouped_db):
    return grouped_db.execute(GROUP_SQL).rows()


@pytest.fixture(autouse=True)
def _fresh_parallel_state():
    yield
    scheduler.shutdown_pools()
    shm.shutdown_exports()


def _fold_rows(state, rows, multiplicities=None) -> None:
    """The row-at-a-time reference fold."""
    for row, multiplicity in zip(rows, multiplicities or [1] * len(rows)):
        state.fold_row(row, multiplicity)


def _spec(items, group_by, variables) -> AggregateSpec:
    return AggregateSpec(items=tuple(items), group_by=tuple(group_by),
                         variables=tuple(variables))


# --------------------------------------------------------------------------- #
# Mergeable partial states
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("function", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
def test_aggregate_state_combine_equals_serial_fold(function):
    values = [3, None, 1, 4, None, 1, 5, 9, 2, 6]
    multiplicities = [1, 2, 3, 1, 1, 2, 1, 4, 1, 1]

    serial = _AggregateState(function)
    for value, multiplicity in zip(values, multiplicities):
        serial.update(value, multiplicity)

    # Fold in chunks, serialize, merge in reverse order: same final value.
    partials = []
    for start in range(0, len(values), 3):
        partial = _AggregateState(function)
        for value, multiplicity in zip(
            values[start:start + 3], multiplicities[start:start + 3]
        ):
            partial.update(value, multiplicity)
        partials.append(partial)
    merged = _AggregateState(function)
    for partial in reversed(partials):
        merged.merge_tuple(partial.as_tuple())
    assert merged.finalize() == serial.finalize()


def test_aggregate_state_combine_handles_empty_partials():
    merged = _AggregateState("MIN")
    merged.merge_tuple(_AggregateState("MIN").as_tuple())  # nothing folded on either side
    assert merged.finalize() is None
    other = _AggregateState("MIN")
    other.update(7, 1)
    merged.merge_tuple(other.as_tuple())
    assert merged.finalize() == 7


def test_grouped_state_merge_payload_matches_direct_fold():
    spec = _spec(
        [("COUNT", None, "n"), ("SUM", "y", "s"), (None, "x", "x")],
        ["x"], ["x", "y"],
    )
    rows = [(i % 3, i if i % 5 else None) for i in range(40)]
    multiplicities = [1 + i % 4 for i in range(40)]

    direct = GroupedAggregateState(spec)
    _fold_rows(direct, rows, multiplicities)

    merged = GroupedAggregateState(spec)
    for start in range(0, len(rows), 7):
        partial = GroupedAggregateState(spec)
        _fold_rows(partial, rows[start:start + 7], multiplicities[start:start + 7])
        merged.merge_payload(partial.payload())
    assert merged.finalize_rows() == direct.finalize_rows()


def test_grouped_state_empty_input_row_without_grouping():
    spec = _spec([("COUNT", None, "n"), ("SUM", "y", "s")], [], ["x", "y"])
    state = GroupedAggregateState(spec)
    # Aggregates over an empty input produce one row of empty aggregates —
    # the same contract as the serial post-pass.
    assert state.finalize_rows() == [(0, None)]
    grouped = GroupedAggregateState(
        _spec([("COUNT", None, "n")], ["x"], ["x", "y"])
    )
    assert grouped.finalize_rows() == []


# --------------------------------------------------------------------------- #
# Factorized groups fold without expansion (unit cases: the sink-conformance
# matrix in test_sink_conformance.py)
# --------------------------------------------------------------------------- #


def test_streaming_factorized_aggregate_folds_without_expansion(grouped_db):
    """options.output='factorized' + aggregate sink: groups fold directly."""
    from repro.core.engine import FreeJoinOptions

    expected = grouped_db.execute(GROUP_SQL).rows()
    stream = grouped_db.execute_iter(
        GROUP_SQL,
        options=ExecOptions(
            batch_rows=128,
            freejoin_options=FreeJoinOptions(output="factorized"),
        ),
    )
    batches = list(stream)
    assert collapse_grouped_batches(batches, [0]) == expected


# --------------------------------------------------------------------------- #
# StreamingAggregateSink unit behavior
# --------------------------------------------------------------------------- #


def test_aggregate_sink_streams_deltas_and_final_snapshot():
    spec = _spec(
        [(None, "x", "x"), ("COUNT", None, "n")], ["x"], ["x", "y"]
    )
    sink = StreamingAggregateSink(spec, batch_rows=4, max_batches=16)
    for i in range(10):
        sink.on_batch([[i % 2], [i]])
    sink.finish()
    batches = []
    while True:
        batch = sink.next_batch()
        if batch is None:
            break
        batches.append(batch)
    # Two mid-join delta flushes (4 folds each) plus the final snapshot.
    assert len(batches) == 3
    assert batches[-1] == [(0, 5), (1, 5)]  # snapshot, key-ordered
    assert collapse_grouped_batches(batches, [0]) == [(0, 5), (1, 5)]
    stats = sink.stats()["aggregate"]
    assert stats["groups"] == 2
    assert stats["folded_rows"] == 10
    assert stats["delta_batches"] == 2
    assert stats["snapshot_rows"] == 2


def test_aggregate_sink_deltas_are_ordered_by_group_key():
    spec = _spec([(None, "x", "x"), ("COUNT", None, "n")], ["x"], ["x"])
    sink = StreamingAggregateSink(spec, batch_rows=64)
    sink.on_batch([[9, 3, 7, 1, 5]])
    sink.absorb(None)  # a partial-less merge still counts
    sink.finish()
    first = sink.next_batch()
    assert [row[0] for row in first] == [1, 3, 5, 7, 9]
    assert sink.aggregate_stats()["partials_merged"] == 1


# --------------------------------------------------------------------------- #
# End-to-end: execute_iter across engines and backends
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("configure", [
    {},  # serial executor
    {"parallelism": 2, "parallel_mode": "thread"},
    {"parallelism": 2, "parallel_mode": "process"},
])
def test_first_group_batch_arrives_before_join_completes(
    grouped_db, grouped_expected, configure
):
    database = Database(grouped_db.catalog, **configure)
    # One delta flush is 20 groups = five 4-row batches into a queue four
    # deep: the producer is still blocked on the fifth put when the first
    # batch arrives, however few folds the join needs.
    stream = database.execute_iter(GROUP_SQL, options=ExecOptions(batch_rows=4, max_batches=4))
    batches = []
    first_batch_finished = None
    for batch in stream:
        if first_batch_finished is None:
            first_batch_finished = stream.finished
        batches.append(batch)
    assert first_batch_finished is False, (
        "first group delta must be delivered while the join is still running"
    )
    assert collapse_grouped_batches(batches, [0]) == grouped_expected
    assert stream.report is not None


@pytest.mark.parametrize("kernels", ["on", "off"])
def test_serial_grouped_stream_flushes_deltas_between_batches(monkeypatch, kernels):
    """A serial join of several driver chunks delivers group deltas mid-join
    (one flush per batch boundary once ``batch_rows`` folds accumulated) —
    with a queue deep enough that no put ever blocks, so the claim does not
    lean on backpressure.  Deltas are flushed only from inside a fold, so
    ``delta_batches`` counts mid-join deliveries; the snapshot is separate.
    """
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    rows = 3 * CHUNK_ROWS + 17  # four kernel driver chunks
    database = Database()
    database.register(Table.from_columns("r", {
        "k": [i % FANOUT_KEYS for i in range(rows)],
        "a": list(range(rows)),
    }))
    database.register(Table.from_columns("s", {
        "k": list(range(FANOUT_KEYS)),
        "b": list(range(FANOUT_KEYS)),
    }))
    sql = (
        "SELECT r.k AS k, COUNT(*) AS n, MAX(r.a) AS hi, MIN(s.b) AS lo "
        "FROM r, s WHERE r.k = s.k GROUP BY r.k"
    )
    expected = database.execute(sql).rows()
    stream = database.execute_iter(sql, options=ExecOptions(batch_rows=64, max_batches=1024))
    batches = list(stream)
    assert collapse_grouped_batches(batches, [0]) == expected
    stats = stream.sink.stats()
    assert stats["put_wait_seconds"] < 0.05, "no put may have waited on the consumer"
    # One delta per full driver chunk on the kernel path (the 17-row tail
    # stays under ``batch_rows``), one per ``batch_rows`` folded rows on the
    # row path — each holding the groups' values so far: the first one is
    # not the final answer yet.
    assert stats["aggregate"]["delta_batches"] >= 3
    assert len(batches) == stats["aggregate"]["delta_batches"] + 1
    assert batches[0] != expected and batches[-1] == expected


@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
def test_streamed_grouped_aggregate_matches_serial_per_engine(
    grouped_db, grouped_expected, engine
):
    batches = list(
        grouped_db.execute_iter(GROUP_SQL, options=ExecOptions(engine=engine, batch_rows=97))
    )
    assert collapse_grouped_batches(batches, [0]) == grouped_expected


@pytest.mark.parametrize("configure", [
    {"parallelism": 2, "parallel_mode": "thread"},
    {"parallelism": 2, "parallel_mode": "process"},
])
def test_partial_merge_telemetry_present(grouped_db, grouped_expected, configure):
    database = Database(grouped_db.catalog, **configure)
    stream = database.execute_iter(GROUP_SQL, options=ExecOptions(batch_rows=128))
    batches = list(stream)
    assert collapse_grouped_batches(batches, [0]) == grouped_expected
    detail = stream.report.details["parallel"][0]
    aggregate_stats = detail["stream"]["aggregate"]
    assert aggregate_stats["partials_merged"] >= 1
    assert aggregate_stats["groups"] == len(grouped_expected)
    # Raw rows never cross the worker boundary on aggregate streams.
    assert detail["stream"]["rows"] == 0 or aggregate_stats["delta_batches"] > 0


# --------------------------------------------------------------------------- #
# The benchmark's own grouped query: folds factorized, reports the join size
# --------------------------------------------------------------------------- #


@pytest.fixture
def fanout_db():
    database = Database()
    database.register_all(fanout_tables(400, keys=8, skew=1.2).values())
    return database


def test_fanout_group_query_folds_without_expansion(fanout_db, monkeypatch):
    """Regression: the kernels used to decode the group key ``fan_r.k`` from
    the held-out factor step (its last expanded binder), so every aggregate
    sink saw the key inside a factor and fell back to expanding the product
    and folding it row by row.  A factor's probe keys belong to the prefix.
    """
    expected = fanout_db.execute(FANOUT_GROUP_SQL).rows()

    def expanded(*_args, **_kwargs):
        raise AssertionError("the grouped fan-out fold must not expand a factorized batch")

    # Patched before any pool forks, so process workers inherit it.
    monkeypatch.setattr(output, "expand_factorized_batch", expanded)
    monkeypatch.setattr(aggregates, "expand_factorized_batch", expanded)

    outcome = fanout_db.execute(FANOUT_GROUP_SQL)
    assert outcome.rows() == expected
    assert outcome.report.details["kernels"]["factorized"]["batches"] >= 1

    with fanout_db.execute_iter(FANOUT_GROUP_SQL) as stream:
        batches = list(stream)
        assert stream.sink.stats()["factorized_batches"] >= 1
    assert collapse_grouped_batches(batches, [0]) == expected

    parallel = Database(fanout_db.catalog, parallelism=2, parallel_mode="process")
    outcome = parallel.execute(FANOUT_GROUP_SQL)
    assert outcome.rows() == expected
    assert outcome.report.details["parallel"][0]["mode"] == "process"
    assert outcome.report.details["kernels"]["factorized"]["batches"] >= 1


#: Same join, same groups, but every aggregate input lives in the driver:
#: the probe binds nothing read later and becomes a multiplicity (flat batch).
FANOUT_FLAT_GROUP_SQL = (
    "SELECT fan_r.k AS k, COUNT(*) AS n, MIN(fan_r.a) AS lo "
    "FROM fan_r, fan_s WHERE fan_r.k = fan_s.k GROUP BY fan_r.k"
)


@pytest.mark.parametrize("configure", [
    {},  # one sink folds the whole join
    {"parallelism": 2, "parallel_mode": "thread"},   # merged task partials
    {"parallelism": 2, "parallel_mode": "process"},  # ... serialized
])
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize(
    "sql", [FANOUT_GROUP_SQL, FANOUT_FLAT_GROUP_SQL], ids=["factorized", "flat"]
)
def test_aggregate_join_result_counts_join_rows(fanout_db, monkeypatch, sql, kernels, configure):
    """``join_result.count()`` of a folded aggregate is the join cardinality
    (it used to be the number of fold reports: one per factorized group)."""
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    database = Database(fanout_db.catalog, **configure)
    cardinality = database.execute(
        "SELECT COUNT(*) FROM fan_r, fan_s WHERE fan_r.k = fan_s.k"
    ).scalar()
    outcome = database.execute(sql)
    assert outcome.report.details["output"]["mode"] == "aggregate"
    assert outcome.join_result.count() == cardinality
    assert sum(row[1] for row in outcome.rows()) == cardinality


def test_grouped_stream_zero_groups(grouped_db):
    sql = (
        "SELECT r.k AS k, COUNT(*) AS n FROM r, s "
        "WHERE r.k = s.k AND r.k > 10000 GROUP BY r.k"
    )
    assert grouped_db.execute(sql).rows() == []
    assert list(grouped_db.execute_iter(sql)) == []


def test_grouped_stream_single_group(grouped_db):
    sql = (
        "SELECT r.k AS k, COUNT(*) AS n FROM r, s "
        "WHERE r.k = s.k AND r.k = 3 GROUP BY r.k"
    )
    expected = grouped_db.execute(sql).rows()
    batches = list(grouped_db.execute_iter(sql, options=ExecOptions(batch_rows=32)))
    assert collapse_grouped_batches(batches, [0]) == expected


def test_aggregate_stream_empty_input_yields_empty_aggregate_row(grouped_db):
    sql = "SELECT COUNT(*) AS n, SUM(s.b) AS t FROM r, s WHERE r.k = s.k AND r.k > 10000"
    expected = grouped_db.execute(sql).rows()
    batches = list(grouped_db.execute_iter(sql))
    assert batches == [expected] == [[(0, None)]]


def test_grouped_stream_consumer_break_cancels_cleanly(grouped_db, grouped_expected):
    database = Database(grouped_db.catalog, parallelism=2, parallel_mode="thread")
    with database.execute_iter(
        GROUP_SQL, options=ExecOptions(batch_rows=8, max_batches=2)
    ) as stream:
        next(iter(stream))
    assert stream.finished, "close() must wait for the producer to unwind"
    # Pools survived; the next query runs normally.
    assert database.execute(GROUP_SQL).rows() == grouped_expected
    for pool in scheduler.active_pools().values():
        assert not pool.broken


def test_async_grouped_stream_delivers_deltas(grouped_db, grouped_expected):
    import asyncio

    from repro.serve import AsyncDatabase

    async def main():
        async with AsyncDatabase(grouped_db, max_concurrency=2) as adb:
            batches = []
            async for batch in adb.execute_stream(GROUP_SQL, options=ExecOptions(batch_rows=64)):
                batches.append(batch)
            return batches

    batches = asyncio.run(main())
    assert len(batches) >= 1
    assert collapse_grouped_batches(batches, [0]) == grouped_expected


def test_grouped_stream_backpressures_producer(grouped_db):
    """A stalled grouped consumer bounds the delta queue like a row stream."""
    import time

    stream = grouped_db.execute_iter(GROUP_SQL, options=ExecOptions(batch_rows=8, max_batches=2))
    iterator = iter(stream)
    next(iterator)
    time.sleep(0.3)
    assert stream.sink.batches_put <= 2 + 2 + 1, (
        f"producer ran {stream.sink.batches_put} delta batches ahead "
        f"of a stalled consumer"
    )
    assert not stream.finished
    stream.close()


# --------------------------------------------------------------------------- #
# Thread-safety of the shared fold
# --------------------------------------------------------------------------- #


def test_concurrent_absorb_is_consistent():
    spec = _spec(
        [(None, "x", "x"), ("COUNT", None, "n"), ("SUM", "y", "s")],
        ["x"], ["x", "y"],
    )
    rows = [(i % 4, i) for i in range(800)]
    serial = GroupedAggregateState(spec)
    _fold_rows(serial, rows)

    sink = StreamingAggregateSink(spec, batch_rows=1024, max_batches=1024)
    chunks = [rows[i::8] for i in range(8)]

    def fold_chunk(chunk):
        partial = GroupedAggregateState(spec)
        _fold_rows(partial, chunk)
        sink.absorb(partial.payload())

    threads = [
        threading.Thread(target=fold_chunk, args=(chunk,)) for chunk in chunks
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sink.finish()
    batches = []
    while True:
        batch = sink.next_batch()
        if batch is None:
            break
        batches.append(batch)
    assert collapse_grouped_batches(batches, [0]) == serial.finalize_rows()
    assert sink.aggregate_stats()["partials_merged"] == 8


# --------------------------------------------------------------------------- #
# Serial-vs-streamed/parallel parity fuzz
# --------------------------------------------------------------------------- #

#: Small domains force group collisions; None exercises NULL semantics and
#: duplicate rows exercise bag multiplicities (trie leaves > 1).
fuzz_keys = st.integers(min_value=0, max_value=3)
fuzz_values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))


def fuzz_rows(max_rows: int = 10):
    return st.lists(
        st.tuples(fuzz_keys, fuzz_values), min_size=0, max_size=max_rows
    )


FUZZ_SQL = (
    "SELECT fr.x AS x, COUNT(*) AS n, COUNT(fs.w) AS nw, SUM(fs.w) AS s, "
    "MIN(fs.w) AS lo, MAX(fs.w) AS hi, AVG(fs.w) AS mean "
    "FROM fr, fs WHERE fr.y = fs.y GROUP BY fr.x"
)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(r=fuzz_rows(), s=fuzz_rows(), engine=st.sampled_from(
    ["freejoin", "binary", "generic"]
))
def test_streamed_grouped_aggregates_match_serial_fuzz(r, s, engine):
    """Streamed == serial on random NULL-bearing, duplicate-heavy instances."""
    database = Database()
    # x doubles as group key; y is the join key; w is NULL-bearing.  Rows
    # repeat freely, so SUM/AVG/COUNT are multiplicity-weighted.
    database.register(Table.from_rows("fr", ["x", "y"], r))
    database.register(Table.from_rows("fs", ["y", "w"], s))
    expected = database.execute(FUZZ_SQL, options=ExecOptions(engine=engine)).rows()
    batches = list(
        database.execute_iter(
            FUZZ_SQL, options=ExecOptions(engine=engine, batch_rows=3, max_batches=2)
        )
    )
    assert collapse_grouped_batches(batches, [0]) == expected
    if batches:
        # The final snapshot alone is exact; with batch_rows=3 it spans
        # ceil(groups / 3) deliveries.
        tail = -(-len(expected) // 3)
        assert [row for batch in batches[-tail:] for row in batch] == expected


@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(r=fuzz_rows(8), s=fuzz_rows(8))
def test_parallel_grouped_aggregates_match_serial_fuzz(r, s):
    """Thread-steal folding == serial on random instances (worker partials)."""
    database = Database(parallelism=2, parallel_mode="thread")
    database.register(Table.from_rows("fr", ["x", "y"], r))
    database.register(Table.from_rows("fs", ["y", "w"], s))
    expected = database.execute(FUZZ_SQL).rows()
    batches = list(database.execute_iter(FUZZ_SQL, options=ExecOptions(batch_rows=4)))
    assert collapse_grouped_batches(batches, [0]) == expected


def test_process_grouped_aggregate_matches_serial(grouped_db, grouped_expected):
    """Process-steal partial folding == serial (deterministic heavy case)."""
    database = Database(grouped_db.catalog, parallelism=3, parallel_mode="process")
    batches = list(database.execute_iter(GROUP_SQL, options=ExecOptions(batch_rows=256)))
    assert collapse_grouped_batches(batches, [0]) == grouped_expected


# --------------------------------------------------------------------------- #
# Review regressions: unselected group keys and multi-key ordering
# --------------------------------------------------------------------------- #


def test_unselected_group_key_falls_back_to_materialized(grouped_db):
    """GROUP BY keys absent from the SELECT list cannot stream deltas: the
    delivered rows would carry no usable group key, so the session keeps the
    materialize-then-stream path and the stream equals execute() exactly."""
    sql = "SELECT COUNT(*) AS n FROM r, s WHERE r.k = s.k GROUP BY r.k"
    expected = grouped_db.execute(sql).rows()
    assert len(expected) == FANOUT_KEYS  # one row per (unselected) group
    streamed = [
        row for batch in grouped_db.execute_iter(sql, options=ExecOptions(batch_rows=7))
        for row in batch
    ]
    assert streamed == expected


def test_key_positions_are_in_group_by_order():
    spec = _spec(
        [(None, "b", "b"), (None, "k", "k"), ("COUNT", None, "n")],
        ["k", "b"], ["k", "b"],
    )
    assert spec.key_positions() == [1, 0]
    with pytest.raises(QueryError):
        _spec([("COUNT", None, "n")], ["k"], ["k"]).key_positions()


def test_multi_key_group_by_collapse_matches_serial_order(grouped_db):
    """SELECT order != GROUP BY order: the collapse must still reproduce the
    serial table byte-for-byte (keys are compared in GROUP BY order)."""
    database = Database()
    database.register(Table.from_rows(
        "r", ["k", "b"], [(i % 3, (i * 7) % 4) for i in range(60)]
    ))
    database.register(Table.from_rows(
        "s", ["k", "c"], [(i % 3, i) for i in range(20)]
    ))
    sql = (
        "SELECT r.b AS b, r.k AS k, COUNT(*) AS n FROM r, s "
        "WHERE r.k = s.k GROUP BY r.k, r.b"
    )
    expected = database.execute(sql).rows()
    stream = database.execute_iter(sql, options=ExecOptions(batch_rows=16))
    batches = list(stream)
    key_positions = stream.sink.spec.key_positions()
    assert key_positions == [1, 0]
    assert collapse_grouped_batches(batches, key_positions) == expected
    assert batches[-1] == expected  # snapshot order == serial table order
