"""Tests for the standing-query subsystem (:mod:`repro.views`).

The acceptance bar from the IVM tentpole:

* ``subscribe`` seeds a snapshot identical to ``execute()``;
* after every ``append_rows`` burst the maintained snapshot is
  **byte-identical** to re-running ``execute()`` (randomized bursts fuzzed
  with hypothesis), on both delta paths (scan and delta-join) and on the
  re-execution fallback;
* residual-filtered star aggregates maintain by delta join, and join
  queries the delta planner cannot maintain fall back to re-execution with
  a recorded ``ivm-fallback`` reason in telemetry;
* deliveries ride the bounded streaming queue: one group-delta batch per
  append (the seed is read via ``snapshot()`` — delta batches upsert by
  group key, so the snapshot-then-stream handoff cannot drop a group);
* ``close()`` (and ``Database.close``) detaches the table hooks, drains the
  queue, unblocks consumers, and leaves the steal pools warm.
"""

from __future__ import annotations

import asyncio
import threading
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, ExecOptions, StandingQuery
from repro.errors import QueryError
from repro.parallel import scheduler
from repro.serve import AsyncDatabase
from repro.storage.table import Table


def star_db() -> Database:
    db = Database()
    db.register(
        Table.from_rows(
            "fact", ["k", "d", "v"], [(1, 10, 2), (2, 20, 3), (1, 20, 4)]
        )
    )
    db.register(
        Table.from_rows("dim", ["d", "w"], [(10, 100), (20, 200), (30, 300)])
    )
    return db


SCAN_SQL = "SELECT fact.k, SUM(fact.v), COUNT(*) FROM fact GROUP BY fact.k"
STAR_SQL = (
    "SELECT fact.k, SUM(dim.w) FROM fact, dim WHERE fact.d = dim.d "
    "GROUP BY fact.k"
)
RESIDUAL_STAR_SQL = (
    "SELECT fact.k, COUNT(*), SUM(fact.v) FROM fact, dim "
    "WHERE fact.d = dim.d AND fact.v < dim.w GROUP BY fact.k"
)


def assert_snapshot_parity(db: Database, standing: StandingQuery, sql: str):
    expected = db.execute(sql)
    assert standing.snapshot().to_rows() == expected.rows()
    assert standing.labels() == expected.table.column_names


# --------------------------------------------------------------------------- #
# Seeding and mode selection
# --------------------------------------------------------------------------- #


def test_seed_snapshot_matches_execute():
    db = star_db()
    for sql in (SCAN_SQL, STAR_SQL):
        standing = db.subscribe(sql)
        assert_snapshot_parity(db, standing, sql)
        # The queue carries deltas only; the seed is read via snapshot().
        assert standing.pending_deltas() == []
        standing.close()
    db.close()


def test_mode_selection_and_fallback_reasons():
    db = star_db()
    cases = {
        SCAN_SQL: ("delta", "scan", None),
        "SELECT fact.k, SUM(fact.v) FROM fact WHERE fact.v > 1 GROUP BY fact.k": (
            "delta", "delta-join", None,
        ),
        STAR_SQL: ("delta", "delta-join", None),
        RESIDUAL_STAR_SQL: ("delta", "delta-join", None),
        "SELECT * FROM fact": ("reexec", None, "non-aggregate"),
        "SELECT fact.k, SUM(fact.v) FROM fact GROUP BY fact.k "
        "ORDER BY fact.k LIMIT 2": ("reexec", None, "final-pass"),
        "SELECT a.k, COUNT(*) FROM fact AS a, fact AS b WHERE a.d = b.d "
        "GROUP BY a.k": ("reexec", None, "self-join"),
    }
    for sql, expected in cases.items():
        standing = db.subscribe(sql)
        assert (standing.mode, standing.delta_path, standing.fallback_reason) == (
            expected
        ), sql
        standing.close()
    db.close()


def test_subscribe_rejects_deadlines():
    db = star_db()
    with pytest.raises(QueryError, match="no deadline"):
        db.subscribe(SCAN_SQL, options=ExecOptions(timeout=1.0))
    db.close()


# --------------------------------------------------------------------------- #
# Delta maintenance parity
# --------------------------------------------------------------------------- #


def test_scan_path_folds_only_delta_rows():
    db = star_db()
    standing = db.subscribe(SCAN_SQL)
    fact = db.catalog.get("fact")
    fact.append_rows([(2, 10, 5), (3, 30, 6)])
    assert_snapshot_parity(db, standing, SCAN_SQL)
    stats = standing.stats()
    assert stats["deltas_folded"] == 1
    assert stats["delta_rows"] == 2
    assert stats["rows_skipped"] == 3  # pre-append rows never rescanned
    assert stats["reexecutions"] == 0
    # One delta batch, touching only the appended groups.
    batches = standing.pending_deltas()
    keys = {row[0] for batch in batches for row in batch}
    assert keys == {2, 3}
    standing.close()
    db.close()


@pytest.mark.parametrize("sql", [STAR_SQL, RESIDUAL_STAR_SQL], ids=["star", "residual-star"])
def test_delta_join_parity_across_both_tables(sql):
    db = star_db()
    standing = db.subscribe(sql)
    fact = db.catalog.get("fact")
    dim = db.catalog.get("dim")
    # v=500 fails the residual's fact.v < dim.w; a filter is linear under
    # appends, so the delta run drops it before the fold.
    fact.append_rows([(3, 30, 1), (1, 10, 1), (5, 30, 500)])
    assert_snapshot_parity(db, standing, sql)
    dim.append_rows([(40, 400)])
    fact.append_rows([(4, 40, 1)])
    assert_snapshot_parity(db, standing, sql)
    stats = standing.stats()
    assert stats["deltas_folded"] == 3
    assert stats["reexecutions"] == 0
    assert standing.last_report.details["ivm"]["mode"] == "delta"
    standing.close()
    db.close()


def test_delta_join_merges_by_group_key_whatever_plan_the_delta_run_picks():
    """The seed joins a 200-row fact, each delta run a 1-row one: the two
    pick different plans and drivers.  Both fold their own partial and the
    maintained state merges them by group key, so no join-row layout has to
    line up — mixed int/float SUMs included, byte for byte."""
    db = Database()
    db.register(Table.from_rows(
        "fact", ["k", "d1", "d2", "v"],
        [(i % 7, i % 4, i % 3, i * 0.1) for i in range(200)],
    ))
    db.register(Table.from_rows(
        "dim1", ["d1", "w"], [(0, 100), (1, 200), (2, 300), (3, 100)]
    ))
    db.register(Table.from_rows("dim2", ["d2", "x"], [(0, 5), (1, 6), (2, 7)]))
    sql = (
        "SELECT dim1.w, SUM(fact.v), MIN(dim2.x), COUNT(*) FROM fact, dim1, dim2 "
        "WHERE fact.d1 = dim1.d1 AND fact.d2 = dim2.d2 GROUP BY dim1.w"
    )
    standing = db.subscribe(sql)
    assert (standing.mode, standing.delta_path) == ("delta", "delta-join")
    seed_plans = standing.last_report.details["plans"]
    assert_snapshot_parity(db, standing, sql)

    db.catalog.get("fact").append_rows([(1, 2, 1, 9.25), (3, 0, 0, 7)])
    assert standing.last_report.details["ivm"]["event"] == "delta"
    assert standing.last_report.details["plans"] != seed_plans
    assert standing.last_report.details["output"]["mode"] == "aggregate"
    assert_snapshot_parity(db, standing, sql)

    db.catalog.get("dim1").append_rows([(4, 500)])  # a dimension delta: new group key
    db.catalog.get("fact").append_rows([(2, 4, 2, 0.3)])
    assert_snapshot_parity(db, standing, sql)
    assert standing.stats()["deltas_folded"] == 3
    assert standing.stats()["reexecutions"] == 0
    standing.close()
    db.close()


def test_count_star_only_standing_query():
    db = star_db()
    sql = "SELECT COUNT(*) FROM fact"
    standing = db.subscribe(sql)
    assert standing.snapshot().to_rows() == [(3,)]
    db.catalog.get("fact").append_rows([(9, 9, 9)] * 4)
    assert standing.snapshot().to_rows() == [(7,)]
    assert_snapshot_parity(db, standing, sql)
    standing.close()
    db.close()


def test_join_fallback_stays_snapshot_identical_with_recorded_reason():
    db = star_db()
    sql = (
        "SELECT a.k, COUNT(*) FROM fact AS a, fact AS b WHERE a.d = b.d "
        "GROUP BY a.k"
    )
    standing = db.subscribe(sql)
    db.catalog.get("fact").append_rows([(7, 30, 1), (1, 30, 2)])
    assert_snapshot_parity(db, standing, sql)
    stats = standing.stats()
    assert stats["fallback_reason"] == "self-join"
    assert stats["fallbacks"] == {"self-join": 1}
    assert stats["reexecutions"] == 1
    assert standing.last_report.details["ivm"]["event"] == "reexec"
    # Keyed diff delivery: only changed/new groups are delivered (k=2 joins
    # only d=20 rows, which the append did not touch).
    batches = standing.pending_deltas()
    keys = {row[0] for batch in batches for row in batch}
    assert keys == {7, 1}
    standing.close()
    db.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    bursts=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.sampled_from([10, 20, 30, 40, 50]),
                st.integers(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    ),
    dim_row=st.tuples(
        st.sampled_from([10, 20, 30, 40, 50]),
        st.integers(min_value=-5, max_value=5),
    ),
    sql=st.sampled_from([SCAN_SQL, STAR_SQL, RESIDUAL_STAR_SQL]),
)
def test_randomized_append_bursts_keep_parity(bursts, dim_row, sql):
    db = star_db()
    standing = db.subscribe(sql)
    fact = db.catalog.get("fact")
    try:
        for burst in bursts:
            fact.append_rows(burst)
            assert_snapshot_parity(db, standing, sql)
        db.catalog.get("dim").append_rows([dim_row])
        assert_snapshot_parity(db, standing, sql)
        assert standing.stats()["reexecutions"] == 0
    finally:
        standing.close()
        db.close()


def test_version_gap_reseeds():
    db = star_db()
    standing = db.subscribe(SCAN_SQL)
    old = db.catalog.get("fact")
    grown = Table.from_rows("fact", ["k", "d", "v"], old.to_rows() + [(8, 10, 8)])
    # The new object's versions are unrelated to the old one's: the hook
    # moves over and the subscription reseeds rather than fold across.
    db.register(grown, replace=True)
    assert old._append_hooks == [] and len(grown._append_hooks) == 1
    grown.append_rows([(9, 20, 9)])
    assert_snapshot_parity(db, standing, SCAN_SQL)
    stats = standing.stats()
    assert stats["fallbacks"].get("version-gap") == 1
    assert stats["deltas_folded"] == 1
    standing.close()
    db.close()


@pytest.mark.parametrize("sql", [STAR_SQL, RESIDUAL_STAR_SQL], ids=["star", "residual-star"])
def test_appends_landing_together_on_two_dependencies_fold_once(sql):
    """Both appends are in place before either refresh runs: the first
    refresh joins its delta against the other table as the snapshot holds
    it, so ``Δfact ⋈ Δdim`` is folded by the second refresh only."""
    db = star_db()
    standing = db.subscribe(sql)
    fact, dim = db.catalog.get("fact"), db.catalog.get("dim")
    appends = [
        threading.Thread(target=fact.append_rows, args=([(3, 40, 1), (1, 10, 5)],)),
        threading.Thread(target=dim.append_rows, args=([(40, 300)],)),
    ]
    with standing._refresh_lock:
        for thread in appends:
            thread.start()
        # Wait until both rows are in place (the hooks then block on the lock).
        deadline = time.monotonic() + 10
        while (fact.version, dim.version) != (1, 1) and time.monotonic() < deadline:
            time.sleep(0.001)
        assert (fact.version, dim.version) == (1, 1)
    for thread in appends:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert_snapshot_parity(db, standing, sql)
    stats = standing.stats()
    assert stats["deltas_folded"] == 2 and stats["reexecutions"] == 0
    # The live tables were never truncated.
    assert (fact.num_rows, dim.num_rows) == (5, 4)
    standing.close()
    db.close()


@pytest.mark.parametrize("sql", [SCAN_SQL, STAR_SQL, "SELECT * FROM fact"])
def test_replaced_dependency_keeps_the_snapshot_live(sql):
    """After ``register(replace=True)`` the subscription follows the new
    object: appends to it refresh the snapshot like any other."""
    db = star_db()
    standing = db.subscribe(sql)
    db.register_all(
        [Table.from_rows("fact", ["k", "d", "v"], [(4, 10, 1), (5, 30, 2)])],
        replace=True,
    )
    assert_snapshot_parity(db, standing, sql)
    db.catalog.get("fact").append_rows([(4, 20, 3), (6, 10, 4)])
    assert_snapshot_parity(db, standing, sql)
    assert standing.stats()["refreshes"] == 2
    standing.close()
    db.close()


def test_closing_a_delta_join_subscription_leaves_the_pools_running():
    db = Database(parallelism=2, parallel_mode="process")
    db.register(
        Table.from_rows(
            "fact", ["k", "d", "v"], [(i % 5, (i % 3) * 10, i) for i in range(60)]
        )
    )
    db.register(Table.from_rows("dim", ["d", "w"], [(0, 1), (10, 2), (20, 3)]))
    db.execute(STAR_SQL)  # starts the session's process pool
    pools = sorted(scheduler.active_pools())
    assert pools
    standing = db.subscribe(STAR_SQL)
    assert standing.delta_path == "delta-join"
    db.catalog.get("fact").append_rows([(9, 10, 9)])
    standing.close()
    assert sorted(scheduler.active_pools()) == pools
    db.close()


def test_an_append_between_seed_and_hook_is_not_lost(monkeypatch):
    """Versions are recorded before the seed runs, so an append that lands
    after the seed read the table but before the hook went in shows up as a
    gap on the next append, and the subscription reseeds."""
    db = star_db()
    fact = db.catalog.get("fact")
    execute = db._execute
    seeded = []

    def seed_then_append(*args, **kwargs):
        outcome = execute(*args, **kwargs)
        if not seeded:
            seeded.append(True)
            fact.append_rows([(9, 10, 90.0)])
        return outcome

    monkeypatch.setattr(db, "_execute", seed_then_append)
    standing = db.subscribe(SCAN_SQL)
    fact.append_rows([(1, 10, 1)])
    assert (9, 90.0, 1) in standing.snapshot().to_rows()
    assert_snapshot_parity(db, standing, SCAN_SQL)
    assert standing.stats()["fallbacks"] == {"version-gap": 1}
    standing.close()
    db.close()


# --------------------------------------------------------------------------- #
# Delivery and lifecycle
# --------------------------------------------------------------------------- #


def test_next_batch_blocks_until_append_then_delivers():
    db = star_db()
    standing = db.subscribe(SCAN_SQL)
    got = []

    def consume():
        got.append(standing.next_batch())

    thread = threading.Thread(target=consume)
    thread.start()
    db.catalog.get("fact").append_rows([(5, 10, 5)])
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert got and {row[0] for row in got[0]} == {5}
    standing.close()
    db.close()


def test_close_unblocks_consumer_and_detaches_hooks():
    db = star_db()
    standing = db.subscribe(SCAN_SQL)
    fact = db.catalog.get("fact")
    assert len(fact._append_hooks) == 1
    results = []

    def consume():
        results.append(standing.next_batch())

    thread = threading.Thread(target=consume)
    thread.start()
    standing.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert results == [None]
    assert fact._append_hooks == []
    assert db.standing_queries() == []
    # Appends after close are plain appends: no refresh, no delivery.
    fact.append_rows([(6, 10, 6)])
    assert standing.pending_deltas() == []
    standing.close()  # idempotent
    db.close()


def test_close_unblocks_backpressured_producer():
    """An appender stuck on a full delivery queue unwinds on close()."""
    db = star_db()
    standing = db.subscribe(
        SCAN_SQL, options=ExecOptions(batch_rows=1, max_batches=1)
    )
    fact = db.catalog.get("fact")
    done = threading.Event()

    def append_many():
        # Each appended row becomes a delta batch; with max_batches=1 and
        # no consumer, the delivery queue fills and the appender blocks.
        for i in range(50):
            fact.append_rows([(i % 3, 10, 1)])
        done.set()

    thread = threading.Thread(target=append_many)
    thread.start()
    assert not done.wait(timeout=0.5), "producer should be backpressured"
    standing.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert done.is_set()
    db.close()


def test_parallel_session_subscription_leaves_pools_warm():
    db = Database(parallelism=2, parallel_mode="thread")
    db.register(
        Table.from_rows(
            "fact", ["k", "d", "v"], [(i % 5, (i % 3) * 10, i) for i in range(60)]
        )
    )
    db.register(
        Table.from_rows("dim", ["d", "w"], [(0, 1), (10, 2), (20, 3)])
    )
    standing = db.subscribe(STAR_SQL)
    db.catalog.get("fact").append_rows([(9, 10, 9)])
    assert_snapshot_parity(db, standing, STAR_SQL)
    standing.close()
    rows = db.execute(STAR_SQL).rows()
    assert rows == db.execute(STAR_SQL).rows()
    for pool in scheduler.active_pools().values():
        assert not pool.broken
    db.close()


def test_database_close_closes_subscriptions():
    db = star_db()
    standing = db.subscribe(SCAN_SQL)
    db.close()
    assert standing.closed
    assert standing.next_batch() is None


def test_subscribe_is_warning_free_and_exported():
    db = star_db()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        standing = db.subscribe(SCAN_SQL, options=ExecOptions(engine="binary"))
        db.catalog.get("fact").append_rows([(1, 10, 1)])
    assert isinstance(standing, StandingQuery)
    assert_snapshot_parity(db, standing, SCAN_SQL)
    standing.close()
    db.close()


# --------------------------------------------------------------------------- #
# Async surface
# --------------------------------------------------------------------------- #


def test_async_subscribe_stream_delivers_seed_and_deltas():
    db = star_db()

    async def main():
        async with AsyncDatabase(db) as server:
            stream = server.subscribe_stream(SCAN_SQL)
            seed = await stream.__anext__()
            assert seed == db.execute(SCAN_SQL).rows()

            loop = asyncio.get_running_loop()
            fact = db.catalog.get("fact")
            append = loop.run_in_executor(
                None, lambda: fact.append_rows([(7, 10, 7)])
            )
            delta = await asyncio.wait_for(stream.__anext__(), timeout=10.0)
            await append
            assert {row[0] for row in delta} == {7}
            await stream.aclose()
        # aclose() closed the subscription and detached the hooks.
        assert db.standing_queries() == []
        assert db.catalog.get("fact")._append_hooks == []

    asyncio.run(main())
    db.close()
