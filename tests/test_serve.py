"""Tests for the async serving layer and cooperative deadlines.

The acceptance bar from the serving tentpole: a deadline set below a query's
runtime aborts it *mid-execution* (``DeadlineExceeded``), leaking no shm
segments and leaving no stuck workers; asyncio cancellation flips the query
token before the caller observes the cancel, so worker threads free
promptly; ``gather_many`` bounds concurrency and cancels siblings on
failure.
"""

from __future__ import annotations

import asyncio
import glob
import os
import pickle
import time

import pytest

from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.errors import DeadlineExceeded, QueryCancelled, QueryError
from repro.parallel import scheduler
from repro.parallel.cancellation import DeadlineToken
from repro.serve import AsyncDatabase
from repro.storage import shm
from repro.storage.table import Table

SLOW_SQL = "SELECT COUNT(*) FROM big, other WHERE big.k = other.k"
FAST_SQL = "SELECT COUNT(*) FROM small WHERE small.v < 10"


def _leaked_segments() -> list:
    return sorted(
        os.path.basename(path)
        for path in glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_*")
    )


@pytest.fixture
def slow_catalog(monkeypatch) -> Database:
    """A catalog whose SLOW_SQL query takes a couple of seconds.

    The slowness comes from row-at-a-time execution — the batch kernels
    collapse this join to milliseconds — so the deadline/cancellation tests
    below pin the fallback path (kernel-path deadline enforcement has its
    own coverage in ``tests/test_kernels.py``).
    """
    monkeypatch.setenv("REPRO_KERNELS", "off")
    n = 1500
    database = Database()
    database.register(Table.from_columns("big", {
        "k": [0] * n, "v": list(range(n)),
    }))
    database.register(Table.from_columns("other", {
        "k": [0] * n, "w": list(range(n)),
    }))
    database.register(Table.from_columns("small", {
        "k": list(range(64)), "v": list(range(64)),
    }))
    return database


@pytest.fixture(autouse=True)
def _fresh_parallel_state():
    yield
    scheduler.shutdown_pools()
    shm.shutdown_exports()


# --------------------------------------------------------------------------- #
# DeadlineToken
# --------------------------------------------------------------------------- #


def test_deadline_token_basics():
    token = DeadlineToken.after(None)
    assert token.at is None and not token.expired()
    token.check()  # no deadline, not cancelled: fine

    token = DeadlineToken.after(60.0)
    assert token.remaining() > 59
    token.check()
    token.cancel()
    with pytest.raises(QueryCancelled):
        token.check()

    expired = DeadlineToken(at=time.monotonic() - 1.0)
    assert expired.expired()
    with pytest.raises(DeadlineExceeded):
        expired.check()
    with pytest.raises(ValueError):
        DeadlineToken.after(0)


def test_deadline_token_tick_is_strided_but_prompt():
    expired = DeadlineToken(at=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded):
        for _ in range(256):  # must trip within a few strides
            expired.tick()
    cancelled = DeadlineToken()
    cancelled.cancel()
    with pytest.raises(QueryCancelled):
        cancelled.tick()  # cancellation is checked on every tick


def test_deadline_token_pickles_without_probe():
    token = DeadlineToken(at=123.0, cancel_probe=lambda: True)
    clone = pickle.loads(pickle.dumps(token))
    assert clone.at == 123.0 and clone.cancel_probe is None
    clone.cancelled = True
    with pytest.raises(QueryCancelled):
        clone.tick()


# --------------------------------------------------------------------------- #
# Mid-flight deadline aborts (the acceptance criterion)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("configure", [
    {},  # serial executor
    {"parallelism": 2, "parallel_mode": "thread"},
    {"parallelism": 2, "parallel_mode": "process"},
])
def test_deadline_aborts_mid_execution_without_leaks(slow_catalog, configure):
    baseline = _leaked_segments()
    database = Database(slow_catalog.catalog, **configure)
    full_started = time.perf_counter()
    expected = database.execute(SLOW_SQL).scalar()
    full_seconds = time.perf_counter() - full_started
    assert full_seconds > 0.5, "query must be slow enough to interrupt"

    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        database.execute(SLOW_SQL, options=ExecOptions(timeout=0.05))
    aborted_after = time.perf_counter() - started
    assert aborted_after < full_seconds / 2, (
        f"deadline abort took {aborted_after:.2f}s vs {full_seconds:.2f}s full run"
    )

    # No stuck workers: the same session immediately serves the next query.
    assert database.execute(SLOW_SQL).scalar() == expected
    database.close()
    assert set(_leaked_segments()) <= set(baseline)


@pytest.mark.parametrize("parallel_mode", ["thread", "process"])
def test_steal_scheduler_enforces_deadlines_on_both_backends(slow_catalog, parallel_mode):
    """An over-budget query aborts mid-flight on both worker backends.

    Thread workers share the deadline token; process workers rebuild it from
    the task's monotonic timestamp — either way ``DeadlineExceeded`` must
    arrive well before a full run would finish, and the session must keep
    serving afterwards.
    """
    database = Database(
        slow_catalog.catalog,
        parallelism=2,
        parallel_mode=parallel_mode,
    )
    full_started = time.perf_counter()
    expected = database.execute(SLOW_SQL).scalar()
    full_seconds = time.perf_counter() - full_started

    started = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        database.execute(SLOW_SQL, options=ExecOptions(timeout=0.05))
    aborted_after = time.perf_counter() - started
    assert aborted_after < full_seconds / 2, (
        f"deadline abort took {aborted_after:.2f}s vs "
        f"{full_seconds:.2f}s full run"
    )
    # The session keeps working after the abort.
    assert database.execute(SLOW_SQL).scalar() == expected


def test_deadline_stops_scheduler_sibling_tasks(slow_catalog):
    """After an abort the pool is drained — no task keeps running behind it."""
    database = Database(slow_catalog.catalog, parallelism=2, parallel_mode="thread")
    with pytest.raises(DeadlineExceeded):
        database.execute(SLOW_SQL, options=ExecOptions(timeout=0.05))
    pool = scheduler.active_pools().get(("thread", 2))
    assert pool is not None and not pool.broken
    # The pool is idle again: the shared task queue drained, the query completed.
    started = time.perf_counter()
    assert database.execute(FAST_SQL).scalar() == 10
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------------- #
# AsyncDatabase
# --------------------------------------------------------------------------- #


def test_async_execute_matches_sync(slow_catalog):
    expected = slow_catalog.execute(FAST_SQL).scalar()

    async def main():
        async with AsyncDatabase(slow_catalog) as adb:
            outcome = await adb.execute(FAST_SQL)
            return outcome.scalar()

    assert asyncio.run(main()) == expected


def test_async_deadline_surfaces_deadline_exceeded(slow_catalog):
    async def main():
        async with AsyncDatabase(slow_catalog) as adb:
            with pytest.raises(DeadlineExceeded):
                await adb.execute(SLOW_SQL, options=ExecOptions(timeout=0.05))
            # The serving layer stays healthy after the abort.
            return (await adb.execute(FAST_SQL)).scalar()

    assert asyncio.run(main()) == 10


def test_async_cancellation_frees_the_worker_promptly(slow_catalog):
    """Cancellation ordering: token flips before CancelledError surfaces.

    With a single worker thread, a cancelled slow query MUST release its
    slot quickly or the follow-up fast query would wait for the full join.
    """
    async def main():
        async with AsyncDatabase(slow_catalog, max_concurrency=1) as adb:
            task = asyncio.create_task(adb.execute(SLOW_SQL))
            await asyncio.sleep(0.15)  # let the join get going
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            started = time.perf_counter()
            outcome = await adb.execute(FAST_SQL)
            waited = time.perf_counter() - started
            return outcome.scalar(), waited

    scalar, waited = asyncio.run(main())
    assert scalar == 10
    assert waited < 1.0, f"cancelled query blocked its slot for {waited:.2f}s"


def test_async_execute_stream_batches(slow_catalog):
    async def main():
        async with AsyncDatabase(slow_catalog) as adb:
            batches = []
            async for batch in adb.execute_stream(
                "SELECT small.k, small.v FROM small", options=ExecOptions(batch_rows=25)
            ):
                batches.append(batch)
            return batches

    batches = asyncio.run(main())
    assert [len(batch) for batch in batches] == [25, 25, 14]
    assert sorted(row for batch in batches for row in batch) == [
        (i, i) for i in range(64)
    ]


def test_gather_many_bounds_concurrency(slow_catalog):
    observed = {"active": 0, "max": 0}
    original = AsyncDatabase._execute_blocking

    def tracking(self, *args, **kwargs):
        observed["active"] += 1
        observed["max"] = max(observed["max"], observed["active"])
        try:
            time.sleep(0.02)
            return original(self, *args, **kwargs)
        finally:
            observed["active"] -= 1

    async def main():
        AsyncDatabase._execute_blocking = tracking
        try:
            async with AsyncDatabase(slow_catalog, max_concurrency=8) as adb:
                return await adb.gather_many(
                    [(f"q{i}", FAST_SQL) for i in range(6)], max_concurrency=2
                )
        finally:
            AsyncDatabase._execute_blocking = original

    results = asyncio.run(main())
    assert [outcome.scalar() for outcome in results] == [10] * 6
    assert observed["max"] <= 2


def test_gather_many_timeout_cancels_siblings(slow_catalog):
    async def main():
        async with AsyncDatabase(slow_catalog, max_concurrency=4) as adb:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                await adb.gather_many(
                    [("fast", FAST_SQL), ("slow", SLOW_SQL), ("slow2", SLOW_SQL)],
                    options=ExecOptions(timeout=0.05),
                )
            return time.perf_counter() - started

    # Both slow queries abort at their deadline; nothing runs to completion.
    assert asyncio.run(main()) < 1.5


def test_gather_many_return_exceptions(slow_catalog):
    async def main():
        async with AsyncDatabase(slow_catalog) as adb:
            return await adb.gather_many(
                [("ok", FAST_SQL), ("slow", SLOW_SQL), ("bad", "SELECT nope FROM")],
                options=ExecOptions(timeout=0.05),
                return_exceptions=True,
            )

    ok, slow, bad = asyncio.run(main())
    assert ok.scalar() == 10
    assert isinstance(slow, DeadlineExceeded)
    assert isinstance(bad, Exception) and not isinstance(bad, DeadlineExceeded)


def test_async_database_rejects_bad_configuration(slow_catalog):
    with pytest.raises(QueryError):
        AsyncDatabase(slow_catalog, max_concurrency=0)
    with pytest.raises(QueryError):
        AsyncDatabase(slow_catalog, parallelism=2)  # db + options is ambiguous

    async def main():
        adb = AsyncDatabase(slow_catalog)
        await adb.close()
        with pytest.raises(QueryError):
            await adb.execute(FAST_SQL)

    asyncio.run(main())
