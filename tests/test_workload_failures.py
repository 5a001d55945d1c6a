"""Failure-path coverage for ``execute_many`` and the persistent pools.

A query that runs over budget aborts cooperatively and frees its worker
thread, its intra-query steal tasks are cancelled with it, and when
everything is torn down no worker processes or shared-memory segments are
left behind — ``multiprocessing``'s resource tracker included.  These tests
pin each of those promises down, including the ``resource_tracker``
bookkeeping of the shm column plane.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.parallel import scheduler
from repro.storage import shm
from repro.storage.table import Table
from repro.workloads.synthetic import fanout_tables

COUNT_SQL = "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k"


def _star_catalog() -> Database:
    database = Database()
    database.register(Table.from_columns("fact", {
        "k": [i % 31 for i in range(500)], "v": list(range(500)),
    }))
    database.register(Table.from_columns("dim", {
        "k": [i % 31 for i in range(120)], "w": list(range(120)),
    }))
    return database


def _leaked_segments() -> list:
    return sorted(
        os.path.basename(path)
        for path in glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_*")
    )


# --------------------------------------------------------------------------- #
# Timeout enforcement
# --------------------------------------------------------------------------- #


@pytest.fixture
def row_at_a_time(monkeypatch):
    """Pin the row-at-a-time fallback for tests that need a *slow* query.

    The batch kernels collapse these joins to milliseconds, which breaks the
    timing premise of the timeout tests; pools are recycled so freshly
    forked workers inherit the toggle.
    """
    scheduler.shutdown_pools()
    monkeypatch.setenv("REPRO_KERNELS", "off")
    yield
    scheduler.shutdown_pools()


def _slow_pair_catalog(rows: int = 1500) -> Database:
    database = Database()
    database.register(Table.from_columns("big", {
        "k": [0] * rows, "v": list(range(rows)),
    }))
    database.register(Table.from_columns("other", {
        "k": [0] * rows, "w": list(range(rows)),
    }))
    return database


def test_thread_mode_timeout_aborts_mid_flight_and_frees_workers(row_at_a_time):
    """Regression: a thread-mode timeout used to let the losing query finish
    in the background before the error surfaced.  It must now abort
    cooperatively: the workload returns promptly, the worker slot is free
    for the next workload, and no shm segments leak."""
    baseline = _leaked_segments()
    database = _slow_pair_catalog()
    slow_sql = "SELECT COUNT(*) FROM big, other WHERE big.k = other.k"

    full_started = time.perf_counter()
    full = database.execute(slow_sql).scalar()
    full_seconds = time.perf_counter() - full_started
    assert full_seconds > 0.5

    started = time.perf_counter()
    outcome = database.execute_many(
        [("boom", slow_sql)], max_workers=1, options=ExecOptions(timeout=0.05)
    )
    wall = time.perf_counter() - started
    boom = outcome.query("boom")
    assert boom.status == "timeout"
    assert "0.05" in boom.error
    assert wall < full_seconds / 2, (
        f"timeout surfaced only after {wall:.2f}s (full query: {full_seconds:.2f}s) "
        f"- the losing query ran to completion in the background"
    )

    # The worker thread is free immediately: a follow-up workload on the
    # same single-worker pool completes fast and correctly.
    follow_up = database.execute_many(
        [("fine", "SELECT COUNT(*) FROM big WHERE big.v < 5")],
        max_workers=1,
    )
    assert follow_up.query("fine").ok
    assert follow_up.query("fine").rows == [[5]] or follow_up.query("fine").rows == [(5,)]
    assert set(_leaked_segments()) <= set(baseline)
    assert full == database.execute(slow_sql).scalar()  # catalog untouched


def test_process_mode_timeout_cancels_intra_query_steal_tasks(row_at_a_time):
    """An over-budget query on a process-backed session must cancel its
    steal-pool tasks cooperatively and leak neither processes nor shm
    segments."""
    baseline = _leaked_segments()
    database = _slow_pair_catalog()
    slow_sql = "SELECT COUNT(*) FROM big, other WHERE big.k = other.k"
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")

    started = time.perf_counter()
    outcome = parallel.execute_many(
        [("boom", slow_sql)], max_workers=1, options=ExecOptions(timeout=0.1)
    )
    wall = time.perf_counter() - started
    assert outcome.query("boom").status == "timeout"
    assert wall < 3.0
    parallel.close()
    gc.collect()
    assert set(_leaked_segments()) <= set(baseline)


def test_per_query_timeout_actually_fires(row_at_a_time):
    big = Table.from_columns("big", {"k": [0] * 1200, "v": list(range(1200))})
    other = Table.from_columns("other", {"k": [0] * 1200, "w": list(range(1200))})
    database = Database()
    database.register(big)
    database.register(other)
    outcome = database.execute_many(
        [("boom", "SELECT COUNT(*) FROM big, other WHERE big.k = other.k"),
         ("fine", "SELECT COUNT(*) FROM big WHERE big.v < 5")],
        max_workers=2,
        options=ExecOptions(timeout=0.05),
    )
    boom = outcome.query("boom")
    assert boom.status == "timeout"
    assert boom.seconds >= 0.05
    assert "0.05" in boom.error
    assert boom.engine == "freejoin"  # a failed query's record still names its engine
    assert outcome.query("fine").ok
    assert outcome.timeout_count == 1


# --------------------------------------------------------------------------- #
# Clean shutdown: no leaked pools, no leaked shm segments
# --------------------------------------------------------------------------- #


def test_pool_shutdown_leaves_no_shm_segments(monkeypatch):
    # Wrap the resource tracker so the test can assert its bookkeeping
    # balances: every register of one of our segments must be matched by an
    # unregister by the time the exports are shut down.
    from multiprocessing import resource_tracker

    registered, unregistered = [], []
    real_register = resource_tracker.register
    real_unregister = resource_tracker.unregister

    def tracking_register(name, rtype):
        if shm.SEGMENT_PREFIX in name and rtype == "shared_memory":
            registered.append(name)
        return real_register(name, rtype)

    def tracking_unregister(name, rtype):
        if shm.SEGMENT_PREFIX in name and rtype == "shared_memory":
            unregistered.append(name)
        return real_unregister(name, rtype)

    monkeypatch.setattr(resource_tracker, "register", tracking_register)
    monkeypatch.setattr(resource_tracker, "unregister", tracking_unregister)

    baseline = _leaked_segments()
    database = _star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")
    assert parallel.execute(COUNT_SQL).scalar() == database.execute(COUNT_SQL).scalar()

    # The query exported its base tables and spun up a persistent pool.
    assert shm.active_export_segments()
    assert 2 in scheduler.active_pools()
    pool = scheduler.active_pools()[2]

    parallel.close()
    gc.collect()

    assert scheduler.active_pools() == {}
    for process in pool._workers:
        assert not process.is_alive()
    assert shm.active_export_segments() == []
    # close() unlinks every export this process owns, so nothing new may
    # remain (and pre-existing segments from other fixtures may be gone too).
    assert set(_leaked_segments()) <= set(baseline)
    assert registered, "the shm plane never touched the resource tracker"
    assert sorted(set(registered)) == sorted(set(unregistered))


def test_close_stops_every_child_process_and_the_resource_tracker():
    from multiprocessing import resource_tracker

    database = _star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")
    assert parallel.execute(COUNT_SQL).report.details["parallel"][0]["mode"] == "process"
    assert multiprocessing.active_children()
    tracker = resource_tracker._resource_tracker
    tracker_pid = tracker._pid
    assert tracker_pid is not None

    parallel.close()
    assert multiprocessing.active_children() == []
    assert tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(tracker_pid, 0)  # stopped and reaped


def test_process_queries_work_on_a_new_session_after_close():
    database = _star_catalog()
    expected = database.execute(COUNT_SQL).scalar()
    for _ in range(2):
        parallel = Database(database.catalog, parallelism=2, parallel_mode="process")
        outcome = parallel.execute(COUNT_SQL)
        assert outcome.report.details["parallel"][0]["mode"] == "process"
        assert outcome.scalar() == expected
        parallel.close()
    assert shm.active_export_segments() == []


def test_execute_many_with_intra_query_steal_cleans_up_after_itself():
    baseline = _leaked_segments()
    database = _star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")
    outcome = parallel.execute_many(
        [("one", COUNT_SQL), ("two", COUNT_SQL)], max_workers=2
    )
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    expected = database.execute(COUNT_SQL).rows()
    assert outcome.query("one").rows == expected
    assert outcome.query("two").rows == expected
    # Both queries shared the session's process pool and exports; closing
    # the session tears them down.
    parallel.close()
    gc.collect()
    assert set(_leaked_segments()) <= set(baseline)


def test_pool_registry_recovers_after_shutdown():
    database = _star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")
    expected = database.execute(COUNT_SQL).scalar()
    assert parallel.execute(COUNT_SQL).scalar() == expected
    first = scheduler.active_pools().get(2)
    assert first is not None
    scheduler.shutdown_pools()
    assert scheduler.active_pools() == {}
    # The next query transparently builds a fresh pool.
    assert parallel.execute(COUNT_SQL).scalar() == expected
    second = scheduler.active_pools().get(2)
    assert second is not None and second is not first
    scheduler.shutdown_pools()


def test_broken_process_pool_is_replaced_on_next_use():
    database = _star_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="process")
    expected = database.execute(COUNT_SQL).scalar()
    assert parallel.execute(COUNT_SQL).scalar() == expected
    pool = scheduler.active_pools()[2]
    # Kill a worker behind the scheduler's back: the next submit must fail
    # loudly, and the one after that must get a fresh pool.
    pool._workers[0].terminate()
    pool._workers[0].join()
    with pytest.raises(Exception):
        parallel.execute(COUNT_SQL)
    assert parallel.execute(COUNT_SQL).scalar() == expected
    replacement = scheduler.active_pools()[2]
    assert replacement is not pool
    scheduler.shutdown_pools()


def test_system_exit_in_an_inline_task_propagates_out_of_execute(monkeypatch):
    """A thread session runs its tasks on the calling thread.

    A ``BaseException`` one task raises leaves ``execute`` as raised — it
    cannot drop that task's rows from a silently wrong answer (7022 of 8044
    here) — and the session serves the next query in full.
    """
    database = Database(parallelism=2, parallel_mode="thread")
    database.register_all(fanout_tables(400, keys=20).values())
    sql = "SELECT COUNT(*) FROM fan_r, fan_s WHERE fan_r.k = fan_s.k"
    real_run_task = scheduler._TaskContext.run_task

    def dies_on_task_one(self, task, *args):
        if task.task_id == 1:
            raise SystemExit("task ended")
        return real_run_task(self, task, *args)

    monkeypatch.setattr(scheduler._TaskContext, "run_task", dies_on_task_one)
    with pytest.raises(SystemExit, match="task ended"):
        database.execute(sql)

    monkeypatch.setattr(scheduler._TaskContext, "run_task", real_run_task)
    outcome = database.execute(sql)
    assert outcome.report.details["parallel"][0]["mode"] == "inline"
    assert outcome.scalar() == 8044
    assert scheduler.active_pools() == {}


# --------------------------------------------------------------------------- #
# Silent shutdown of the process backend
# --------------------------------------------------------------------------- #


_CLOSE_SCRIPT = """
import os, sys
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.workloads.synthetic import FANOUT_SQL, fanout_tables

database = Database(parallelism=2, parallel_mode="process")
for table in fanout_tables(rows=1500, keys=60, skew=1.2, seed=1).values():
    database.register(table)
outcome = database.execute(FANOUT_SQL, options=ExecOptions(engine=sys.argv[1]))
assert outcome.report.details["parallel"][0]["mode"] == "process"
database.close()
print(os.getpid())
"""


@pytest.mark.parametrize("engine", ["freejoin", "binary", "generic"])
def test_process_backend_exits_silently_after_close(engine):
    """Workers release every export of the shared buffers before closing.

    The kernels memoize zero-copy numpy views on attached columns; a segment
    closed while one survives dies with ``BufferError: cannot close exported
    pointers exist`` from ``SharedMemory.__del__`` at interpreter exit — one
    traceback per worker and table on an otherwise clean run.
    """
    source = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _CLOSE_SCRIPT, engine],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    pid = completed.stdout.split()[-1]
    assert glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_{pid}_*") == []
