"""The steal pool's message protocol, and the thread sessions that skip it.

A query's tasks follow its setup message without a readiness barrier; a
sink that absorbs after the drain gets its task outcomes with each
worker's ``"drained"`` report (one message per worker), while a sink that
absorbs on arrival still gets one ``"result"`` message per task.  A thread
session runs the same tasks inline — no pool, no message — over one task
context that compiles each pipeline's kernel program once per query.
Setup failures and deadlines that passed before setup still come back as
the same classified errors.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.session import Database
from repro.errors import DeadlineExceeded, ExecutionError
from repro.parallel import scheduler
from repro.parallel.scheduler import assign_preferred, decompose_entries
from repro.storage.table import Table

COUNT_SQL = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k"
GROUP_SQL = "SELECT r.a, COUNT(*) FROM r, s WHERE r.k = s.k GROUP BY r.a"


@pytest.fixture(scope="module")
def database():
    database = Database()
    rows = range(900)
    database.register(
        Table.from_columns("r", {"k": [i % 97 for i in rows], "a": [i % 5 for i in rows]})
    )
    database.register(Table.from_columns("s", {"k": [i % 89 for i in range(300)]}))
    return database


@pytest.fixture
def received(monkeypatch):
    """The kinds of the messages the parent takes off the result queue."""
    kinds = []
    real = scheduler.StealPool._receive

    def recording(self, *args, **kwargs):
        message = real(self, *args, **kwargs)
        kinds.append(message[0])
        return message

    monkeypatch.setattr(scheduler.StealPool, "_receive", recording)
    yield kinds
    scheduler.shutdown_pools()


def test_count_outcomes_travel_with_the_drained_reports(database, received):
    expected = database.execute(COUNT_SQL).scalar()
    session = Database(database.catalog, parallelism=2, parallel_mode="process")
    outcome = session.execute(COUNT_SQL)
    assert outcome.scalar() == expected
    assert outcome.report.details["output"]["mode"] == "count"
    (detail,) = outcome.report.details["parallel"]
    assert detail["mode"] == "process" and detail["tasks"] > 2
    assert received == ["drained"] * 2
    assert sum(entry["tasks"] for entry in detail["per_shard"]) == detail["tasks"]


def test_absorbing_sinks_still_get_one_message_per_task(database, received):
    expected = sorted(database.execute(GROUP_SQL).rows())
    session = Database(database.catalog, parallelism=2, parallel_mode="process")
    outcome = session.execute(GROUP_SQL)
    assert sorted(outcome.rows()) == expected
    (detail,) = outcome.report.details["parallel"]
    assert received.count("result") == detail["tasks"]
    assert received.count("drained") == 2


@pytest.mark.parametrize("sql", [COUNT_SQL, GROUP_SQL], ids=["count", "group"])
def test_thread_session_runs_its_tasks_inline(database, received, sql):
    expected = sorted(database.execute(sql).rows())
    session = Database(database.catalog, parallelism=2, parallel_mode="thread")
    outcome = session.execute(sql)
    assert sorted(outcome.rows()) == expected
    (detail,) = outcome.report.details["parallel"]
    assert detail["mode"] == "inline" and detail["tasks"] == 8
    assert (detail["workers"], detail["steals"]) == (1, 0)
    assert detail["queue"]["wait_seconds_max"] == 0.0
    (shard,) = detail["per_shard"]
    assert shard["tasks"] == detail["tasks"]
    assert received == [] and scheduler.active_pools() == {}


def test_thread_session_compiles_each_pipeline_once_per_query(database):
    session = Database(database.catalog, parallelism=2, parallel_mode="thread")
    for _ in range(2):
        outcome = session.execute(COUNT_SQL)
        assert outcome.report.details["parallel"][0]["tasks"] > 2
        assert outcome.report.details["kernels"]["programs"]["misses"] == 1


class _Sink:
    absorb_on_arrival = False


def _submit(pool, deadline=None):
    """Submit eight tasks with a setup no worker can build a context from."""
    tasks = decompose_entries(8, pool.workers)
    assign_preferred(tasks, pool.workers)
    setup = {"task_sink": None, "absorb_on_arrival": False, "deadline": deadline}
    return pool.submit(setup, _Sink(), tasks)


def test_setup_failure_is_a_plain_execution_error(database, received):
    scheduler.shutdown_pools()
    pool = scheduler.get_pool(2)
    with pytest.raises(ExecutionError) as failure:
        _submit(pool)
    assert type(failure.value) is ExecutionError
    assert "setup failed" in str(failure.value)
    assert "ready" not in received and received.count("setup_error") == 2
    # An ordinary query error: the pool drained cleanly and serves on.
    assert not pool.broken
    session = Database(database.catalog, parallelism=2, parallel_mode="process")
    assert session.execute(COUNT_SQL).scalar() == database.execute(COUNT_SQL).scalar()
    assert scheduler.active_pools()[2] is pool


def test_deadline_passed_before_setup_is_a_deadline_error(received):
    scheduler.shutdown_pools()
    pool = scheduler.get_pool(2)
    with pytest.raises(DeadlineExceeded, match="before worker setup"):
        _submit(pool, deadline=time.monotonic() - 1.0)
    assert not pool.broken
