"""Tests for the one-spelling ``ExecOptions`` contract.

* every entry point (``execute``, ``execute_iter``, ``execute_many``,
  ``subscribe``, ``AsyncDatabase.execute``/``execute_stream``/``gather_many``)
  takes its per-query knobs as ``options=`` and in no other way;
* options are validated once, at construction;
* the session resolves them once: ``ExecOptions.parallelism`` beats the
  router, which beats the session default (or the admission gate's cap) —
  identically on every plan policy and every entry point;
* no engine options class says how a run executes (workers, backend,
  deadline): that is the run context's job.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import re
import time
import typing
from collections import Counter

import pytest

import repro.engine.session as session_module
from repro import Database, ExecOptions
from repro.binaryjoin.executor import BinaryJoinOptions
from repro.core.engine import FreeJoinOptions
from repro.engine.options import ENGINES
from repro.errors import AdmissionRejected, DeadlineExceeded, QueryError
from repro.genericjoin.executor import GenericJoinOptions
from repro.parallel import scheduler
from repro.parallel.cancellation import DeadlineToken
from repro.router.admission import AdmissionGate
from repro.serve import AsyncDatabase
from repro.storage.table import Table
from repro.workloads.job import generate_job_workload


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.register(
        Table.from_rows("r", ["x", "y"], [(1, 10), (2, 20), (3, 30), (1, 40)])
    )
    db.register(Table.from_rows("s", ["y", "z"], [(10, 7), (20, 8), (40, 9)]))
    return db


JOIN_SQL = "SELECT COUNT(*) FROM r, s WHERE r.y = s.y"
GROUP_SQL = "SELECT r.x, COUNT(*) FROM r, s WHERE r.y = s.y GROUP BY r.x"
ROWS_SQL = "SELECT r.x, s.z FROM r, s WHERE r.y = s.y"


@pytest.fixture(autouse=True)
def _pools_down_afterwards():
    yield
    scheduler.shutdown_pools()


# --------------------------------------------------------------------------- #
# ExecOptions itself: validated once, at construction
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "bad",
    [
        dict(parallelism=0),
        dict(batch_rows=0),
        dict(max_batches=-1),
        dict(engine="nope"),
        dict(timeout=-1.0),
        dict(timeout=0),
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_exec_options_validates_at_construction(bad):
    with pytest.raises(QueryError):
        ExecOptions(**bad)


def test_unknown_default_engine_is_rejected_by_the_same_check():
    with pytest.raises(QueryError, match="unknown engine 'nope'; choose from"):
        Database(default_engine="nope")
    with pytest.raises(QueryError, match="unknown engine 'nope'; choose from"):
        ExecOptions(engine="nope")


def test_policy_table_and_engine_names_agree():
    assert tuple(session_module._PLAN_POLICIES) == ENGINES == session_module.ENGINES


def test_resolve_deadline_prefers_token_over_timeout():
    token = DeadlineToken.after(5.0)
    opts = ExecOptions(timeout=0.001, deadline=token)
    assert opts.resolve_deadline() is token
    assert ExecOptions().resolve_deadline() is None
    always = ExecOptions().resolve_deadline(always=True)
    assert always is not None  # cancellation-only token


def test_deadline_field_annotation_is_typed():
    hints = typing.get_type_hints(
        ExecOptions, localns={"DeadlineToken": DeadlineToken, "FreeJoinOptions": FreeJoinOptions}
    )
    assert hints["deadline"] == typing.Optional[DeadlineToken]


def test_top_level_exports():
    import repro
    import repro.engine

    assert "ExecOptions" in repro.__all__
    assert "StandingQuery" in repro.__all__
    assert repro.ExecOptions is ExecOptions
    assert not hasattr(repro.engine, "resolve_options")


# --------------------------------------------------------------------------- #
# One spelling
# --------------------------------------------------------------------------- #

ENTRY_POINTS = [
    Database.execute,
    Database.execute_iter,
    Database.execute_many,
    Database.subscribe,
    AsyncDatabase.execute,
    AsyncDatabase.execute_stream,
    AsyncDatabase.gather_many,
]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=lambda fn: fn.__qualname__)
def test_entry_points_take_knobs_only_as_options(entry_point):
    parameters = inspect.signature(entry_point).parameters
    knobs = {field.name for field in dataclasses.fields(ExecOptions)}
    assert "options" in parameters
    assert parameters["options"].kind is inspect.Parameter.KEYWORD_ONLY
    assert not knobs & set(parameters)


def test_loose_knob_kwargs_are_type_errors():
    db = make_db()
    with pytest.raises(TypeError):
        db.execute(JOIN_SQL, **{"engine": "binary"})
    with pytest.raises(TypeError):
        db.execute(*(JOIN_SQL, "binary"))
    with pytest.raises(TypeError):
        db.execute_iter(JOIN_SQL, **{"batch_rows": 2})
    with pytest.raises(TypeError):
        db.execute_many([JOIN_SQL], **{"timeout": 1.0})


@pytest.mark.parametrize(
    "options_class", [FreeJoinOptions, BinaryJoinOptions, GenericJoinOptions]
)
def test_engine_options_hold_plan_knobs_only(options_class):
    names = {field.name for field in dataclasses.fields(options_class)}
    assert not names & {"parallelism", "parallel_mode", "deadline"}
    for run_field in ("parallelism", "parallel_mode", "deadline"):
        with pytest.raises(TypeError):
            options_class(**{run_field: None})


# --------------------------------------------------------------------------- #
# Entry points honour their options
# --------------------------------------------------------------------------- #


def test_execute_honours_options():
    db = make_db()
    outcome = db.execute(
        JOIN_SQL, options=ExecOptions(engine="binary", timeout=30.0, parallelism=1)
    )
    assert outcome.scalar() == 3
    assert outcome.report.engine == "binary"


def test_execute_options_deadline_is_enforced():
    db = make_db()
    token = DeadlineToken.after(0.000001)
    time.sleep(0.01)
    with pytest.raises(DeadlineExceeded):
        db.execute(JOIN_SQL, options=ExecOptions(deadline=token))


def test_execute_iter_honours_options():
    db = make_db()
    with db.execute_iter(
        ROWS_SQL, options=ExecOptions(engine="generic", batch_rows=2, max_batches=4)
    ) as stream:
        batches = list(stream)
    assert sorted(row for batch in batches for row in batch) == [(1, 7), (1, 9), (2, 8)]
    assert all(len(batch) <= 2 for batch in batches)
    assert stream.report.engine == "generic"


def test_execute_many_accepts_options():
    db = make_db()
    outcome = db.execute_many(
        [("q0", JOIN_SQL), ("q1", GROUP_SQL)],
        options=ExecOptions(engine="binary", timeout=30.0),
    )
    assert [q.status for q in outcome.executions] == ["ok", "ok"]
    assert [q.engine for q in outcome.executions] == ["binary", "binary"]
    assert outcome.timeout == 30.0


def test_execute_many_rejects_worker_hostile_options():
    """A deadline token cancels one query; a workload budgets each query
    with ``timeout``.  ``bad_estimates`` is an ordinary per-query knob."""
    db = make_db()
    with pytest.raises(QueryError, match="deadline"):
        db.execute_many(
            [JOIN_SQL], options=ExecOptions(deadline=DeadlineToken.after(1.0))
        )
    outcome = db.execute_many([JOIN_SQL], options=ExecOptions(bad_estimates=True))
    assert outcome.all_ok() and outcome.executions[0].rows == [(3,)]


def test_async_entry_points_honour_options():
    db = make_db()

    async def main():
        async with AsyncDatabase(db) as server:
            outcome = await server.execute(
                JOIN_SQL, options=ExecOptions(engine="binary", timeout=30.0)
            )
            assert outcome.scalar() == 3
            assert outcome.report.engine == "binary"
            rows = []
            async for batch in server.execute_stream(
                ROWS_SQL, options=ExecOptions(batch_rows=2)
            ):
                assert len(batch) <= 2
                rows.extend(batch)
            assert sorted(rows) == [(1, 7), (1, 9), (2, 8)]
            results = await server.gather_many(
                [JOIN_SQL, GROUP_SQL], options=ExecOptions(engine="generic", timeout=30.0)
            )
            assert [outcome.report.engine for outcome in results] == ["generic"] * 2

    asyncio.run(main())


# --------------------------------------------------------------------------- #
# One resolution: the worker-count precedence rule
# --------------------------------------------------------------------------- #


def _wide_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.register(Table.from_columns("r", {"x": list(range(300)), "y": [i % 7 for i in range(300)]}))
    db.register(Table.from_columns("s", {"y": [i % 7 for i in range(60)], "z": list(range(60))}))
    return db


def _iter_report(db, sql, options):
    with db.execute_iter(sql, options=options) as stream:
        rows = [row for batch in stream for row in batch]
    return rows, stream.report


@pytest.mark.parametrize("engine", ENGINES)
def test_explicit_parallelism_wins_on_every_policy(engine):
    """The regression: at the parent commit a session-level
    ``FreeJoinOptions(parallelism=2)`` kept Free Join parallel under
    ``ExecOptions(parallelism=1)`` while binary/generic went serial."""
    parallel_session = _wide_db(parallelism=2, parallel_mode="thread")
    serial_session = Database(parallel_session.catalog)
    expected = Counter(serial_session.execute(ROWS_SQL).rows())

    forced_serial = ExecOptions(engine=engine, parallelism=1)
    outcome = parallel_session.execute(ROWS_SQL, options=forced_serial)
    assert "parallel" not in outcome.report.details
    assert Counter(outcome.rows()) == expected
    rows, report = _iter_report(parallel_session, ROWS_SQL, forced_serial)
    assert "parallel" not in report.details
    assert Counter(rows) == expected

    forced_parallel = ExecOptions(engine=engine, parallelism=2)
    outcome = serial_session.execute(ROWS_SQL, options=forced_parallel)
    assert outcome.report.details["parallel"][0]["shards"] == 2
    assert Counter(outcome.rows()) == expected
    rows, report = _iter_report(serial_session, ROWS_SQL, forced_parallel)
    assert report.details["parallel"][0]["shards"] == 2
    assert Counter(rows) == expected

    # The session default applies when the query says nothing.
    assert "parallel" in parallel_session.execute(
        ROWS_SQL, options=ExecOptions(engine=engine)
    ).report.details


def test_session_freejoin_options_cannot_carry_a_worker_count():
    with pytest.raises(TypeError):
        Database(freejoin_options=FreeJoinOptions(**{"parallelism": 2, "parallel_mode": "thread"}))


def test_explicit_parallelism_beats_the_router_decision():
    db = _wide_db(default_engine="auto")  # serial session: the router decides 1
    routed = db.execute(ROWS_SQL)
    assert routed.report.details["router"]["parallelism"] == 1
    assert "parallel" not in routed.report.details

    outcome = db.execute(ROWS_SQL, options=ExecOptions(parallelism=2))
    # The record still says what the router chose; the run used the override.
    assert outcome.report.details["router"]["parallelism"] == 1
    assert outcome.report.details["parallel"][0]["shards"] == 2
    assert Counter(outcome.rows()) == Counter(routed.rows())


def test_gated_async_caps_routed_queries_but_not_explicit_parallelism(monkeypatch):
    """Under a gate the suggestion is the router's cap and the unrouted
    default; an explicit ``ExecOptions.parallelism`` is not capped."""

    class OneWorkerGate(AdmissionGate):
        def suggest_workers(self, base: int) -> int:
            return 1

    gate = OneWorkerGate(max_outstanding=4)
    db = _wide_db(parallelism=4, parallel_mode="thread")
    # A router that would parallelize anything it is allowed to.
    monkeypatch.setattr(scheduler, "PARALLEL_ROW_THRESHOLD", 0)

    async def main():
        async with AsyncDatabase(db, admission=gate) as server:
            routed = await server.execute(ROWS_SQL, options=ExecOptions(engine="auto"))
            assert routed.report.details["router"]["parallelism"] == 1
            assert "parallel" not in routed.report.details
            assert routed.report.details["router"]["admission"]["workers"] == 1

            unrouted = await server.execute(ROWS_SQL, options=ExecOptions(engine="binary"))
            assert "parallel" not in unrouted.report.details

            explicit = await server.execute(
                ROWS_SQL, options=ExecOptions(engine="auto", parallelism=2)
            )
            assert explicit.report.details["parallel"][0]["shards"] == 2
            assert explicit.report.details["router"]["admission"]["workers"] == 2
            assert Counter(explicit.rows()) == Counter(routed.rows())

            streamed = [
                row
                async for batch in server.execute_stream(
                    ROWS_SQL, options=ExecOptions(engine="auto")
                )
                for row in batch
            ]
            assert Counter(streamed) == Counter(routed.rows())

    asyncio.run(main())
    # Without the gate the same routed query uses the session's workers.
    assert "parallel" in db.execute(ROWS_SQL, options=ExecOptions(engine="auto")).report.details
    # Every ticket was released, on every path.
    assert sum(gate.snapshot()["outstanding"].values()) == 0
    assert sum(gate.snapshot()["admitted"].values()) == 4


def test_async_database_serves_on_the_wrapped_session(monkeypatch):
    """No throwaway per-request sessions: serving constructs no Database."""
    db = make_db()

    async def main():
        async with AsyncDatabase(db) as server:
            monkeypatch.setattr(
                Database, "__init__", lambda *a, **k: pytest.fail("a session was built")
            )
            assert (await server.execute(JOIN_SQL)).scalar() == 3
            async for _ in server.execute_stream(ROWS_SQL):
                pass

    asyncio.run(main())
    assert not hasattr(AsyncDatabase, "_make_session")


def test_gather_many_retries_admission_within_the_options_budget():
    """`options.timeout` is the per-query budget across admission retries."""
    gate = AdmissionGate(max_outstanding=1)
    db = make_db()

    async def main():
        async with AsyncDatabase(db, admission=gate, max_concurrency=4) as server:
            # Four queries through a one-slot gate: rejected siblings retry
            # with backoff and all complete inside the budget.
            results = await server.gather_many(
                [JOIN_SQL] * 4, options=ExecOptions(timeout=30.0)
            )
            assert [outcome.scalar() for outcome in results] == [3] * 4

            # A budget smaller than the first backoff cannot wait out a held
            # gate: the rejection (or the exhausted budget) surfaces instead.
            ticket = gate.admit("point")
            try:
                [failure] = await server.gather_many(
                    [JOIN_SQL], options=ExecOptions(timeout=0.01), return_exceptions=True
                )
            finally:
                gate.release(ticket)
            assert isinstance(failure, (AdmissionRejected, DeadlineExceeded))

    asyncio.run(main())
    assert sum(gate.snapshot()["outstanding"].values()) == 0


# --------------------------------------------------------------------------- #
# execute_iter honours bad_estimates
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def job():
    workload = generate_job_workload(scale=0.1, seed=42)
    return workload, Database(workload.catalog)


def _differing_plan_query(workload, database):
    """A JOB query whose bad-estimate join order differs from the good one."""
    for query in workload.queries:
        good = database.execute(query.sql)
        bad = database.execute(query.sql, options=ExecOptions(bad_estimates=True))
        if repr(good.binary_plan) != repr(bad.binary_plan):
            return query, repr(bad.binary_plan)
    pytest.fail("no JOB query changes plan under bad estimates")


@pytest.mark.parametrize("branch", ["rows", "grouped", "topk"])
def test_execute_iter_optimizes_with_bad_estimates(job, branch):
    """The stream runs the plan ``bad_estimates`` orders, not the good one —
    whether or not the session has planned this SQL before."""
    workload, database = job
    query, bad_plan = _differing_plan_query(workload, database)
    select_list, from_where = query.sql.split(" FROM ", 1)
    column = re.search(r"\((\w+\.\w+)\)", select_list).group(1)
    sql = {
        "rows": f"SELECT {column} FROM {from_where}",
        "grouped": f"SELECT {column}, COUNT(*) FROM {from_where} GROUP BY {column}",
        "topk": f"SELECT {column} FROM {from_where} ORDER BY {column} LIMIT 5",
    }[branch]

    options = ExecOptions(bad_estimates=True)
    _rows, good_report = _iter_report(database, sql, ExecOptions())
    expected = database.execute(sql, options=options)
    assert repr(expected.binary_plan) != repr(database.execute(sql).binary_plan)
    with database.execute_iter(sql, options=options) as stream:
        batches = list(stream)
    assert stream.report.details["plans"] == expected.report.details["plans"]
    assert stream.report.details["plans"] != good_report.details["plans"]
    if branch == "grouped":
        from repro.engine.streaming import collapse_grouped_batches

        assert collapse_grouped_batches(batches, [0]) == expected.rows()
    elif branch == "topk":
        assert [row for batch in batches for row in batch] == expected.rows()
    else:
        assert Counter(row for batch in batches for row in batch) == Counter(expected.rows())


def test_good_and_bad_estimates_keep_their_own_plan_on_one_session(job):
    """``bad_estimates`` is part of the prepared-query key: alternating the
    flag on one session never serves one flag's plan to the other."""
    workload, _shared = job
    database = Database(workload.catalog)
    query, bad_plan = _differing_plan_query(workload, Database(workload.catalog))
    bad = ExecOptions(bad_estimates=True)
    first = database.execute(query.sql)
    assert repr(first.binary_plan) != bad_plan
    for options, plan, hit in [
        (bad, bad_plan, False),
        (None, repr(first.binary_plan), True),
        (bad, bad_plan, True),
    ]:
        outcome = database.execute(query.sql, options=options)
        assert repr(outcome.binary_plan) == plan
        assert outcome.report.details["prepared"]["hit"] is hit
        assert outcome.rows() == first.rows()


def test_execute_many_optimizes_with_bad_estimates(job):
    """Every workload query goes through the session's ``_prepare``, so the
    batch runs — and leaves in the prepared-query cache — the bad plan."""
    workload, _shared = job
    query, bad_plan = _differing_plan_query(workload, Database(workload.catalog))
    bad = ExecOptions(bad_estimates=True)
    expected = Database(workload.catalog).execute(query.sql, options=bad, name=query.name)
    database = Database(workload.catalog)
    outcome = database.execute_many([query], max_workers=2, options=bad)
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    assert Counter(outcome.query(query.name).rows) == Counter(expected.rows())
    served = database.execute(query.sql, options=bad, name=query.name)
    assert served.report.details["prepared"]["hit"] is True
    assert repr(served.binary_plan) == bad_plan
    assert served.report.details["plans"] == expected.report.details["plans"]
    good = database.execute(query.sql, name=query.name)
    assert good.report.details["prepared"]["reason"] == "cold"
    assert repr(good.binary_plan) != bad_plan
