"""Tests for the front-door query router and admission control.

Routing is a stateless rule over the query's features: the same query
routes the same way whatever ran before it, and ``engine="auto"`` produces
results identical to every explicit engine.  The admission gate rejects
fast with typed reasons and enforces per-class limits without cross-class
starvation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.options import ExecOptions
from repro.engine.session import AUTO_ENGINE, Database, ENGINES
from repro.errors import AdmissionRejected, QueryError
from repro.optimizer.join_order import optimize_query
from repro.parallel import scheduler
from repro.query.planner import Planner
from repro.router import (
    AdmissionGate,
    QueryRouter,
    classify_sql,
    extract_features,
)
from repro.router.admission import ANALYTIC, POINT
from repro.serve import AsyncDatabase
from repro.storage.table import Table
from repro.workloads.job import generate_job_workload
from repro.workloads.lsqb import generate_lsqb_workload

ACYCLIC_COUNT_SQL = "SELECT COUNT(*) FROM r, s WHERE r.b = s.b"
ACYCLIC_ROWS_SQL = "SELECT r.a, s.c FROM r, s WHERE r.b = s.b"
TRIANGLE_SQL = (
    "SELECT COUNT(*) FROM r, s, t "
    "WHERE r.b = s.b AND s.c = t.c AND t.a = r.a"
)
FOUR_ATOM_COUNT_SQL = (
    "SELECT COUNT(*) FROM r, s, t, r AS r2 "
    "WHERE r.b = s.b AND s.c = t.c AND t.a = r2.a"
)


@pytest.fixture
def triangle_db() -> Database:
    database = Database()
    database.register(Table.from_columns("r", {
        "a": [1, 2, 3, 4], "b": [10, 20, 30, 40],
    }))
    database.register(Table.from_columns("s", {
        "b": [10, 20, 30, 50], "c": [100, 200, 300, 400],
    }))
    database.register(Table.from_columns("t", {
        "c": [100, 200, 300, 500], "a": [1, 2, 3, 9],
    }))
    return database


def _plan(database: Database, sql: str):
    logical = Planner(database.catalog).plan_sql(sql)
    binary_plan = optimize_query(
        logical.query, statistics_cache=database.statistics_cache
    )
    return logical, binary_plan


# --------------------------------------------------------------------------- #
# Features and classification
# --------------------------------------------------------------------------- #


def test_extract_features_shapes(triangle_db):
    logical, plan = _plan(triangle_db, TRIANGLE_SQL)
    features = extract_features(
        logical, plan, statistics_cache=triangle_db.statistics_cache
    )
    assert features.shape == "cyclic"
    assert features.atoms == 3
    assert features.count_only
    assert features.total_rows == 12

    logical, plan = _plan(triangle_db, ACYCLIC_ROWS_SQL)
    features = extract_features(logical, plan)
    assert features.shape == "acyclic"
    assert not features.count_only


def test_classify_sql_point_vs_analytic():
    assert classify_sql("SELECT * FROM r WHERE r.a = 1") == POINT
    assert classify_sql(ACYCLIC_COUNT_SQL) == POINT
    assert classify_sql(TRIANGLE_SQL) == ANALYTIC
    assert (
        classify_sql("SELECT r.b, COUNT(*) FROM r, s WHERE r.b = s.b GROUP BY r.b")
        == ANALYTIC
    )
    # FROM inside a column name is not the FROM clause.
    assert classify_sql("SELECT t.from_date, t.a, t.b FROM t") == POINT
    # A WHERE after a newline still ends the FROM clause: IN-list commas
    # are not FROM items.
    assert classify_sql("SELECT COUNT(*) FROM t\nWHERE t.a IN (1, 2, 3)") == POINT
    # Relations joined with JOIN count like comma-separated ones.
    assert (
        classify_sql("SELECT COUNT(*) FROM r LEFT JOIN s ON r.x = s.x LEFT JOIN u ON s.y = u.y")
        == ANALYTIC
    )


# --------------------------------------------------------------------------- #
# The routing rule
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "sql, engine, reason",
    [
        (TRIANGLE_SQL, "freejoin", "cyclic"),
        (ACYCLIC_COUNT_SQL, "binary", "small-count"),
        (ACYCLIC_ROWS_SQL, "freejoin", "default"),
        (FOUR_ATOM_COUNT_SQL, "freejoin", "default"),
        (
            "SELECT COUNT(*) FROM r, s, t WHERE r.b = s.b AND s.c = t.c",
            "binary",
            "small-count",
        ),
        (
            "SELECT COUNT(*) FROM r, s WHERE r.b = s.b AND r.a < s.c",
            "freejoin",
            "default",
        ),
        (
            "SELECT r.a, COUNT(*) FROM r, s WHERE r.b = s.b GROUP BY r.a",
            "freejoin",
            "default",
        ),
    ],
    ids=[
        "cyclic",
        "small-acyclic-count",
        "acyclic-rows",
        "four-atom-count",
        "three-atom-chain-count",
        "residual-count",
        "grouped-count",
    ],
)
def test_routing_rule_table(triangle_db, sql, engine, reason):
    logical, plan = _plan(triangle_db, sql)
    decision = QueryRouter().route(
        logical, plan, statistics_cache=triangle_db.statistics_cache
    )
    assert (decision.engine, decision.reason) == (engine, reason)
    assert decision.parallelism == 1


def test_routing_does_not_depend_on_history(triangle_db):
    """A decision is a function of the query: 20 routed runs that landed on
    other engines leave the next decision exactly as a fresh session makes
    it."""
    fresh = Database(triangle_db.catalog, default_engine=AUTO_ENGINE)
    expected = fresh.execute(ACYCLIC_COUNT_SQL).report.details["router"]
    assert expected["engine"] == "binary"

    busy = Database(triangle_db.catalog, default_engine=AUTO_ENGINE)
    for i in range(20):
        outcome = busy.execute((TRIANGLE_SQL, ACYCLIC_ROWS_SQL)[i % 2])
        assert outcome.report.details["router"]["engine"] == "freejoin"
    assert busy.execute(ACYCLIC_COUNT_SQL).report.details["router"] == expected
    telemetry = busy.router.telemetry()
    assert telemetry["routed"] == telemetry["observed"] == 21
    assert telemetry["by_engine"] == {"freejoin": 20, "binary": 1}


@pytest.mark.parametrize(
    "generate",
    [
        lambda: generate_job_workload(scale=0.03, seed=13),
        lambda: generate_lsqb_workload(scale_factor=0.05, seed=17),
    ],
    ids=["job", "lsqb"],
)
def test_bundled_workload_queries_route_to_freejoin(generate):
    """Every bundled JOB-like and LSQB query routes to Free Join: the JOB
    queries return rows, and each LSQB count is cyclic or joins four or more
    tables.  This is the engine the learned router's cold start picked for
    each of them too."""
    workload = generate()
    database = Database(workload.catalog)
    for query in workload.queries:
        outcome = database.execute(query.sql, options=ExecOptions(engine="auto"))
        assert outcome.report.details["router"]["engine"] == "freejoin", query.name


def test_router_and_session_take_no_routing_knobs():
    with pytest.raises(TypeError):
        QueryRouter(explore=0.0)
    with pytest.raises(TypeError):
        Database(router=QueryRouter())
    with pytest.raises(TypeError):
        Database(feedback_path="router.json")


def test_router_worker_choice_uses_input_size(triangle_db, monkeypatch):
    router = QueryRouter()
    monkeypatch.setattr(scheduler, "PARALLEL_ROW_THRESHOLD", 10)
    logical, plan = _plan(triangle_db, ACYCLIC_ROWS_SQL)

    # Serial session: always 1.
    assert router.route(logical, plan, max_workers=1).parallelism == 1
    # 8 input rows < threshold 10: stays serial even with workers available.
    assert router.route(logical, plan, max_workers=4).parallelism == 1
    monkeypatch.setattr(scheduler, "PARALLEL_ROW_THRESHOLD", 8)
    assert router.route(logical, plan, max_workers=4).parallelism == 4


# --------------------------------------------------------------------------- #
# engine="auto" through the session
# --------------------------------------------------------------------------- #


def test_auto_engine_matches_every_explicit_engine(triangle_db):
    for sql in (ACYCLIC_COUNT_SQL, ACYCLIC_ROWS_SQL, TRIANGLE_SQL):
        expected = {
            engine: sorted(triangle_db.execute(sql, options=ExecOptions(engine=engine)).rows())
            for engine in ENGINES
        }
        reference = next(iter(expected.values()))
        assert all(rows == reference for rows in expected.values())
        outcome = triangle_db.execute(sql, options=ExecOptions(engine="auto"))
        assert sorted(outcome.rows()) == reference
        detail = outcome.report.details["router"]
        assert detail["engine"] in ENGINES
        assert outcome.report.engine == detail["engine"]
        assert outcome.report.as_dict()["router"] == detail


def test_auto_engine_default_and_validation(triangle_db):
    auto_db = Database(triangle_db.catalog, default_engine=AUTO_ENGINE)
    outcome = auto_db.execute(ACYCLIC_COUNT_SQL)
    assert "router" in outcome.report.details
    with pytest.raises(QueryError):
        Database(default_engine="vectorwise")
    with pytest.raises(QueryError):
        triangle_db.execute(ACYCLIC_COUNT_SQL, options=ExecOptions(engine="vectorwise"))


def test_auto_engine_streams_and_counts(triangle_db):
    stream = triangle_db.execute_iter(
        ACYCLIC_ROWS_SQL, options=ExecOptions(engine="auto", batch_rows=2)
    )
    rows = sorted(tuple(row) for batch in stream for row in batch)
    assert rows == sorted(
        tuple(row) for row in triangle_db.execute(ACYCLIC_ROWS_SQL).rows()
    )
    assert "router" in stream.report.details
    assert triangle_db.router.telemetry()["observed"] >= 1


def test_execute_many_routes_with_auto(triangle_db):
    outcome = triangle_db.execute_many(
        [("count", ACYCLIC_COUNT_SQL), ("tri", TRIANGLE_SQL)],
        options=ExecOptions(engine="auto"),
    )
    assert outcome.all_ok()
    for execution in outcome.executions:
        assert execution.engine in ENGINES
        assert execution.router is not None
        assert execution.router["engine"] == execution.engine
        assert "router" in execution.as_dict()


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #


def test_admission_gate_per_class_limits_reject_fast():
    gate = AdmissionGate(point_limit=2, analytic_limit=1)
    tickets = [gate.admit(POINT), gate.admit(POINT)]
    with pytest.raises(AdmissionRejected) as excinfo:
        gate.admit(POINT)
    assert excinfo.value.reason == "class_limit"
    assert excinfo.value.query_class == POINT

    # The analytic class is NOT starved by the point flood.
    analytic = gate.admit(ANALYTIC)
    gate.release(analytic)
    for ticket in tickets:
        gate.release(ticket)
    assert gate.depth() == 0
    assert gate.snapshot()["rejected"]["class_limit"] == 1


def test_admission_gate_bounded_queue_and_release_accounting():
    gate = AdmissionGate(point_limit=8, analytic_limit=8, max_outstanding=2)
    a, b = gate.admit(POINT), gate.admit(ANALYTIC)
    with pytest.raises(AdmissionRejected) as excinfo:
        gate.admit(POINT)
    assert excinfo.value.reason == "queue_full"
    gate.release(a)
    gate.admit(POINT)  # slot freed -> admitted again
    gate.release(b)
    with pytest.raises(QueryError):
        gate.release(b)  # double release is a caller bug, not a no-op


def test_admission_gate_token_bucket_with_injected_clock():
    clock = [0.0]
    gate = AdmissionGate(rate=2.0, burst=2.0, clock=lambda: clock[0])
    gate.release(gate.admit(POINT))
    gate.release(gate.admit(POINT))
    with pytest.raises(AdmissionRejected) as excinfo:
        gate.admit(POINT)
    assert excinfo.value.reason == "rate"
    clock[0] += 0.5  # refills 1 token at 2/s
    gate.release(gate.admit(POINT))
    with pytest.raises(AdmissionRejected):
        gate.admit(POINT)


def test_admission_gate_suggests_fewer_workers_under_load():
    gate = AdmissionGate(point_limit=8, analytic_limit=8)
    assert gate.suggest_workers(1) == 1
    assert gate.suggest_workers(8) == 8
    tickets = [gate.admit(POINT) for _ in range(4)]
    assert gate.suggest_workers(8) == 2
    assert gate.suggest_workers(2) == 1  # never below 1
    for ticket in tickets:
        gate.release(ticket)


def test_admission_gate_rejects_bad_configuration():
    with pytest.raises(QueryError):
        AdmissionGate(point_limit=0)
    with pytest.raises(QueryError):
        AdmissionGate(rate=-1.0)
    with pytest.raises(QueryError):
        AdmissionGate().admit("interactive")


# --------------------------------------------------------------------------- #
# Admission through the serving layer
# --------------------------------------------------------------------------- #


def test_async_database_sheds_load_instead_of_queueing(triangle_db):
    gate = AdmissionGate(point_limit=1, analytic_limit=1, max_outstanding=1)

    async def main():
        async with AsyncDatabase(triangle_db, max_concurrency=2,
                                 admission=gate) as server:
            blocker = gate.admit(POINT)  # saturate from outside
            try:
                with pytest.raises(AdmissionRejected):
                    await server.execute(ACYCLIC_COUNT_SQL)
            finally:
                gate.release(blocker)
            outcome = await server.execute(ACYCLIC_COUNT_SQL)
            admission = outcome.report.details["router"]["admission"]
            assert admission["query_class"] == POINT
            assert admission["depth_at_admit"] == 1
            stats = server.admission_stats()
            assert stats["rejected"]["queue_full"] == 1
            assert stats["outstanding"] == {POINT: 0, ANALYTIC: 0}
            return outcome.scalar()

    assert asyncio.run(main()) == triangle_db.execute(ACYCLIC_COUNT_SQL).scalar()


def test_async_database_releases_ticket_on_stream_close(triangle_db):
    gate = AdmissionGate(point_limit=1, analytic_limit=1)

    async def main():
        async with AsyncDatabase(triangle_db, admission=gate) as server:
            stream = server.execute_stream(ACYCLIC_ROWS_SQL, options=ExecOptions(batch_rows=2))
            async for _ in stream:
                break  # early close must still release the ticket
            await stream.aclose()
            assert gate.depth() == 0
            # The slot is reusable immediately.
            outcome = await server.execute(ACYCLIC_COUNT_SQL)
            return outcome.scalar()

    assert asyncio.run(main()) == triangle_db.execute(ACYCLIC_COUNT_SQL).scalar()


def test_async_database_without_gate_admits_everything(triangle_db):
    async def main():
        async with AsyncDatabase(triangle_db) as server:
            assert server.admission_stats() is None
            outcome = await server.execute(ACYCLIC_COUNT_SQL)
            assert "router" not in outcome.report.details
            return outcome.scalar()

    assert asyncio.run(main()) == triangle_db.execute(ACYCLIC_COUNT_SQL).scalar()


# --------------------------------------------------------------------------- #
# gather_many: bounded retry of transient admission rejections
# --------------------------------------------------------------------------- #


def test_gather_many_retries_transient_admission_rejections(triangle_db):
    """Regression: a gather_many burst against a small gate used to fail
    wholesale on the first ``AdmissionRejected`` even though the gate would
    clear moments later; rejected queries now back off and retry."""
    triangle_db.execute(ACYCLIC_COUNT_SQL)  # warm plans + statistics
    gate = AdmissionGate(point_limit=1, analytic_limit=1, max_outstanding=1)

    async def main():
        async with AsyncDatabase(
            triangle_db, max_concurrency=3, admission=gate
        ) as server:
            results = await server.gather_many(
                [(f"q{i}", ACYCLIC_COUNT_SQL) for i in range(3)],
                max_concurrency=3,
            )
            return [outcome.scalar() for outcome in results]

    expected = triangle_db.execute(ACYCLIC_COUNT_SQL).scalar()
    assert asyncio.run(main()) == [expected] * 3
    # The one-slot gate really did shed load along the way.
    assert sum(gate.snapshot()["rejected"].values()) > 0


def test_gather_many_admission_retry_honors_deadline(triangle_db):
    """A gate that never clears must surface the rejection within the
    per-query budget — not spin on retries past the deadline."""
    import time

    gate = AdmissionGate(point_limit=1, analytic_limit=1, max_outstanding=1)

    async def main():
        async with AsyncDatabase(triangle_db, admission=gate) as server:
            blocker = gate.admit(POINT)  # saturate for the whole test
            try:
                started = time.perf_counter()
                with pytest.raises(AdmissionRejected):
                    await server.gather_many(
                        [("q", ACYCLIC_COUNT_SQL)], options=ExecOptions(timeout=0.1)
                    )
                return time.perf_counter() - started
            finally:
                gate.release(blocker)

    waited = asyncio.run(main())
    assert waited < 1.0, f"rejection surfaced only after {waited:.2f}s"
