"""Tests for the front-door query router and admission control.

The acceptance bar from the router tentpole: routing is deterministic under
a fixed seed (cold statistics-only heuristics, then warm EWMA argmin with
seeded exploration); ``engine="auto"`` produces results identical to every
explicit engine; the admission gate rejects fast with typed reasons,
enforces per-class limits without cross-class starvation, and its feedback
store round-trips through JSON.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.engine.options import ExecOptions
from repro.engine.session import AUTO_ENGINE, Database, ENGINES
from repro.errors import AdmissionRejected, QueryError
from repro.optimizer.join_order import optimize_query
from repro.query.planner import Planner
from repro.router import (
    AdmissionGate,
    FeedbackStore,
    QueryRouter,
    classify_sql,
    extract_features,
)
from repro.router.admission import ANALYTIC, POINT
from repro.serve import AsyncDatabase
from repro.storage.table import Table

ACYCLIC_COUNT_SQL = "SELECT COUNT(*) FROM r, s WHERE r.b = s.b"
ACYCLIC_ROWS_SQL = "SELECT r.a, s.c FROM r, s WHERE r.b = s.b"
TRIANGLE_SQL = (
    "SELECT COUNT(*) FROM r, s, t "
    "WHERE r.b = s.b AND s.c = t.c AND t.a = r.a"
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
    assert len(features.fingerprints) == 3

    logical, plan = _plan(triangle_db, ACYCLIC_ROWS_SQL)
    features = extract_features(logical, plan)
    assert features.shape == "acyclic"
    assert not features.count_only
    assert features.shape_bucket() == "acyclic:small:rows"


def test_classify_sql_point_vs_analytic():
    assert classify_sql("SELECT * FROM r WHERE r.a = 1") == POINT
    assert classify_sql(ACYCLIC_COUNT_SQL) == POINT
    assert classify_sql(TRIANGLE_SQL) == ANALYTIC
    assert (
        classify_sql("SELECT r.b, COUNT(*) FROM r, s WHERE r.b = s.b GROUP BY r.b")
        == ANALYTIC
    )


# --------------------------------------------------------------------------- #
# Cold vs warm routing policy
# --------------------------------------------------------------------------- #


def test_cold_routing_follows_statistics(triangle_db):
    router = QueryRouter(explore=0.0)
    logical, plan = _plan(triangle_db, TRIANGLE_SQL)
    decision = router.route(
        logical, plan, statistics_cache=triangle_db.statistics_cache
    )
    assert decision.reason == "cold"
    assert decision.engine == "freejoin", "cyclic queries go worst-case optimal"

    logical, plan = _plan(triangle_db, ACYCLIC_COUNT_SQL)
    decision = router.route(logical, plan)
    assert decision.reason == "cold"
    assert decision.engine == "binary", "small acyclic counts skip the trie build"


def test_warm_routing_prefers_observed_fastest(triangle_db):
    feedback = FeedbackStore()
    router = QueryRouter(feedback, explore=0.0)
    logical, plan = _plan(triangle_db, ACYCLIC_COUNT_SQL)
    bucket = router.route(logical, plan).bucket

    feedback.record(bucket, "freejoin", 0.010)
    feedback.record(bucket, "binary", 0.050)
    decision = router.route(logical, plan)
    assert decision.reason == "warm"
    assert decision.engine == "freejoin"
    assert decision.expected_seconds == pytest.approx(0.010)

    # Enough faster observations flip the preference: EWMA tracks drift.
    for _ in range(20):
        feedback.record(bucket, "binary", 0.001)
    assert router.route(logical, plan).engine == "binary"


def test_routing_is_deterministic_under_fixed_seed(triangle_db):
    logical, plan = _plan(triangle_db, ACYCLIC_COUNT_SQL)

    def decision_sequence(seed):
        feedback = FeedbackStore()
        router = QueryRouter(feedback, explore=0.5, seed=seed)
        sequence = []
        for _ in range(12):
            decision = router.route(logical, plan)
            sequence.append((decision.engine, decision.reason))
            router.observe(decision, 0.01)
        return sequence

    assert decision_sequence(7) == decision_sequence(7)
    assert {reason for _, reason in decision_sequence(7)} >= {"cold"}


def test_exploration_probes_less_observed_engines(triangle_db):
    feedback = FeedbackStore()
    router = QueryRouter(feedback, explore=1.0, seed=0)
    logical, plan = _plan(triangle_db, ACYCLIC_COUNT_SQL)
    bucket = router.route(logical, plan).bucket
    feedback.record(bucket, "binary", 0.001)
    decision = router.route(logical, plan)
    assert decision.reason == "explore"
    assert decision.engine != "binary", "exploration probes what it has not seen"


def test_router_worker_choice_uses_size_and_warmth(triangle_db):
    router = QueryRouter(explore=0.0, parallel_row_threshold=10)
    logical, plan = _plan(triangle_db, ACYCLIC_ROWS_SQL)

    # Serial session: always 1.
    assert router.route(logical, plan, max_workers=1).parallelism == 1
    # 8 input rows < threshold 10: stays serial even with workers available.
    assert router.route(logical, plan, max_workers=4).parallelism == 1
    # Fully warm fingerprints halve the threshold (10 -> 5 <= 8 rows).
    router.observe(router.route(logical, plan), 0.01)
    decision = router.route(logical, plan, max_workers=4)
    assert decision.warm_fraction == 1.0
    assert decision.parallelism == 4


def test_feedback_store_json_round_trip(tmp_path):
    store = FeedbackStore(alpha=0.5)
    store.record("acyclic:small:agg", "binary", 0.02)
    store.record("acyclic:small:agg", "binary", 0.04)
    store.record("cyclic:large:rows", "freejoin", 1.5)

    clone = FeedbackStore.from_json(store.to_json())
    assert clone.alpha == 0.5
    assert clone.expected_seconds("acyclic:small:agg", "binary") == pytest.approx(
        store.expected_seconds("acyclic:small:agg", "binary")
    )
    assert clone.observations("acyclic:small:agg", "binary") == 2
    assert clone.best_engine("cyclic:large:rows") == "freejoin"

    path = tmp_path / "feedback.json"
    store.save(path)
    restored = FeedbackStore.load(path)
    assert restored.as_dict() == store.as_dict()
    json.loads(store.to_json())  # valid JSON, not just repr


def test_router_rejects_bad_configuration():
    with pytest.raises(QueryError):
        QueryRouter(explore=1.5)
    with pytest.raises(QueryError):
        FeedbackStore(alpha=0.0)
    with pytest.raises(QueryError):
        FeedbackStore().record("b", "freejoin", -1.0)


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


def test_auto_engine_streams_and_learns(triangle_db):
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
# Durable feedback: feedback_path on Database / AsyncDatabase
# --------------------------------------------------------------------------- #


def test_feedback_path_persists_and_reloads(tmp_path, triangle_db):
    """What one session's router learned, the next session starts with."""
    path = tmp_path / "feedback.json"
    first = Database(triangle_db.catalog, feedback_path=str(path))
    first.execute(ACYCLIC_COUNT_SQL, options=ExecOptions(engine="auto"))
    learned = first.router.feedback.as_dict()
    assert learned["entries"], "the routed query must have been observed"
    first.close()  # saves

    assert path.exists()
    second = Database(triangle_db.catalog, feedback_path=str(path))
    assert second.router.feedback.as_dict() == learned
    second.close()


def test_feedback_path_missing_file_starts_cold(tmp_path):
    database = Database(feedback_path=str(tmp_path / "never_written.json"))
    assert database.router.feedback.as_dict()["entries"] == []
    database.close()
    # close() persisted the (empty) store, so the next start-up reads it.
    assert (tmp_path / "never_written.json").exists()


def test_feedback_path_corrupted_file_falls_back_to_cold_store(tmp_path):
    """Regression: a truncated/hand-mangled feedback file must not fail the
    session — routing degrades to cold-start and the file is rewritten
    valid on close."""
    path = tmp_path / "feedback.json"
    path.write_text('{"alpha": 0.3, "entries": [{"bucket"')  # crash artifact
    database = Database(feedback_path=str(path))
    assert database.router.feedback.as_dict()["entries"] == []
    database.close()
    restored = FeedbackStore.load(str(path))  # valid JSON again
    assert restored.as_dict()["entries"] == []

    # Structurally valid JSON with a broken payload falls back too.
    path.write_text(json.dumps({"alpha": "not a number"}))
    database = Database(feedback_path=str(path))
    assert database.router.feedback.as_dict()["entries"] == []
    database.close()


def test_feedback_path_conflicts_with_prebuilt_router(tmp_path):
    with pytest.raises(QueryError):
        Database(
            router=QueryRouter(),
            feedback_path=str(tmp_path / "feedback.json"),
        )


def test_async_database_close_persists_feedback(tmp_path, triangle_db):
    path = tmp_path / "feedback.json"

    async def main():
        async with AsyncDatabase(
            catalog=triangle_db.catalog, feedback_path=str(path)
        ) as server:
            outcome = await server.execute(ACYCLIC_COUNT_SQL, options=ExecOptions(engine="auto"))
            return outcome.scalar()

    assert asyncio.run(main()) == triangle_db.execute(ACYCLIC_COUNT_SQL).scalar()
    # close() ran on __aexit__ without close_database: the file is there.
    assert FeedbackStore.load(str(path)).as_dict()["entries"]


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
