"""Parallel/serial parity for the parallel execution subsystem.

The contract under test (see :mod:`repro.parallel`):

* sharded execution returns the same bag of rows as the serial path for all
  three engines, for ``rows`` and ``count`` sinks, with vectorization on and
  off — and with static cover selection the row *order* is byte-identical;
* ``Database.execute_many`` returns per-query results bag-equal to serial
  :meth:`Database.execute` calls and the naive reference executor on every
  engine, kernel path and session backend, runs on the caller's session
  (its prepared-query cache is warm afterwards), and captures errors per
  query.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter

import pytest

from repro.binaryjoin.executor import BinaryJoinEngine
from repro.core.engine import FreeJoinEngine, FreeJoinOptions
from repro.engine.options import ExecOptions
from repro.engine.output import CountSink, FactorizedSink, JoinResult, OutputSink, RowSink
from repro.engine.pipeline import RunContext
from repro.engine.session import Database
from repro.experiments.differential import canonicalize, reference_rows
from repro.genericjoin.executor import GenericJoinEngine
from repro.optimizer.join_order import optimize_query
from repro.parallel import resolve_mode
from repro.parallel.workload import normalize_queries
from repro.query.planner import Planner
from repro.query.sql import parse_sql
from repro.storage.table import Table
from repro.workloads.job import generate_job_workload
from repro.workloads.synthetic import FANOUT_SQL, fanout_tables

ENGINES = ("freejoin", "binary", "generic")


# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def star_database():
    """A small star-schema database with enough rows to make 4 shards real."""
    fact = Table.from_columns("fact", {
        "k": [i % 37 for i in range(600)],
        "a": [i % 11 for i in range(600)],
    })
    dim_one = Table.from_columns("dim_one", {
        "k": [i % 37 for i in range(200)],
        "b": [i % 7 for i in range(200)],
    })
    dim_two = Table.from_columns("dim_two", {
        "a": [i % 11 for i in range(150)],
        "c": [i % 5 for i in range(150)],
    })
    database = Database()
    for table in (fact, dim_one, dim_two):
        database.register(table)
    return database


COUNT_SQL = (
    "SELECT COUNT(*) FROM fact, dim_one, dim_two "
    "WHERE fact.k = dim_one.k AND fact.a = dim_two.a"
)
ROWS_SQL = (
    "SELECT fact.k, dim_one.b, dim_two.c FROM fact, dim_one, dim_two "
    "WHERE fact.k = dim_one.k AND fact.a = dim_two.a"
)


def parallel_database(serial: Database, parallelism: int, **kwargs) -> Database:
    clone = Database(
        serial.catalog, parallelism=parallelism, parallel_mode="thread", **kwargs
    )
    return clone


# --------------------------------------------------------------------------- #
# Plan/atoms/schemas of a query's first pipeline (shared with test_scheduler)
# --------------------------------------------------------------------------- #


def freejoin_plan_and_atoms(query):
    plan = optimize_query(query)
    engine = FreeJoinEngine()
    free_plan = engine._plan_for_pipeline(
        plan.decompose()[0], {a.name: a for a in query.atoms}, FreeJoinOptions()
    )
    atoms = {a.name: a for a in query.atoms}
    schemas = FreeJoinEngine._schemas(free_plan, atoms)
    return free_plan, atoms, schemas


# --------------------------------------------------------------------------- #
# Engine-level parity: all engines x {count, rows} x vectorization on/off
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql", [COUNT_SQL, ROWS_SQL], ids=["count", "rows"])
def test_parallel_database_matches_serial(star_database, engine, sql):
    serial = star_database.execute(sql, options=ExecOptions(engine=engine))
    parallel = parallel_database(star_database, 4).execute(sql, options=ExecOptions(engine=engine))
    assert sorted(parallel.rows(), key=repr) == sorted(serial.rows(), key=repr)
    assert parallel.join_result.count() == serial.join_result.count()
    assert parallel.report.details.get("parallel"), "parallel path was not taken"


@pytest.mark.parametrize("batch_size", [1, 16], ids=["tuple-at-a-time", "vectorized"])
def test_parallel_freejoin_vectorization_parity(star_database, batch_size):
    options = FreeJoinOptions(batch_size=batch_size)
    serial = star_database.execute(ROWS_SQL, options=ExecOptions(freejoin_options=options))
    parallel = parallel_database(star_database, 4).execute(
        ROWS_SQL, options=ExecOptions(freejoin_options=options)
    )
    assert sorted(parallel.rows(), key=repr) == sorted(serial.rows(), key=repr)


def test_parallel_more_shards_than_entries(star_database):
    # Shard counts far beyond the cover's entry count must leave empty shards
    # empty rather than duplicating or dropping rows.
    parallel = parallel_database(star_database, 64).execute(COUNT_SQL)
    serial = star_database.execute(COUNT_SQL)
    assert parallel.scalar() == serial.scalar()


def test_factorized_output_falls_back_to_serial(star_database):
    options = FreeJoinOptions(output="factorized")
    serial = star_database.execute(ROWS_SQL, options=ExecOptions(freejoin_options=options))
    parallel = parallel_database(star_database, 4).execute(
        ROWS_SQL, options=ExecOptions(freejoin_options=options)
    )
    assert sorted(parallel.rows(), key=repr) == sorted(serial.rows(), key=repr)
    assert "parallel" not in parallel.report.details


def test_parallel_process_mode_matches_serial(star_database):
    """One end-to-end process-backend run (the expensive path, kept small)."""
    database = Database(
        star_database.catalog, parallelism=2, parallel_mode="process"
    )
    serial = star_database.execute(COUNT_SQL)
    parallel = database.execute(COUNT_SQL)
    assert parallel.scalar() == serial.scalar()
    detail = parallel.report.details["parallel"][0]
    assert detail["mode"] == "process"
    assert len(detail["per_shard"]) == 2


# --------------------------------------------------------------------------- #
# Caller-provided sinks on parallel runs: ``Engine.run(..., sink, context=)``
# --------------------------------------------------------------------------- #


def probed(sink_class):
    """``sink_class`` with every entry point recording who enters, and when.

    Entry points are the two producer calls plus ``absorb``.  The gate is
    re-entrant, so a default that chains to the next entry point on the same
    thread is one entry; a second thread finding the gate held is an overlap.
    """

    class Probed(sink_class):
        def __init__(self, variables):
            super().__init__(variables)
            self.gate = threading.RLock()
            self.entered_from = set()
            self.overlaps = 0

        def _enter(self, name, *args):
            if not self.gate.acquire(blocking=False):
                self.overlaps += 1
                self.gate.acquire()
            try:
                self.entered_from.add(threading.current_thread().name)
                return getattr(super(), name)(*args)
            finally:
                self.gate.release()

        def on_batch(self, *args):
            return self._enter("on_batch", *args)

        def on_factorized_batch(self, *args):
            return self._enter("on_factorized_batch", *args)

        def absorb(self, payload):
            return self._enter("absorb", payload)

    return Probed


class BareSink(OutputSink):
    """The least a caller can write: ``on_batch`` and ``result``, no lock."""

    def __init__(self, variables):
        super().__init__(variables)
        self.pairs = []
        #: Rows per batch received, in arrival order.
        self.sizes = []

    def on_batch(self, columns, multiplicities=None):
        rows = list(zip(*columns)) if columns else [()] * len(multiplicities)
        self.sizes.append(len(rows))
        self.pairs.extend(zip(rows, multiplicities or [1] * len(rows)))

    def result(self):
        rows, multiplicities = zip(*self.pairs) if self.pairs else ((), ())
        return JoinResult.from_rows(self.variables, list(rows), list(multiplicities))


class ArrivalSink(BareSink):
    """A caller sink that opts into on-arrival delivery and so owns a lock."""

    absorb_on_arrival = True

    def __init__(self, variables):
        super().__init__(variables)
        self.lock = threading.Lock()

    def on_batch(self, columns, multiplicities=None):
        with self.lock:
            super().on_batch(columns, multiplicities)


CALLER_SINKS = {
    "RowSink": RowSink,
    "CountSink": CountSink,
    "FactorizedSink": FactorizedSink,
    "bare": BareSink,
}
DIRECT_ENGINES = {
    "freejoin": FreeJoinEngine,
    "binary": BinaryJoinEngine,
    "generic": GenericJoinEngine,
}


@pytest.fixture(scope="module")
def fanout_query():
    """The 400-row fan-out join as ``(query, binary plan)``, full head."""
    database = Database()
    database.register_all(fanout_tables(400, keys=20).values())
    query = Planner(database.catalog).plan_sql(FANOUT_SQL).query
    return query, optimize_query(query)


@pytest.fixture(params=["kernels", "row-path"])
def kernel_setting(request, monkeypatch):
    if request.param == "row-path":
        monkeypatch.setenv("REPRO_KERNELS", "off")
    return request.param


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("engine", sorted(DIRECT_ENGINES))
@pytest.mark.parametrize("sink_name", sorted(CALLER_SINKS))
def test_caller_sink_on_a_parallel_run_matches_serial(
    fanout_query, kernel_setting, sink_name, engine, mode
):
    """Failed at the parent with ``AttributeError: ... no attribute 'stats'``."""
    query, plan = fanout_query
    variables = tuple(query.output_variables)
    run = DIRECT_ENGINES[engine]().run
    serial_sink = CALLER_SINKS[sink_name](variables)
    serial = run(query, plan, None, serial_sink).result
    sink = probed(CALLER_SINKS[sink_name])(variables)
    context = RunContext(workers=2, parallel_mode=mode)
    report = run(query, plan, None, sink, context=context)

    assert report.result.count() == serial.count() > 0
    if sink_name != "CountSink":
        assert sorted(report.result.iter_rows()) == sorted(serial.iter_rows())
    if sink_name == "RowSink":
        # Ordered absorb: task order, whatever order the tasks finished in —
        # the rows a parallel run without a caller sink returns (and, where
        # tasks cut the serial iteration itself, the serial run's).
        own = run(query, plan, context=context).result
        assert report.result.to_rows() == own.to_rows()
        if engine == "binary" or kernel_setting == "row-path":
            assert report.result.to_rows() == serial.to_rows()
    # Absorbed after the drain, on the submitting thread, one payload at a
    # time: never from a pool thread, never concurrently.
    assert sink.entered_from == {threading.current_thread().name}
    assert sink.overlaps == 0
    (detail,) = report.details["parallel"]
    assert detail["mode"] == resolve_mode(mode, 2, 0) and detail["tasks"] > 1
    assert "stream" not in detail  # a plain sink has no delivery telemetry
    assert sum(shard["outputs"] for shard in detail["per_shard"]) == serial.count()
    assert report.details["output"]["mode"] == sink.mode


@pytest.mark.parametrize("workers, mode", [(1, "thread"), (2, "thread"), (2, "process")])
@pytest.mark.parametrize("engine", sorted(DIRECT_ENGINES))
def test_row_paths_hand_a_batch_only_sink_bounded_column_batches(
    fanout_query, monkeypatch, engine, workers, mode
):
    """A sink with only ``on_batch`` and ``result`` is the whole contract.

    Kernels off, so every range runs on the paper's row path, which hands
    the sink column batches of at most ``expand_rows`` rows.  The expected
    bag is the serial kernel run's, which no row path produces.
    """
    query, plan = fanout_query
    run = DIRECT_ENGINES[engine]().run
    serial = run(query, plan).result
    monkeypatch.setenv("REPRO_KERNELS", "off")
    sink = BareSink(tuple(query.output_variables))
    context = RunContext(workers=workers, parallel_mode=mode)
    report = run(query, plan, None, sink, context=context)
    assert sorted(report.result.iter_rows()) == sorted(serial.iter_rows())
    assert report.result.count() == serial.count() > sink.expand_rows
    assert len(sink.sizes) > 1 and max(sink.sizes) <= sink.expand_rows


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_caller_sink_that_declares_on_arrival_is_entered_as_tasks_finish(fanout_query, mode):
    query, plan = fanout_query
    variables = tuple(query.output_variables)
    serial = FreeJoinEngine().run(query, plan, None, BareSink(variables)).result
    sink = probed(ArrivalSink)(variables)
    report = FreeJoinEngine().run(
        query, plan, None, sink, context=RunContext(workers=2, parallel_mode=mode)
    )
    assert sorted(report.result.iter_rows()) == sorted(serial.iter_rows())
    # On both backends the submitting thread absorbs each task's payload as
    # it arrives: never a pool thread, never two payloads at once.
    assert sink.entered_from == {threading.current_thread().name}
    assert sink.overlaps == 0
    (detail,) = report.details["parallel"]
    assert detail["mode"] == resolve_mode(mode, 2, 0) and detail["tasks"] > 1


# --------------------------------------------------------------------------- #
# execute_many
# --------------------------------------------------------------------------- #


def test_normalize_queries_accepts_all_shapes():
    class Named:
        name = "named"
        sql = "SELECT 1"

    normalized = normalize_queries(["SELECT 1", ("pair", "SELECT 2"), Named()])
    assert normalized == [
        ("q000", "SELECT 1"), ("pair", "SELECT 2"), ("named", "SELECT 1"),
    ]
    with pytest.raises(Exception):
        normalize_queries([("dup", "a"), ("dup", "b")])


@pytest.fixture(scope="module")
def workload_sessions(star_database):
    """One session per intra-query backend over the star catalog."""
    sessions = {
        "serial": Database(star_database.catalog),
        "thread": Database(star_database.catalog, parallelism=2, parallel_mode="thread"),
        "process": Database(star_database.catalog, parallelism=2, parallel_mode="process"),
    }
    yield sessions
    for session in sessions.values():
        session.close()


@pytest.fixture(scope="module")
def star_reference(star_database):
    """The naive executor's bag of rows per workload query."""
    return {
        sql: canonicalize(reference_rows(star_database.catalog, parse_sql(sql)), ordered=False)
        for sql in (COUNT_SQL, ROWS_SQL)
    }


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("kernels", ["on", "off"])
@pytest.mark.parametrize("engine", ENGINES)
def test_execute_many_matches_serial(
    monkeypatch, workload_sessions, star_reference, engine, kernels, backend
):
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    database = workload_sessions[backend]
    queries = [("count", COUNT_SQL), ("rows", ROWS_SQL)]
    outcome = database.execute_many(
        queries, max_workers=2, options=ExecOptions(engine=engine)
    )
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    for name, sql in queries:
        serial = database.execute(sql, options=ExecOptions(engine=engine))
        execution = outcome.query(name)
        assert execution.engine == engine
        rows = canonicalize(execution.rows, ordered=False)
        assert rows == canonicalize(serial.rows(), ordered=False) == star_reference[sql]
        assert execution.row_count == len(serial.rows())
        assert execution.columns == tuple(serial.table.column_names)


def test_execute_many_shares_the_session():
    """The workload runs on the caller's session, so what it planned stays:
    every query is a prepared-query hit afterwards, one entry per query."""
    workload = generate_job_workload(scale=0.1, seed=42)
    queries = [workload.query(name) for name in ("q01", "q03", "q05", "q06", "q08")]
    database = Database(workload.catalog)
    outcome = database.execute_many(queries, max_workers=2)
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    for query in queries:
        served = database.execute(query.sql, name=query.name)
        assert served.report.details["prepared"]["hit"] is True
        assert Counter(served.rows()) == Counter(outcome.query(query.name).rows)
    assert len(database._prepared) == len(queries)


def test_execute_many_loses_no_shared_session_update(star_database):
    """More threads than cores, switching as often as the interpreter can:
    every query's prepared entry and router count must survive."""
    queries = [
        (f"q{i}", f"SELECT COUNT(*) FROM fact, dim_one WHERE fact.k = dim_one.k AND fact.a < {i}")
        for i in range(24)
    ]
    reference = Database(star_database.catalog)
    expected = {name: reference.execute(sql).rows() for name, sql in queries}
    database = Database(star_database.catalog)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = database.execute_many(
            queries, max_workers=8, options=ExecOptions(engine="auto")
        )
    finally:
        sys.setswitchinterval(interval)
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    assert {e.name: e.rows for e in outcome.executions} == expected
    assert len(database._prepared) == len(queries)
    telemetry = database.router.telemetry()
    assert telemetry["routed"] == telemetry["observed"] == len(queries)


def test_execute_many_captures_errors_per_query(star_database):
    outcome = star_database.execute_many(
        [("good", COUNT_SQL), ("bad", "SELECT nothing FROM missing_table")],
        max_workers=2,
    )
    assert outcome.query("good").ok
    bad = outcome.query("bad")
    assert bad.status == "error"
    assert bad.error
    assert outcome.error_count == 1 and outcome.ok_count == 1


def test_execute_many_composes_with_intra_query_sharding(star_database):
    # Concurrent queries of one workload share the session's process pool.
    database = Database(
        star_database.catalog, parallelism=2, parallel_mode="process"
    )
    outcome = database.execute_many(
        [("count", COUNT_SQL), ("rows", ROWS_SQL)], max_workers=2
    )
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    for name, sql in (("count", COUNT_SQL), ("rows", ROWS_SQL)):
        expected = Counter(star_database.execute(sql).rows())
        assert Counter(outcome.query(name).rows) == expected
        assert outcome.query(name).parallel[0]["mode"] == "process"
    database.close()


def test_execute_many_collect_rows_false_skips_materialization(star_database):
    outcome = star_database.execute_many(
        [("rows", ROWS_SQL)], max_workers=1, collect_rows=False
    )
    execution = outcome.query("rows")
    assert execution.rows is None
    assert execution.row_count == len(star_database.execute(ROWS_SQL).rows())


def test_workload_outcome_serializes_to_json(star_database):
    outcome = star_database.execute_many(
        [("count", COUNT_SQL)], max_workers=1
    )
    payload = json.loads(outcome.to_json(include_rows=True))
    assert payload["query_count"] == 1
    assert payload["ok"] == 1
    record = payload["queries"][0]
    assert record["name"] == "count"
    assert record["status"] == "ok"
    assert record["rows"] == [list(row) for row in outcome.query("count").rows]
    # RunReport.as_dict is the other JSON surface used by benchmark reports.
    report = star_database.execute(COUNT_SQL).report
    assert json.dumps(report.as_dict())


def test_execute_many_empty_workload(star_database):
    outcome = star_database.execute_many([], max_workers=2)
    assert outcome.executions == []
    assert outcome.all_ok()
