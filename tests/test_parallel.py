"""Parallel/serial parity for the parallel execution subsystem.

The contract under test (see :mod:`repro.parallel`):

* sharded execution returns the same bag of rows as the serial path for all
  three engines, for ``rows`` and ``count`` sinks, with vectorization on and
  off — and with static cover selection the row *order* is byte-identical;
* ``Database.execute_many`` returns per-query results identical to serial
  :meth:`Database.execute` calls, captures errors per query, and enforces
  timeouts in process mode.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.binaryjoin.executor import BinaryJoinEngine
from repro.core.colt import build_tries
from repro.core.engine import FreeJoinEngine, FreeJoinOptions
from repro.engine.options import ExecOptions
from repro.engine.output import CountSink, FactorizedSink, JoinResult, OutputSink, RowSink
from repro.engine.pipeline import RunContext
from repro.engine.session import Database
from repro.genericjoin.executor import GenericJoinEngine
from repro.optimizer.join_order import optimize_query
from repro.parallel.sharding import ShardView, entry_count, shard_bounds, shard_offsets
from repro.parallel.workload import normalize_queries
from repro.query.builder import QueryBuilder
from repro.query.planner import Planner
from repro.storage.table import Table
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
# Sharding primitives
# --------------------------------------------------------------------------- #


def test_shard_bounds_partition_the_range():
    for total in (0, 1, 5, 17, 100):
        for count in (1, 2, 3, 7):
            slices = shard_offsets(total, count)
            covered = [i for start, stop in slices for i in range(start, stop)]
            assert covered == list(range(total))


def test_shard_bounds_rejects_bad_indices():
    with pytest.raises(ValueError):
        shard_bounds(10, 3, 3)
    with pytest.raises(ValueError):
        shard_bounds(10, 0, 0)


def test_shard_view_slices_iteration_and_delegates_probes(tiny_tables):
    builder = QueryBuilder("pair")
    builder.add_atom("r", tiny_tables["r"], ["x", "y"])
    query = builder.build()
    atom = query.atoms[0]
    tries = build_tries({"r": atom}, {"r": [("x",), ("y",)]})
    base = tries["r"]

    total = entry_count(base)
    seen = []
    for index in range(3):
        view = ShardView(base, index, 3)
        assert view.key_count() == base.key_count()  # full count for cover choice
        seen.extend(key for key, _child in view.iter_entries())
    assert seen == [key for key, _child in base.iter_entries()]
    # Probing a view behaves exactly like probing the base trie.
    view = ShardView(base, 0, 3)
    assert total > 0
    for key, _child in base.iter_entries():
        assert view.get(key) is base.get(key)


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

    Entry points are the four producer calls plus ``absorb``.  The gate is
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

        def on_row(self, *args):
            return self._enter("on_row", *args)

        def on_rows(self, *args):
            return self._enter("on_rows", *args)

        def on_batch(self, *args):
            return self._enter("on_batch", *args)

        def on_factorized_batch(self, *args):
            return self._enter("on_factorized_batch", *args)

        def absorb(self, payload):
            return self._enter("absorb", payload)

    return Probed


class BareSink(OutputSink):
    """The least a caller can write: ``on_row`` and ``result``, no lock."""

    def __init__(self, variables):
        super().__init__(variables)
        self.pairs = []

    def on_row(self, row, multiplicity=1):
        self.pairs.append((row, multiplicity))

    def result(self):
        rows, multiplicities = zip(*self.pairs) if self.pairs else ((), ())
        return JoinResult.from_rows(self.variables, list(rows), list(multiplicities))


class ArrivalSink(BareSink):
    """A caller sink that opts into on-arrival delivery and so owns a lock."""

    absorb_on_arrival = True

    def __init__(self, variables):
        super().__init__(variables)
        self.lock = threading.Lock()

    def on_row(self, row, multiplicity=1):
        with self.lock:
            super().on_row(row, multiplicity)


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
    assert detail["mode"] == mode and detail["tasks"] > 1
    assert "stream" not in detail  # a plain sink has no delivery telemetry
    assert sum(shard["outputs"] for shard in detail["per_shard"]) == serial.count()
    assert report.details["output"]["mode"] == sink.mode


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
    if mode == "thread":
        # Delivered by the workers that ran the tasks (its own lock guards it).
        assert all(name.startswith("repro-steal-") for name in sink.entered_from)
    else:
        # The process backend's parent absorbs each result message it receives.
        assert sink.entered_from == {threading.current_thread().name}


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


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", ["thread", "process"])
def test_execute_many_matches_serial(star_database, engine, mode):
    queries = [("count", COUNT_SQL), ("rows", ROWS_SQL)]
    outcome = star_database.execute_many(
        queries, max_workers=2, options=ExecOptions(engine=engine), mode=mode
    )
    assert outcome.all_ok()
    assert outcome.mode == mode
    for name, sql in queries:
        serial = star_database.execute(sql, options=ExecOptions(engine=engine))
        execution = outcome.query(name)
        assert execution.engine == engine
        assert execution.rows == serial.rows()
        assert execution.row_count == len(serial.rows())
        assert execution.columns == tuple(serial.table.column_names)


def test_execute_many_captures_errors_per_query(star_database):
    outcome = star_database.execute_many(
        [("good", COUNT_SQL), ("bad", "SELECT nothing FROM missing_table")],
        max_workers=2,
        mode="thread",
    )
    assert outcome.query("good").ok
    bad = outcome.query("bad")
    assert bad.status == "error"
    assert bad.error
    assert outcome.error_count == 1 and outcome.ok_count == 1


def test_execute_many_timeout_terminates_process_workers():
    # A deliberately explosive join: every row shares one key, so the
    # result is 1500^2 = 2.25M rows — seconds of CPython work, far past the
    # 50 ms budget.  (Both columns are selected: a COUNT(*) reads neither,
    # so its probe folds into a multiplicity and finishes in a millisecond.)
    # The worker must be terminated and reported as timeout.
    big = Table.from_columns("big", {"k": [0] * 1500, "v": list(range(1500))})
    other = Table.from_columns("other", {"k": [0] * 1500, "w": list(range(1500))})
    database = Database()
    database.register(big)
    database.register(other)
    outcome = database.execute_many(
        [("boom", "SELECT big.v, other.w FROM big, other WHERE big.k = other.k"),
         ("fine", "SELECT COUNT(*) FROM big WHERE big.v < 10")],
        max_workers=2,
        options=ExecOptions(timeout=0.05),
        mode="process",
    )
    boom = outcome.query("boom")
    assert boom.status == "timeout"
    assert boom.seconds >= 0.05
    # Scheduler-built records (timeout/crash) must still name the engine.
    assert boom.engine == "freejoin"
    assert outcome.query("fine").ok
    assert outcome.timeout_count == 1


def test_execute_many_composes_with_intra_query_sharding(star_database):
    # Regression: query workers must not be daemonic, or they cannot fork
    # intra-query shard processes and every query errors with "daemonic
    # processes are not allowed to have children".
    database = Database(
        star_database.catalog, parallelism=2, parallel_mode="process"
    )
    outcome = database.execute_many(
        [("count", COUNT_SQL)], max_workers=2, mode="process"
    )
    assert outcome.all_ok(), [e.error for e in outcome.executions]
    serial = star_database.execute(COUNT_SQL)
    assert outcome.query("count").rows == serial.rows()


def test_execute_many_collect_rows_false_skips_materialization(star_database):
    outcome = star_database.execute_many(
        [("rows", ROWS_SQL)], max_workers=1, collect_rows=False, mode="thread"
    )
    execution = outcome.query("rows")
    assert execution.rows is None
    assert execution.row_count == len(star_database.execute(ROWS_SQL).rows())


def test_workload_outcome_serializes_to_json(star_database):
    outcome = star_database.execute_many(
        [("count", COUNT_SQL)], max_workers=1, mode="thread"
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
