"""The kernel plane's contract: vectorized == row-at-a-time, everywhere.

The batch kernels replaced the hot path of all three engines, so their
acceptance bar is *differential*: for any input — NULL-bearing columns,
empty relations, skewed keys, mixed value types — every engine must produce
exactly the same bag with kernels on (the default) as with
``REPRO_KERNELS=off`` (the row-at-a-time reference), across the
materializing, streaming and aggregate paths, serial and parallel.  The
hypothesis suites below drive that property over random instances; the
deterministic tests pin the edges (telemetry, fallbacks, deadline ticks at
chunk boundaries — the kernel-path deadline coverage promised by
``tests/test_serve.py``).
"""

from __future__ import annotations

import gc
import os
import time
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.engine.options import ExecOptions
from repro.engine.output import RowSink
from repro.engine.pipeline import PhysicalPipeline, PipelineState, RowPath, run_range
from repro.engine.session import Database
from repro.engine.streaming import collapse_grouped_batches
from repro.errors import DeadlineExceeded
from repro.parallel import scheduler
from repro.parallel.cancellation import DeadlineToken
from repro.query.atoms import Atom
from repro.storage.table import Table

ENGINES = ("freejoin", "binary", "generic")

COUNT_SQL = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k"
ROWS_SQL = "SELECT r.a, s.b FROM r, s WHERE r.k = s.k"
RESIDUAL_SQL = "SELECT r.a, s.b FROM r, s WHERE r.k = s.k AND r.a < s.b"
GROUPED_SQL = (
    "SELECT r.k, COUNT(*), SUM(s.b) FROM r, s WHERE r.k = s.k GROUP BY r.k"
)
TRIANGLE_SQL = (
    "SELECT COUNT(*) FROM r, s, t "
    "WHERE r.k = s.k AND s.b = t.b AND t.a = r.a"
)


#: Join-key pools by column family.  The storage layer keeps each column to
#: one comparable type family (statistics take min/max), so the fuzz draws a
#: family per column; NULLs ride along everywhere, and the int/float/string
#: split stresses each kernel encoding kind ("i", "f", "c").
KEY_FAMILIES = (
    st.one_of(st.none(), st.integers(min_value=-3, max_value=5)),
    st.one_of(st.none(), st.sampled_from([2.5, 4.0, -1, 0, 3])),
    st.one_of(st.none(), st.sampled_from(["x", "yy", "z"])),
)
NULLABLE_INTS = st.one_of(st.none(), st.integers(min_value=-3, max_value=5))
PLAIN_INTS = st.integers(min_value=-3, max_value=5)


def _tables(draw, *, nullable_payloads: bool = True):
    """Two relations with drawn sizes (0..12 rows); keys from any family."""
    payload_pool = NULLABLE_INTS if nullable_payloads else PLAIN_INTS
    tables = {}
    for name, payload in (("r", "a"), ("s", "b")):
        size = draw(st.integers(min_value=0, max_value=12))
        keys = draw(st.sampled_from(KEY_FAMILIES))
        tables[name] = Table.from_columns(name, {
            "k": draw(st.lists(keys, min_size=size, max_size=size)),
            payload: draw(st.lists(payload_pool, min_size=size, max_size=size)),
        })
    return tables


def _database(tables, **options) -> Database:
    database = Database(**options)
    for table in tables.values():
        database.register(table)
    return database


def _bag(outcome):
    return Counter(outcome.rows())


# --------------------------------------------------------------------------- #
# Differential fuzz: vectorized == row-at-a-time
# --------------------------------------------------------------------------- #


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_kernels_match_row_path_on_all_engines(data):
    """Counts, row bags and residual-filtered bags agree per engine."""
    database = _database(_tables(data.draw))
    for engine in ENGINES:
        options = ExecOptions(engine=engine)
        fast = {
            "count": database.execute(COUNT_SQL, options=options).scalar(),
            "rows": _bag(database.execute(ROWS_SQL, options=options)),
            "residual": _bag(database.execute(RESIDUAL_SQL, options=options)),
        }
        with kernels.kernels_enabled(False):
            assert database.execute(COUNT_SQL, options=options).scalar() == fast["count"]
            assert _bag(database.execute(ROWS_SQL, options=options)) == fast["rows"]
            assert _bag(database.execute(RESIDUAL_SQL, options=options)) == fast["residual"]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_kernels_match_row_path_streaming_and_grouped(data):
    """The streaming and partial-aggregate paths agree with the reference."""
    database = _database(_tables(data.draw, nullable_payloads=False))
    for engine in ENGINES:
        streamed = Counter(
            row
            for batch in database.execute_iter(
                ROWS_SQL, options=ExecOptions(engine=engine, batch_rows=3)
            )
            for row in batch
        )
        grouped = sorted(
            collapse_grouped_batches(
                list(database.execute_iter(GROUPED_SQL, options=ExecOptions(engine=engine))), [0]
            ),
            key=repr,
        )
        direct_grouped = sorted(
            database.execute(GROUPED_SQL, options=ExecOptions(engine=engine)).rows(), key=repr
        )
        assert grouped == direct_grouped
        with kernels.kernels_enabled(False):
            reference = Counter(
                row
                for batch in database.execute_iter(
                    ROWS_SQL, options=ExecOptions(engine=engine, batch_rows=3)
                )
                for row in batch
            )
            assert streamed == reference
            assert direct_grouped == sorted(
                database.execute(GROUPED_SQL, options=ExecOptions(engine=engine)).rows(), key=repr
            )


def _skewed_null_tables():
    """Deterministic adversarial instance: hot key, NULLs, an empty probe."""
    r_k = [0] * 40 + [None] * 5 + [10**9] * 10 + list(range(1, 8))
    s_k = [0] * 25 + [None] * 3 + [10**9] * 6 + list(range(4, 12))
    return {
        "r": Table.from_columns("r", {"k": r_k, "a": list(range(len(r_k)))}),
        "s": Table.from_columns("s", {"k": s_k, "b": list(range(len(s_k)))}),
    }


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_kernels_match_row_path(engine, backend):
    """Steal-scheduler kernel tasks reproduce the row-path bag exactly."""
    tables = _skewed_null_tables()
    serial = _database(tables)
    with kernels.kernels_enabled(False):
        expected_rows = _bag(serial.execute(ROWS_SQL, options=ExecOptions(engine=engine)))
        expected_count = serial.execute(COUNT_SQL, options=ExecOptions(engine=engine)).scalar()
    parallel = Database(serial.catalog, parallelism=3, parallel_mode=backend)
    report = parallel.execute(ROWS_SQL, options=ExecOptions(engine=engine))
    assert _bag(report) == expected_rows
    assert parallel.execute(
        COUNT_SQL, options=ExecOptions(engine=engine)
    ).scalar() == expected_count
    assert report.report.details["kernels"]["mode"] == "vectorized"


def test_empty_relations_all_engines():
    tables = {
        "r": Table.from_columns("r", {"k": [], "a": []}),
        "s": Table.from_columns("s", {"k": [1, 2], "b": [3, 4]}),
    }
    database = _database(tables)
    for engine in ENGINES:
        assert database.execute(COUNT_SQL, options=ExecOptions(engine=engine)).scalar() == 0
        assert database.execute(ROWS_SQL, options=ExecOptions(engine=engine)).rows() == []


def test_triangle_query_matches_row_path():
    database = Database()
    database.register(Table.from_columns("r", {
        "k": [1, 2, 3, 1], "a": [10, 20, 30, 10],
    }))
    database.register(Table.from_columns("s", {
        "k": [1, 2, 3, 9], "b": [5, 6, 7, 8],
    }))
    database.register(Table.from_columns("t", {
        "b": [5, 6, 7, 5], "a": [10, 20, 99, 10],
    }))
    for engine in ENGINES:
        fast = database.execute(TRIANGLE_SQL, options=ExecOptions(engine=engine)).scalar()
        with kernels.kernels_enabled(False):
            assert database.execute(
                TRIANGLE_SQL, options=ExecOptions(engine=engine)
            ).scalar() == fast


# --------------------------------------------------------------------------- #
# Telemetry: details["kernels"] on every engine's RunReport
# --------------------------------------------------------------------------- #


def test_every_engine_reports_kernel_telemetry():
    database = _database(_skewed_null_tables())
    for engine in ENGINES:
        detail = database.execute(
            ROWS_SQL, options=ExecOptions(engine=engine)
        ).report.details["kernels"]
        assert detail["mode"] == "vectorized"
        assert detail["batches"] >= 1
        assert detail["rows_in"] >= 1
        assert detail["rows_out"] >= 1
        assert detail["programs"]["misses"] >= 1  # programs compiled
        with kernels.kernels_enabled(False):
            fallback = database.execute(
                ROWS_SQL, options=ExecOptions(engine=engine)
            ).report.details["kernels"]
        assert fallback["mode"] == "fallback"
        assert fallback["fallbacks"] == ["disabled"]


@pytest.mark.parametrize("prior", [None, "off", "on"])
def test_kernels_enabled_restores_the_prior_setting(monkeypatch, prior):
    if prior is None:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNELS", prior)
    for enabled in (True, False):
        with kernels.kernels_enabled(enabled):
            assert kernels.enabled() is enabled
        assert os.environ.get("REPRO_KERNELS") == prior
    with pytest.raises(RuntimeError):
        with kernels.kernels_enabled(prior is not None):
            raise RuntimeError("boom")
    assert os.environ.get("REPRO_KERNELS") == prior


def test_index_cache_hits_on_repeat():
    database = _database(_skewed_null_tables())
    kernels.kernel_caches_clear()
    database.execute(COUNT_SQL)
    second = database.execute(COUNT_SQL).report.details["kernels"]
    assert second["indexes"]["misses"] == 0


SELF_JOIN_SQL = (
    "SELECT {} FROM e AS e1, e AS e2, e AS e3, e AS e4 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e4.src"
)


@pytest.mark.parametrize("select", ["COUNT(*)", "e1.src, e4.dst"], ids=["count", "rows"])
@pytest.mark.parametrize("engine", ENGINES)
def test_aliases_of_one_table_build_one_index_per_key_content(engine, select, monkeypatch):
    """The index cache keys on the key columns' content, not on the table:
    three probed aliases of one edge table share what they key on."""
    from repro.kernels import indexes

    database = Database()
    database.register(Table.from_columns("e", {
        "src": [(i * 7) % 50 for i in range(200)],
        "dst": [(i * 13 + 5) % 50 for i in range(200)],
    }))
    sql = SELF_JOIN_SQL.format(select)
    options = ExecOptions(engine=engine)
    with kernels.kernels_enabled(False):
        expected = Counter(database.execute(sql, options=options).rows())
    built = []
    build = indexes.build_probe_index

    def recording_build(atom, key_vars, kinds):
        built.append(tuple(
            (tuple(atom.table.column(atom.column_for(var)).values), kinds[var])
            for var in key_vars
        ))
        return build(atom, key_vars, kinds)

    monkeypatch.setattr(indexes, "build_probe_index", recording_build)
    kernels.kernel_caches_clear()
    outcome = database.execute(sql, options=options)
    assert Counter(outcome.rows()) == expected
    assert outcome.report.details["kernels"]["mode"] == "vectorized"
    assert built and len(built) == len(set(built)), built
    assert outcome.report.details["kernels"]["indexes"]["hits"] >= 1


NAN_JOIN_SQLS = (
    "SELECT a1.y, a2.y FROM a AS a1, a AS a2 WHERE a1.x = a2.x",
    "SELECT a.y, b.y FROM a, b WHERE a.x = b.x",
    "SELECT b1.y, b2.y FROM b AS b1, b AS b2 WHERE b1.x = b2.x",
)


@pytest.mark.parametrize("engine", ENGINES)
def test_equal_tables_with_their_own_nan_objects_share_no_code_index(engine):
    """Two tables with equal content but their own NaN objects: each NaN
    matches only itself, so a warm index over one table's codes must not
    serve the other (a's NaN would match b's, b's would lose its own)."""
    database = Database()
    for name in ("a", "b"):
        database.register(Table.from_columns(name, {"x": [float("nan"), 1.0], "y": [1, 2]}))
    options = ExecOptions(engine=engine)
    with kernels.kernels_enabled(False):
        expected = [
            Counter(database.execute(sql, options=options).rows()) for sql in NAN_JOIN_SQLS
        ]
    assert expected[1] == Counter({(2, 2): 1})
    kernels.kernel_caches_clear()
    for _ in range(2):  # the second pass runs on a warm index cache
        for sql, want in zip(NAN_JOIN_SQLS, expected):
            outcome = database.execute(sql, options=options)
            assert outcome.report.details["kernels"]["mode"] == "vectorized"
            assert Counter(outcome.rows()) == want, sql


# --------------------------------------------------------------------------- #
# Deadline ticks at batch boundaries (the kernel-path deadline contract)
# --------------------------------------------------------------------------- #


class _CountingToken(DeadlineToken):
    """A token that counts how many times the kernel loop consulted it."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        super().check()


def _chunky_catalog(rows: int = 20_000) -> Database:
    database = Database()
    database.register(Table.from_columns("r", {
        "k": [i % 97 for i in range(rows)], "a": list(range(rows)),
    }))
    database.register(Table.from_columns("s", {
        "k": [i % 97 for i in range(rows)], "b": list(range(rows)),
    }))
    return database


@pytest.mark.parametrize("engine", ENGINES)
def test_kernel_loop_ticks_deadline_every_chunk(engine):
    """Ticks >= driver_rows / CHUNK_ROWS: no chunk runs unchecked."""
    database = _chunky_catalog()
    token = _CountingToken()
    outcome = database.execute(COUNT_SQL, options=ExecOptions(engine=engine, deadline=token))
    detail = outcome.report.details["kernels"]
    assert detail["mode"] == "vectorized"
    assert detail["batches"] >= 20_000 // kernels.CHUNK_ROWS
    # At least one check per (chunk x step) boundary — the vectorized loop
    # must consult the token at least as often as it emits a batch.
    assert token.checks >= detail["batches"]


@pytest.mark.parametrize("engine", ENGINES)
def test_kernel_path_deadline_aborts_mid_execution(engine):
    """An expired budget stops the vectorized join between chunks."""
    database = _chunky_catalog()
    expired = DeadlineToken(at=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded):
        database.execute(COUNT_SQL, options=ExecOptions(engine=engine, deadline=expired))
    # The session still serves after the abort.
    assert database.execute(COUNT_SQL, options=ExecOptions(engine=engine)).scalar() > 0


def test_kernel_path_deadline_aborts_inside_one_fanout_chunk():
    """A single driver chunk that fans out to millions of rows must still
    honor the deadline: the emission tail is sliced (``EMIT_ROWS``) with a
    check between slices, so a skewed key cannot outrun ``timeout=``.

    The payloads are strings: integer columns stay packed int64 buffers from
    gather to result, and the whole 2.25M-row join then finishes in ~15 ms,
    inside the 50 ms budget.  Object gathers keep it at ~0.2 s warm."""
    database = Database()
    database.register(
        Table.from_columns("p", {"k": [1] * 1500, "x": [f"x{i}" for i in range(1500)]})
    )
    database.register(
        Table.from_columns("q", {"k": [1] * 1500, "y": [f"y{i}" for i in range(1500)]})
    )
    sql = "SELECT p.x, q.y FROM p, q WHERE p.k = q.k"  # 2.25M output rows
    started = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        database.execute(sql, options=ExecOptions(timeout=0.05))
    # Well under the full materialization, and far under a second.
    assert time.monotonic() - started < 1.0
    # The session still serves (and the kernels still get it right).
    assert database.execute(
        "SELECT COUNT(*) FROM p, q WHERE p.k = q.k"
    ).scalar() == 1500 * 1500


def _skewed_catalog() -> Database:
    """A join whose compiled step order would explode on a hot key.

    ``d`` drives 40 keys; ``fan1``/``fan2`` each match key 1 eighty times
    (static product: 80 * 80 = 6400 rows for that key alone) while ``sel``
    keeps only keys 1 and 2.  Probing ``sel`` first — what the greedy
    smallest-frontier schedule does, because its actual counts are tiny —
    keeps every intermediate at or below the output size.
    """
    database = Database()
    database.register(
        Table.from_columns("d", {"k": list(range(1, 41))})
    )
    hot = [1] * 80 + [2] * 4
    database.register(
        Table.from_columns(
            "fan1", {"k": list(hot), "a": list(range(len(hot)))}
        )
    )
    database.register(
        Table.from_columns(
            "fan2", {"k": list(hot), "b": list(range(len(hot)))}
        )
    )
    database.register(Table.from_columns("sel", {"k": [1, 2], "c": [10, 20]}))
    return database


SKEWED_SQL = (
    "SELECT fan1.a, fan2.b, sel.c FROM d, fan1, fan2, sel "
    "WHERE d.k = fan1.k AND d.k = fan2.k AND d.k = sel.k"
)


@pytest.mark.parametrize("engine", ENGINES)
def test_adaptive_step_order_tames_skewed_intermediates(engine, monkeypatch):
    """Selective probes run before explosive ones, priced by actual counts.

    The guard is pinned just above the true output size: any schedule that
    expands both fan-out atoms before the selective probe would trip it and
    fall back, so staying ``vectorized`` proves the greedy order kept the
    intermediate frontiers near the output.
    """
    from repro.kernels import executor as kernel_executor

    database = _skewed_catalog()
    with kernels.kernels_enabled(False):
        expected = Counter(database.execute(SKEWED_SQL, options=ExecOptions(engine=engine)).rows())
    monkeypatch.setattr(kernel_executor, "FRONTIER_GUARD_ROWS", 10_000)
    outcome = database.execute(SKEWED_SQL, options=ExecOptions(engine=engine))
    assert outcome.report.details["kernels"]["mode"] == "vectorized"
    assert Counter(outcome.rows()) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_frontier_guard_falls_back_to_row_path(engine, monkeypatch):
    """When even the cheapest step would blow the frontier cap, the engine
    re-runs the pipeline row-at-a-time — same bag, reason in telemetry."""
    from repro.kernels import executor as kernel_executor

    database = _skewed_catalog()
    with kernels.kernels_enabled(False):
        expected = Counter(database.execute(SKEWED_SQL, options=ExecOptions(engine=engine)).rows())
    # Below the output size: no step order can stay under the cap.
    monkeypatch.setattr(kernel_executor, "FRONTIER_GUARD_ROWS", 8)
    outcome = database.execute(SKEWED_SQL, options=ExecOptions(engine=engine))
    kernel_record = outcome.report.details["kernels"]
    # Generic Join runs one pipeline, and it explodes; Free Join and binary
    # explode two of their three and finish the third on the kernels.
    assert kernel_record["mode"] == ("fallback" if engine == "generic" else "mixed")
    assert "frontier-explosion" in kernel_record["fallbacks"]
    assert Counter(outcome.rows()) == expected


@pytest.mark.parametrize(
    "session", [{}, {"parallelism": 2, "parallel_mode": "thread"}], ids=["serial", "thread"]
)
@pytest.mark.parametrize("engine", ["freejoin", "binary"])
def test_finished_query_pins_no_intermediate(engine, session, monkeypatch):
    """Once its outcome is dropped, nothing keeps a query's tables alive —
    no kernel program, and no idle steal worker of a thread session."""
    from repro.engine import pipeline

    built = []
    result_table = pipeline.result_table

    def recording_result_table(*args, **kwargs):
        table = result_table(*args, **kwargs)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(pipeline, "result_table", recording_result_table)
    database = Database(_skewed_catalog().catalog, **session)
    try:
        outcome = database.execute(SKEWED_SQL, options=ExecOptions(engine=engine))
        assert outcome.report.details["num_pipelines"] == 3
        assert len(built) == 2
        del outcome
        gc.collect()
        assert [ref() for ref in built] == [None, None]
    finally:
        database.close()


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("engine", ENGINES)
def test_frontier_guard_falls_back_on_parallel_session(engine, backend, monkeypatch):
    """Every policy on every backend takes the one fallback block per task:
    same bag as the row path, reason in telemetry, pools still warm."""
    from repro.kernels import executor as kernel_executor

    options = ExecOptions(engine=engine)
    database = _skewed_catalog()
    with kernels.kernels_enabled(False):
        expected = Counter(database.execute(SKEWED_SQL, options=options).rows())
    # Process workers fork with their pool: start without pools so the
    # workers of this run inherit the patched guard.
    scheduler.shutdown_pools()
    monkeypatch.setattr(kernel_executor, "FRONTIER_GUARD_ROWS", 8)
    parallel = Database(database.catalog, parallelism=2, parallel_mode=backend)
    outcome = parallel.execute(SKEWED_SQL, options=options)
    assert Counter(outcome.rows()) == expected
    kernel_record = outcome.report.details["kernels"]
    assert "frontier-explosion" in kernel_record["fallbacks"]
    assert kernel_record["mode"] in ("fallback", "mixed")
    # A fallback is not a failure: the pool that served the query survives
    # (a thread session runs its tasks inline and starts none).
    assert (2 in scheduler.active_pools()) == (backend == "process")
    assert Counter(parallel.execute(SKEWED_SQL, options=options).rows()) == expected
    scheduler.shutdown_pools()


class _RecordingSink(RowSink):
    """A row sink that logs every delivery into a shared event list."""

    def __init__(self, variables, log):
        super().__init__(variables)
        self.log = log

    def on_batch(self, columns, multiplicities=None):
        self.log.append("sink")
        super().on_batch(columns, multiplicities)


class _RecordingRowPath(RowPath):
    """A stub row path that logs when it is built and when it starts."""

    def __init__(self, log):
        self.log = log

    def build(self, atoms, interrupt=None):
        self.log.append("build")
        return list(atoms)

    def run(self, state, sink, start, stop, sub, interrupt, factorize=False):
        self.log.append("row-path")
        sink.on_batch([[0], [0]])


def test_run_range_hands_the_row_path_an_untouched_sink(monkeypatch):
    """The guard invariant the single fallback block relies on: a frontier
    explosion aborts before anything reached the sink, so the row path
    re-runs the range from scratch without duplicating output."""
    from repro.kernels import executor as kernel_executor

    r = Table.from_columns("r", {"k": [1] * 10, "a": list(range(10))})
    s = Table.from_columns("s", {"k": [1] * 10, "b": list(range(10))})
    log = []
    pipeline = PhysicalPipeline(
        [Atom("r", r, ["k", "a"]), Atom("s", s, ["k", "b"])],
        ("a", "b"),
        _RecordingRowPath(log),
        compress=False,
    )

    def run():
        del log[:]
        sink = _RecordingSink(("a", "b"), log)
        state = PipelineState(pipeline.row_path, pipeline.atoms)
        stats = kernels.new_stats()
        _counters, reason = run_range(pipeline, state, sink, None, None, stats)
        return sink.result().to_rows(), reason, stats

    # Guard above the 100-row output: the kernels serve the range alone.
    rows, reason, stats = run()
    assert reason is None and len(rows) == 100
    assert set(log) == {"sink"}

    # Guard below it: explosion, then build + row path, and only then output.
    monkeypatch.setattr(kernel_executor, "FRONTIER_GUARD_ROWS", 8)
    rows, reason, stats = run()
    assert reason == "frontier-explosion"
    assert log == ["build", "row-path", "sink"]
    assert rows == [(0, 0)]
    assert stats["rows_out"] == 0


def test_kernel_path_deadline_aborts_on_parallel_session():
    database = _chunky_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")
    expired = DeadlineToken(at=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded):
        parallel.execute(COUNT_SQL, options=ExecOptions(deadline=expired))
    assert parallel.execute(COUNT_SQL).scalar() > 0
    scheduler.shutdown_pools()


# --------------------------------------------------------------------------- #
# Batch residual predicates: compiled closures == evaluate()
# --------------------------------------------------------------------------- #


NULLABLE_SQL_PREDICATES = [
    "r.a < s.b",
    "r.a <> s.b",
    "r.a BETWEEN 0 AND 3",
    "r.a IS NULL",
    "r.a IS NOT NULL",
    "r.a IN (1, 2, 'x')",
    "r.a NOT IN (1, 2)",
]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_batch_residual_predicates_match_reference(data):
    """Every residual shape filters identically through the compiled path."""
    database = _database(_tables(data.draw))
    for predicate in NULLABLE_SQL_PREDICATES:
        sql = f"SELECT r.a, s.b FROM r, s WHERE r.k = s.k AND {predicate}"
        fast = _bag(database.execute(sql))
        with kernels.kernels_enabled(False):
            assert _bag(database.execute(sql)) == fast
