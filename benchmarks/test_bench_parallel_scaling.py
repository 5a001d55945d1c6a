"""Parallel scaling: intra-query scheduling and inter-query throughput.

This module gives every PR a scaling axis to benchmark (the paper's engine is
multi-core; see ROADMAP).  Three series:

* intra-query: one explosive JOB-like query (``q13``, the paper's Q13a
  analogue) at shard counts 1/2/4.  The benchmark pins
  ``parallel_mode="thread"`` so the parallel code path (partition, per-task
  runs, merge) is actually exercised at benchmark scale — ``auto`` would
  collapse sub-threshold inputs to one shard — which means the series
  measures *scheduling overhead*: a thread session runs its tasks inline,
  one after another; real wall-clock speedup needs process mode, inputs
  past the fork threshold, and multiple cores;
* scheduler overhead: a Zipf(1.2)-skewed synthetic join split into 16
  inline tasks (a 4-worker thread session) vs the serial executor.  Run one
  after another on the calling thread they cannot beat serial wall-clock,
  so their *overhead* — partitioning, per-task kernel set-up, merge — is
  gated at <= 1.5x the serial wall time;
* inter-query: the shared JOB query subset pushed through
  ``Database.execute_many`` with 1 and 4 workers.

Each benchmark asserts parallel/serial parity on the results it produces, so
a scaling regression can never silently hide a correctness one.
"""

import os
import random
import time

import pytest

from benchmarks.conftest import BENCH_SMOKE, JOB_QUERIES, JOB_SEED, run_queries
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.storage.table import Table
from repro.workloads.synthetic import zipf_sample

#: Shard counts swept by the intra-query series.
SHARD_COUNTS = (1, 2, 4)
#: The Q13a analogue: several large satellites joined on one skewed key.
INTRA_QUERY = "q13"
#: The task-overhead gate: 16 inline tasks' wall time / serial wall time.
INLINE_OVERHEAD_GATE = 1.5
#: Zipf exponent of the skewed synthetic join's key column.
ZIPF_SKEW = 1.2
#: Rows per relation for the skewed synthetic join.  Sized so the join has
#: enough work per task to amortize dispatch on the vectorized kernel path
#: (the batch kernels cut per-row cost ~5x, so the pre-kernel row counts
#: left the 4-worker run dominated by fixed scheduling overhead).
ZIPF_ROWS = 24_000 if BENCH_SMOKE else 48_000


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_intra_query_sharding(benchmark, job_workload, shards):
    """Free Join run time on the explosive query as shards increase."""
    database = Database(
        job_workload.catalog, parallelism=shards, parallel_mode="thread"
    )
    serial = Database(job_workload.catalog)
    expected = serial.execute(
        job_workload.query(INTRA_QUERY).sql, name=INTRA_QUERY
    ).rows()

    def run():
        outcome = database.execute(
            job_workload.query(INTRA_QUERY).sql, name=INTRA_QUERY
        )
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sorted(outcome.rows(), key=repr) == sorted(expected, key=repr)
    if shards > 1:
        detail = outcome.report.details["parallel"][0]
        assert detail["shards"] == shards  # really sharded, not collapsed


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("engine", ("binary", "generic"))
def test_intra_query_sharding_baselines(benchmark, job_workload, engine, shards):
    """The baseline engines shard too; same query, same parity check."""
    database = Database(
        job_workload.catalog, parallelism=shards, parallel_mode="thread"
    )
    serial = Database(job_workload.catalog)
    expected = serial.execute(
        job_workload.query(INTRA_QUERY).sql, options=ExecOptions(engine=engine), name=INTRA_QUERY
    ).rows()

    outcome = benchmark.pedantic(
        lambda: database.execute(
            job_workload.query(INTRA_QUERY).sql,
            options=ExecOptions(engine=engine),
            name=INTRA_QUERY,
        ),
        rounds=1, iterations=1,
    )
    assert sorted(outcome.rows(), key=repr) == sorted(expected, key=repr)


@pytest.fixture(scope="module")
def zipf_join_database():
    """A 3-relation join whose iterated relation has Zipf(1.2) keys.

    ``S``/``T`` keys are near-unique, so the output stays moderate while the
    per-worker build cost (trie forcing over all three relations) dominates —
    the regime the shared-memory/shared-build scheduler is built for.
    """
    rng = random.Random(JOB_SEED)
    domain = ZIPF_ROWS + ZIPF_ROWS // 4
    database = Database()
    database.register(Table.from_columns("R", {
        "k": [zipf_sample(rng, domain, ZIPF_SKEW) for _ in range(ZIPF_ROWS)],
        "a": list(range(ZIPF_ROWS)),
    }))
    for name, payload in (("S", "b"), ("T", "c")):
        database.register(Table.from_columns(name, {
            "k": [rng.randrange(domain) for _ in range(ZIPF_ROWS)],
            payload: list(range(ZIPF_ROWS)),
        }))
    return database


ZIPF_SQL = "SELECT COUNT(*) FROM R, S, T WHERE R.k = S.k AND R.k = T.k"


def test_zipf_inline_task_overhead_bounded(benchmark, zipf_join_database):
    """Task-overhead gate: 16 inline tasks' wall time <= 1.5x serial.

    A 4-worker thread session splits the join into 16 tasks and runs them
    inline, one after another, on the calling thread.  No worker and no
    pool takes part: the process pool's dispatch and merge cost is gated
    only by the multi-core gate below.  The join work itself cannot speed
    up, so everything above 1.0x is task cost — partitioning, per-task
    kernel set-up, merge — and the gate pins it.  Exact result parity vs
    serial is asserted here and, in depth, by the skew battery
    (``tests/test_parallel_skew.py``).
    """
    database = zipf_join_database
    expected = database.execute(ZIPF_SQL).scalar()  # also warms statistics

    def serial_run():
        assert database.execute(ZIPF_SQL).scalar() == expected

    inline = Database(database.catalog, parallelism=4, parallel_mode="thread")

    def inline_run():
        outcome = inline.execute(ZIPF_SQL)
        assert outcome.scalar() == expected
        return outcome

    def best_of(fn, rounds=2):
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    serial_seconds = best_of(serial_run)
    inline_run()  # warm the index cache outside the timing
    outcome = benchmark.pedantic(inline_run, rounds=2, iterations=1)
    inline_seconds = min(benchmark.stats.stats.data)

    detail = outcome.report.details["parallel"][0]
    assert detail["shards"] == 4
    ratio = inline_seconds / serial_seconds
    print(
        f"\nzipf({ZIPF_SKEW}) x {ZIPF_ROWS} rows, {detail['tasks']} inline tasks: "
        f"serial {serial_seconds * 1000:.1f} ms, inline {inline_seconds * 1000:.1f} ms, "
        f"ratio {ratio:.2f} (gate <= {INLINE_OVERHEAD_GATE}), "
        f"tasks {detail['tasks']}, steals {detail['steals']}"
    )
    assert ratio <= INLINE_OVERHEAD_GATE, (
        f"inline task overhead must stay bounded on skewed input; "
        f"got ratio {ratio:.2f} (inline {inline_seconds:.3f} s vs "
        f"serial {serial_seconds:.3f} s)"
    )


@pytest.mark.parametrize("workers", (1, 4))
def test_inter_query_workload_throughput(benchmark, job_workload, workers):
    """Wall-clock for the JOB subset through ``execute_many``."""
    database = Database(job_workload.catalog)
    queries = [job_workload.query(name) for name in JOB_QUERIES]

    outcome = benchmark.pedantic(
        lambda: database.execute_many(queries, max_workers=workers),
        rounds=1, iterations=1,
    )
    assert outcome.all_ok()
    assert len(outcome.executions) == len(JOB_QUERIES)
    # Parity with the serial session, query by query.
    for query in queries:
        serial = database.execute(query.sql, name=query.name)
        assert outcome.query(query.name).rows == serial.rows()


def test_workload_serial_reference(benchmark, job_workload, job_database):
    """The serial loop the throughput series is compared against."""
    total = benchmark.pedantic(
        run_queries,
        args=(job_database, job_workload, "freejoin", JOB_QUERIES),
        rounds=1, iterations=1,
    )
    assert total >= 0.0


# --------------------------------------------------------------------------- #
# Multi-core wall-clock gate (CI's dedicated runner job)
# --------------------------------------------------------------------------- #

#: Opt-in: true wall-clock speedup needs real cores, which the tier-1 jobs
#: do not guarantee.  CI's multi-core job sets this; see ci.yml.
MULTICORE = os.environ.get("REPRO_BENCH_MULTICORE") == "1"
#: Process-steal wall time at MULTICORE_WORKERS must be at most this
#: fraction of the serial wall time — an absolute speedup, not a ratio
#: between two parallel configurations.
MULTICORE_WALL_GATE = 0.9
MULTICORE_WORKERS = 4
#: Rows per relation; sized past the fork threshold so ``process`` is the
#: honest backend even under ``auto``, and large enough that the serial
#: wall on the vectorized kernel path (~5x faster per row than the old
#: row-at-a-time path) still dwarfs the fixed per-query dispatch/IPC cost.
MULTICORE_ROWS = 96_000


@pytest.mark.skipif(
    not MULTICORE, reason="wall-clock gate only runs with REPRO_BENCH_MULTICORE=1"
)
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="wall-clock speedup needs >= 2 cores"
)
def test_multicore_wall_clock_speedup(benchmark):
    """Process-backend steal scheduling must beat serial wall-clock.

    The overhead gate above bounds the inline tasks' cost; this one pins
    the absolute claim — with real cores, 4 process workers finish the
    skewed join faster than one serial executor — and is the only gate on
    the process pool's dispatch, attach and merge cost: a regression in
    fork cost, shm attach, or task decomposition cannot hide behind a
    still-bounded overhead ratio.
    """
    rng = random.Random(JOB_SEED)
    domain = MULTICORE_ROWS + MULTICORE_ROWS // 4
    database = Database()
    database.register(Table.from_columns("R", {
        "k": [zipf_sample(rng, domain, ZIPF_SKEW) for _ in range(MULTICORE_ROWS)],
        "a": list(range(MULTICORE_ROWS)),
    }))
    for name, payload in (("S", "b"), ("T", "c")):
        database.register(Table.from_columns(name, {
            "k": [rng.randrange(domain) for _ in range(MULTICORE_ROWS)],
            payload: list(range(MULTICORE_ROWS)),
        }))
    expected = database.execute(ZIPF_SQL).scalar()  # also warms statistics

    def serial_run():
        assert database.execute(ZIPF_SQL).scalar() == expected

    parallel = Database(
        database.catalog, parallelism=MULTICORE_WORKERS, parallel_mode="process"
    )

    def parallel_run():
        outcome = parallel.execute(ZIPF_SQL)
        assert outcome.scalar() == expected
        return outcome

    def best_of(fn, rounds=2):
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    serial_seconds = best_of(serial_run)
    parallel_run()  # warm the pool (fork + first attach) outside the timing
    outcome = benchmark.pedantic(parallel_run, rounds=2, iterations=1)
    parallel_seconds = min(benchmark.stats.stats.data)

    detail = outcome.report.details["parallel"][0]
    assert detail["mode"] == "process"
    ratio = parallel_seconds / serial_seconds
    print(
        f"\nmulti-core wall clock ({os.cpu_count()} cores, "
        f"{MULTICORE_WORKERS} process workers, zipf({ZIPF_SKEW}) x "
        f"{MULTICORE_ROWS} rows): serial {serial_seconds * 1000:.1f} ms, "
        f"parallel {parallel_seconds * 1000:.1f} ms, ratio {ratio:.2f} "
        f"(gate <= {MULTICORE_WALL_GATE})"
    )
    assert ratio <= MULTICORE_WALL_GATE, (
        f"4 process workers must beat serial wall-clock on multiple cores; "
        f"got {ratio:.2f} (parallel {parallel_seconds:.3f} s vs serial "
        f"{serial_seconds:.3f} s)"
    )
