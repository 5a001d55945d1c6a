"""Aggregation-plane benchmarks: folding in the sink, streamed and parallel.

The acceptance gates of the partial-aggregate plane, on the shared
Zipf-skewed fan-out workload (:func:`repro.workloads.synthetic.fanout_tables`
with ``skew > 0`` — the hot-key shape the paper's grouped workloads take):

* **aggregating never materializes the join**: grouped ``execute()`` folds
  the factorized join output in its sink, so it must take at most
  :data:`FOLD_VS_ROWS_GATE` times ``execute()`` of the *same join* with a
  row-returning SELECT list — the one thing that still materializes.  (The
  gate used to compare the stream's first batch against the materialized
  grouped aggregate; ``execute()`` no longer materializes, so that
  denominator is gone.)
* **streaming costs delivery, nothing else**: draining the grouped
  ``execute_iter`` stream runs the same fold plus the delta queue, so it
  must stay within :data:`STREAM_VS_EXECUTE_GATE` of grouped ``execute()``;
  the first batch arrives no later than the drain ends, so this also bounds
  time-to-first-group.
* **parallel grouped aggregation**: draining the grouped stream on a
  4-process-worker session must take at most :data:`PARALLEL_AGG_GATE`
  times the serial grouped ``execute()``.  Workers fold their tasks' output
  into partials, so only (tiny) per-group states cross the process boundary
  — this gate pins that win in wall-clock terms and therefore only runs on
  the multi-core CI job (``REPRO_BENCH_MULTICORE=1``).
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import pytest

from benchmarks.conftest import BENCH_SMOKE, JOB_SEED
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.engine.streaming import collapse_grouped_batches
from repro.workloads.synthetic import FANOUT_GROUP_SQL, FANOUT_SQL, fanout_tables

#: Grouped ``execute()`` vs ``execute()`` of the same join returning rows.
FOLD_VS_ROWS_GATE = 0.6
#: Drained grouped ``execute_iter`` vs grouped ``execute()``.
STREAM_VS_EXECUTE_GATE = 1.25
#: Parallel grouped-aggregate drain (4 process workers) vs serial grouped
#: ``execute()``.
PARALLEL_AGG_GATE = 0.8
PARALLEL_WORKERS = 4
#: Zipf skew of the join keys; concentrates the fan-out on hot keys, the
#: imbalance the steal scheduler (and worker-side folding) must absorb.
ZIPF_SKEW = 1.2
#: Input rows per relation; the skewed fan-out join outputs far more.
FANOUT_ROWS = 2_000 if BENCH_SMOKE else 4_000
ROUNDS = 3

MULTICORE = os.environ.get("REPRO_BENCH_MULTICORE") == "1"


def _aggregation_database(**configure) -> Database:
    # The shared Zipf-skewed fan-out builder, so every gate here times one join.
    database = Database(**configure)
    database.register_all(
        fanout_tables(FANOUT_ROWS, seed=JOB_SEED, skew=ZIPF_SKEW).values()
    )
    return database


def _median(callable_, rounds: int = ROUNDS):
    seconds = []
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def test_grouped_aggregate_beats_materializing_the_join(benchmark):
    """Folding in the sink: grouped execute() <= 0.6x the row-returning join."""
    database = _aggregation_database()
    expected_rows = database.execute(FANOUT_SQL).join_result.count()
    grouped = database.execute(FANOUT_GROUP_SQL)
    assert grouped.join_result.count() == expected_rows  # same join, folded

    def materialized():
        assert len(database.execute(FANOUT_SQL).rows()) == expected_rows

    rows_median, _ = _median(materialized)

    def folded():
        assert database.execute(FANOUT_GROUP_SQL).rows() == grouped.rows()

    benchmark.pedantic(folded, rounds=ROUNDS, iterations=1)
    folded_median = statistics.median(benchmark.stats.stats.data)
    ratio = folded_median / rows_median
    print(
        f"\ngrouped aggregate ({len(grouped.rows())} groups over {expected_rows} "
        f"join rows, zipf({ZIPF_SKEW})): rows {rows_median * 1000:.1f} ms, "
        f"grouped {folded_median * 1000:.1f} ms, ratio {ratio:.3f} "
        f"(gate <= {FOLD_VS_ROWS_GATE})"
    )
    assert ratio <= FOLD_VS_ROWS_GATE, (
        f"a grouped aggregate must cost at most {FOLD_VS_ROWS_GATE}x "
        f"materializing the same join; got {ratio:.3f} "
        f"({folded_median:.4f} s vs {rows_median:.4f} s)"
    )


def test_drained_grouped_stream_tracks_execute(benchmark):
    """Streaming = the same fold + delivery: drain <= 1.25x grouped execute()."""
    database = _aggregation_database()
    expected = database.execute(FANOUT_GROUP_SQL).rows()

    execute_seconds = []

    def executed_then_quiet():
        # Both sides allocate a 2M-element factor column, so whichever one a
        # full collection lands in reads up to 1.4x slower (and in a long
        # pytest session it systematically was the second).  Like the e2e
        # harness, collect outside the timed regions and keep the collector
        # off inside them.
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        assert database.execute(FANOUT_GROUP_SQL).rows() == expected
        execute_seconds.append(time.perf_counter() - started)
        gc.collect()

    def drained():
        stream = database.execute_iter(FANOUT_GROUP_SQL, options=ExecOptions(batch_rows=256))
        assert collapse_grouped_batches(list(stream), [0]) == expected

    # The two sides are the same ~0.2 s fold, so the expected ratio is ~1.0
    # and the estimator has to be steadier than median-of-three: alternate
    # them (execute() is each round's untimed setup) and compare best rounds
    # (a neighbour only ever adds time).
    try:
        benchmark.pedantic(drained, setup=executed_then_quiet, rounds=5, iterations=1)
    finally:
        gc.enable()
    execute_best = min(execute_seconds)
    drain_best = min(benchmark.stats.stats.data)
    ratio = drain_best / execute_best
    print(
        f"\ngrouped-aggregate stream ({len(expected)} groups, zipf({ZIPF_SKEW})): "
        f"execute {execute_best * 1000:.1f} ms, drained stream "
        f"{drain_best * 1000:.1f} ms, ratio {ratio:.3f} "
        f"(gate <= {STREAM_VS_EXECUTE_GATE})"
    )
    assert ratio <= STREAM_VS_EXECUTE_GATE, (
        f"draining the grouped stream must cost at most "
        f"{STREAM_VS_EXECUTE_GATE}x grouped execute(); got {ratio:.3f} "
        f"({drain_best:.4f} s vs {execute_best:.4f} s)"
    )


def test_streamed_grouped_aggregate_matches_materialized():
    """Collapsed delta stream == materialized aggregate, exactly (correctness
    companion of the latency gate — a fast-but-wrong stream must not pass)."""
    database = _aggregation_database()
    expected = database.execute(FANOUT_GROUP_SQL).rows()
    batches = list(database.execute_iter(FANOUT_GROUP_SQL, options=ExecOptions(batch_rows=256)))
    assert collapse_grouped_batches(batches, [0]) == expected


@pytest.mark.skipif(
    not MULTICORE, reason="wall-clock gate only runs with REPRO_BENCH_MULTICORE=1"
)
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="wall-clock speedup needs >= 2 cores"
)
def test_parallel_grouped_aggregate_beats_serial(benchmark):
    """Worker-side partial folding must beat serial wall-clock at 4 workers.

    Serial is grouped ``execute()`` (one sink folding the whole join);
    parallel drains the grouped stream on a 4-process-worker steal session,
    where each task folds its share and ships a per-group partial instead
    of its row bag.  The gate is absolute wall clock, so a
    regression in fold cost, partial serialization, or parent-side merging
    cannot hide behind the scheduler's own speedup.
    """
    serial_db = _aggregation_database()
    expected = serial_db.execute(FANOUT_GROUP_SQL).rows()

    def serial_run():
        assert serial_db.execute(FANOUT_GROUP_SQL).rows() == expected

    parallel_db = _aggregation_database(
        parallelism=PARALLEL_WORKERS, parallel_mode="process"
    )

    def parallel_run():
        stream = parallel_db.execute_iter(FANOUT_GROUP_SQL, options=ExecOptions(batch_rows=256))
        batches = list(stream)
        assert collapse_grouped_batches(batches, [0]) == expected
        return stream

    serial_median, _ = _median(serial_run, rounds=2)
    parallel_run()  # warm the pool (fork + first attach) outside the timing
    benchmark.pedantic(parallel_run, rounds=2, iterations=1)
    parallel_seconds = min(benchmark.stats.stats.data)

    stream = parallel_run()
    detail = stream.report.details["parallel"][0]
    assert detail["mode"] == "process"
    aggregate_stats = detail["stream"]["aggregate"]
    assert aggregate_stats["partials_merged"] >= 1, (
        "parallel grouped aggregation must merge worker partials, "
        f"got telemetry {aggregate_stats}"
    )

    ratio = parallel_seconds / serial_median
    print(
        f"\nparallel grouped aggregate ({os.cpu_count()} cores, "
        f"{PARALLEL_WORKERS} process workers, zipf({ZIPF_SKEW}) x "
        f"{FANOUT_ROWS} rows): serial {serial_median * 1000:.1f} ms, "
        f"parallel {parallel_seconds * 1000:.1f} ms, ratio {ratio:.2f} "
        f"(gate <= {PARALLEL_AGG_GATE})"
    )
    assert ratio <= PARALLEL_AGG_GATE, (
        f"4 process workers folding partials must beat the serial "
        f"grouped execute(); got {ratio:.2f} "
        f"({parallel_seconds:.3f} s vs {serial_median:.3f} s)"
    )
    parallel_db.close()
