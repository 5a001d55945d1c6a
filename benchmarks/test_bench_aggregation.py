"""Aggregation-plane benchmarks: grouped-aggregate streaming and parallelism.

The acceptance gates from the partial-aggregate tentpole, on the shared
Zipf-skewed fan-out workload (:func:`repro.workloads.synthetic.fanout_tables`
with ``skew > 0`` — the hot-key shape the paper's grouped workloads take):

* **first-group-batch latency**: ``execute_iter`` of a ``GROUP BY`` query
  must deliver its first group-delta batch in at most
  :data:`FIRST_GROUP_BATCH_GATE` times the materialized grouped-aggregate
  wall clock — the whole point of streaming aggregation is that grouped
  consumers stop paying full-join time-to-first-byte;
* **parallel grouped aggregation**: draining the grouped stream on a
  4-process-worker session must take at most :data:`PARALLEL_AGG_GATE`
  times the serial materialized execution.  Workers fold their tasks' rows
  into partials, so only (tiny) per-group states cross the process boundary
  — this gate pins that win in wall-clock terms and therefore only runs on
  the multi-core CI job (``REPRO_BENCH_MULTICORE=1``).

The same comparison runs as the ``aggregation`` figure of
``scripts/make_report.py``, so the number lands in ``BENCH_<label>.json``
and the benchmark-history trend gate tracks it PR over PR.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from benchmarks.conftest import BENCH_SMOKE, JOB_SEED
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.engine.streaming import collapse_grouped_batches
from repro.workloads.synthetic import FANOUT_GROUP_SQL, fanout_tables

#: First group-delta batch must arrive within this fraction of the
#: materialized grouped-aggregate wall clock.
FIRST_GROUP_BATCH_GATE = 0.6
#: Parallel grouped-aggregate drain (4 process workers) vs serial
#: materialized execution.
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
    # The same workload builder the `aggregation` figure driver measures, so
    # the CI gate and the benchmark-history trend track one join.
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


def test_first_group_batch_beats_materialized_aggregate(benchmark):
    """The latency gate: first group delta <= 0.6x materialized aggregate."""
    database = _aggregation_database()
    expected = database.execute(FANOUT_GROUP_SQL).rows()

    def materialized():
        rows = database.execute(FANOUT_GROUP_SQL).rows()
        assert rows == expected
        return rows

    full_median, _ = _median(materialized)

    def first_group_batch():
        stream = database.execute_iter(FANOUT_GROUP_SQL, options=ExecOptions(batch_rows=256))
        batch = stream.next_batch()
        assert batch, "grouped stream must yield a non-empty first batch"
        stream.close()
        return batch

    benchmark.pedantic(first_group_batch, rounds=ROUNDS, iterations=1)
    first_median = statistics.median(benchmark.stats.stats.data)
    ratio = first_median / full_median
    print(
        f"\ngrouped-aggregate stream ({len(expected)} groups, zipf({ZIPF_SKEW})): "
        f"materialized {full_median * 1000:.1f} ms, first group batch "
        f"{first_median * 1000:.1f} ms, ratio {ratio:.3f} "
        f"(gate <= {FIRST_GROUP_BATCH_GATE})"
    )
    assert ratio <= FIRST_GROUP_BATCH_GATE, (
        f"first-group-batch latency must be at most {FIRST_GROUP_BATCH_GATE}x "
        f"the materialized grouped-aggregate wall clock; got {ratio:.3f} "
        f"({first_median:.4f} s vs {full_median:.4f} s)"
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

    Serial is the materialized grouped aggregate (join + post-pass) the
    partial plane replaces; parallel drains the grouped stream on a
    4-process-worker steal session, where each task ships a per-group
    partial instead of its row bag.  The gate is absolute wall clock, so a
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
        f"materialized aggregate; got {ratio:.2f} "
        f"({parallel_seconds:.3f} s vs {serial_median:.3f} s)"
    )
    parallel_db.close()
