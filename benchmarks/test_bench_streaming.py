"""Streaming-pipeline benchmarks: time-to-first-batch and overlap.

The acceptance gate from the streaming tentpole: on a large-output synthetic
workload, ``execute_iter`` must deliver its **first batch in at most**
:data:`FIRST_BATCH_GATE` **times the full-materialization wall clock** — the
whole point of sink-to-queue execution is that consumers stop paying
worst-case time-to-first-byte.

A second benchmark gates *total* streaming overhead: draining the full
stream must stay within :data:`DRAIN_OVERHEAD_GATE` of the materialized run
(batching adds queue hops, but the rows are the same).

The materialized yardstick of both gates is the default ``execute()`` plus
``rows()``: the kernels' flat column batches, zipped into row tuples once.
The stream's join hands its sink factorized groups instead, which the sink
expands a column slice at a time and zips one delivery batch at a time —
the same tuples, built once.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import BENCH_SMOKE, JOB_SEED
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.workloads.synthetic import FANOUT_SQL, fanout_tables

#: First batch must arrive within this fraction of the materialized wall.
FIRST_BATCH_GATE = 0.5
#: Full stream drain vs materialized execution; loose — it catches a
#: pathological per-batch cost, not queue-hop noise.
DRAIN_OVERHEAD_GATE = 1.6
#: Input rows per relation; the fan-out join outputs ~50x this.
FANOUT_ROWS = 2_000 if BENCH_SMOKE else 4_000
ROUNDS = 3


def _fanout_database() -> Database:
    database = Database()
    database.register_all(fanout_tables(FANOUT_ROWS, seed=JOB_SEED).values())
    return database


def _median(callable_, rounds: int = ROUNDS):
    seconds = []
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def test_time_to_first_batch_beats_materialization(benchmark):
    """The acceptance gate: first batch <= 0.5x full materialization."""
    database = _fanout_database()
    expected_count = len(database.execute(FANOUT_SQL).rows())

    def materialized():
        rows = database.execute(FANOUT_SQL).rows()
        assert len(rows) == expected_count
        return rows

    full_median, _ = _median(materialized)

    def first_batch():
        stream = database.execute_iter(FANOUT_SQL, options=ExecOptions(batch_rows=1024))
        batch = stream.next_batch()
        assert batch, "large-output query must yield a non-empty first batch"
        stream.close()
        return batch

    benchmark.pedantic(first_batch, rounds=ROUNDS, iterations=1)
    first_median = statistics.median(benchmark.stats.stats.data)
    ratio = first_median / full_median
    print(
        f"\nstreaming fan-out join ({expected_count} output rows): "
        f"materialized {full_median * 1000:.1f} ms, first batch "
        f"{first_median * 1000:.1f} ms, ratio {ratio:.3f} "
        f"(gate <= {FIRST_BATCH_GATE})"
    )
    assert ratio <= FIRST_BATCH_GATE, (
        f"time-to-first-batch must be at most {FIRST_BATCH_GATE}x the "
        f"materialized wall clock; got {ratio:.3f} "
        f"({first_median:.4f} s vs {full_median:.4f} s)"
    )


def test_full_stream_drain_overhead_is_bounded(benchmark):
    """Streaming every batch must not meaningfully exceed materialization."""
    database = _fanout_database()
    expected_count = len(database.execute(FANOUT_SQL).rows())

    def materialized():
        return len(database.execute(FANOUT_SQL).rows())

    full_median, _ = _median(materialized)

    def drain():
        total = 0
        for batch in database.execute_iter(FANOUT_SQL, options=ExecOptions(batch_rows=4096)):
            total += len(batch)
        assert total == expected_count
        return total

    benchmark.pedantic(drain, rounds=ROUNDS, iterations=1)
    drain_median = statistics.median(benchmark.stats.stats.data)
    ratio = drain_median / full_median
    print(
        f"\nfull stream drain: materialized {full_median * 1000:.1f} ms, "
        f"streamed {drain_median * 1000:.1f} ms, ratio {ratio:.2f} "
        f"(gate <= {DRAIN_OVERHEAD_GATE})"
    )
    assert ratio <= DRAIN_OVERHEAD_GATE
