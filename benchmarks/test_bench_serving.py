"""Serving-path benchmarks: kernel-cache warm-up and async throughput.

Two acceptance gates from the serving tentpole:

* **warm <= 0.8x cold** — a repeated query over unchanged tables must hit
  the kernels' content-keyed sorted-index cache and skip its
  per-query index build; the warm median is gated at
  :data:`WARM_SPEEDUP_GATE` times the cold median.  Both sides run the same
  query on the same session; "cold" clears the index cache before every
  round.
* **deadline overhead is bounded** — attaching a (never-expiring) deadline
  token to every query must not measurably slow the join: gated at
  :data:`DEADLINE_OVERHEAD_GATE` times the no-deadline median, a loose
  bound that catches an accidentally hot check, not noise.

Plus an asyncio serving series (``gather_many`` over the JOB subset) so the
serving layer has a throughput number to trend in ``BENCH_smoke.json``.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time

from benchmarks.conftest import BENCH_SMOKE, JOB_QUERIES, JOB_SEED
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.kernels import kernel_caches_clear
from repro.serve import AsyncDatabase
from repro.storage.table import Table

#: Warm (cache-hit) median must be at most this fraction of the cold median.
WARM_SPEEDUP_GATE = 0.8
#: Median with an armed-but-distant deadline vs without; loose by design.
DEADLINE_OVERHEAD_GATE = 1.30
#: Rows per relation of the build-heavy join (index build dominates).
CACHE_ROWS = 20_000 if BENCH_SMOKE else 40_000
#: Timed rounds per side of each comparison.
ROUNDS = 3

CACHE_SQL = "SELECT COUNT(*) FROM r, s WHERE r.k = s.k"


def _cache_catalog() -> Database:
    """A join whose cost is dominated by index building, not enumeration.

    Wide key domain, few matches: both relations are indexed over every
    distinct key while the output stays small, which is exactly the shape
    where skipping the rebuild pays.
    """
    rng = random.Random(JOB_SEED)
    domain = CACHE_ROWS * 8
    database = Database()
    database.register(Table.from_columns("r", {
        "k": [rng.randrange(domain) for _ in range(CACHE_ROWS)],
        "a": list(range(CACHE_ROWS)),
    }))
    database.register(Table.from_columns("s", {
        "k": [rng.randrange(domain) for _ in range(CACHE_ROWS)],
        "b": list(range(CACHE_ROWS)),
    }))
    return database


def _timed(callable_, rounds: int = ROUNDS):
    seconds = []
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = callable_()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def test_kernel_caches_warm_beat_cold(benchmark):
    """The acceptance gate: warm repeated query <= 0.8x cold median."""
    database = _cache_catalog()
    parallel = Database(database.catalog, parallelism=2, parallel_mode="thread")
    expected = database.execute(CACHE_SQL).scalar()

    def cold():
        # Cold = no cached derived structures: the kernels' sorted-index
        # cache, which the thread session's inline tasks share with us
        # (programs compile on every run, warm or cold).
        kernel_caches_clear()
        outcome = parallel.execute(CACHE_SQL)
        assert outcome.scalar() == expected
        return outcome

    def warm():
        outcome = parallel.execute(CACHE_SQL)
        assert outcome.scalar() == expected
        return outcome

    cold_median, _ = _timed(cold)
    warm()  # prime the cache once before timing the warm side
    outcome = benchmark.pedantic(warm, rounds=ROUNDS, iterations=1)
    warm_median = statistics.median(benchmark.stats.stats.data)

    assert outcome.report.details["kernels"]["indexes"]["hits"] >= 1, (
        "warm run must hit the index cache"
    )
    ratio = warm_median / cold_median
    print(
        f"\nkernel caches on {CACHE_ROWS} rows x 2 relations: "
        f"cold {cold_median * 1000:.1f} ms, warm {warm_median * 1000:.1f} ms, "
        f"ratio {ratio:.2f} (gate <= {WARM_SPEEDUP_GATE})"
    )
    assert ratio <= WARM_SPEEDUP_GATE, (
        f"warm-cache query must be measurably faster than cold; got "
        f"{ratio:.2f} (warm {warm_median:.3f} s vs cold {cold_median:.3f} s)"
    )


def test_deadline_token_overhead_is_bounded(benchmark):
    """Arming a far-future deadline must not meaningfully slow the join."""
    database = _cache_catalog()
    expected = database.execute(CACHE_SQL).scalar()

    def plain():
        assert database.execute(CACHE_SQL).scalar() == expected

    def with_deadline():
        assert database.execute(CACHE_SQL, options=ExecOptions(timeout=3600.0)).scalar() == expected

    plain_median, _ = _timed(plain)
    benchmark.pedantic(with_deadline, rounds=ROUNDS, iterations=1)
    armed_median = statistics.median(benchmark.stats.stats.data)
    ratio = armed_median / plain_median
    print(
        f"\ndeadline-armed join: plain {plain_median * 1000:.1f} ms, "
        f"armed {armed_median * 1000:.1f} ms, ratio {ratio:.2f} "
        f"(gate <= {DEADLINE_OVERHEAD_GATE})"
    )
    assert ratio <= DEADLINE_OVERHEAD_GATE


def test_async_serving_throughput(benchmark, job_workload):
    """``gather_many`` over the JOB subset: the serving layer's wall-clock.

    Runs the subset twice per round (cold kernel caches the first time, warm
    the second within one asyncio session), asserting parity with the
    synchronous session on every query.
    """
    database = Database(job_workload.catalog)
    expected = {
        name: database.execute(job_workload.query(name).sql, name=name).rows()
        for name in JOB_QUERIES
    }
    queries = [(name, job_workload.query(name).sql) for name in JOB_QUERIES]

    async def serve_round():
        async with AsyncDatabase(database, max_concurrency=4) as adb:
            results = await adb.gather_many(queries, max_concurrency=4)
            return {name: outcome for (name, _), outcome in zip(queries, results)}

    def run():
        return asyncio.run(serve_round())

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    for name in JOB_QUERIES:
        assert sorted(results[name].rows(), key=repr) == sorted(
            expected[name], key=repr
        ), f"async serving result diverged on {name}"
