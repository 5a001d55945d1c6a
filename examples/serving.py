#!/usr/bin/env python3
"""An asyncio serving demo: deadlines, cancellation, warm kernel caches.

Walks the serving layer (:mod:`repro.serve`) end to end against a JOB-like
workload:

1. ``gather_many`` pushes the query suite through the async facade with
   bounded concurrency and a per-query deadline, twice — the second pass
   hits the kernels' content-keyed index cache (the printed ``indexes=``
   hit/miss counters), and the per-query times show the warm-path speedup;
2. a deliberately tiny deadline aborts an explosive query *mid-execution*
   (``DeadlineExceeded``), after which the same session keeps serving;
3. an asyncio cancellation frees its worker slot promptly;
4. ``execute_stream`` streams a large result batch by batch *while the join
   is still running* (sink-to-queue execution with a bounded queue, so a
   slow consumer backpressures the producer instead of buffering it all).

Run with::

    python examples/serving.py [scale] [concurrency]
"""

import asyncio
import sys
import time

from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.errors import DeadlineExceeded
from repro.serve import AsyncDatabase
from repro.workloads.job import generate_job_workload

#: The paper's Q13a analogue: the most explosive query of the suite.
EXPLOSIVE = "q13"


async def serve(scale: float, concurrency: int) -> None:
    workload = generate_job_workload(scale=scale, seed=42)
    database = Database(workload.catalog)
    queries = [(query.name, query.sql) for query in workload.queries]

    async with AsyncDatabase(database, max_concurrency=concurrency) as adb:
        # --- 1. Bounded-concurrency workload, cold then warm ------------- #
        for label in ("cold", "warm"):
            started = time.perf_counter()
            results = await adb.gather_many(
                queries,
                max_concurrency=concurrency,
                options=ExecOptions(timeout=30.0),
                return_exceptions=True,
            )
            wall = time.perf_counter() - started
            ok = sum(1 for r in results if not isinstance(r, BaseException))
            print(f"[{label}] {ok}/{len(queries)} queries in {wall:.2f} s "
                  f"({concurrency} worker threads)")
            for (name, _sql), outcome in zip(queries, results):
                if isinstance(outcome, BaseException):
                    print(f"    {name}: {type(outcome).__name__}: {outcome}")
                else:
                    indexes = outcome.report.details["kernels"]["indexes"]
                    print(f"    {name}: {outcome.report.total_seconds * 1000:7.1f} ms "
                          f"{outcome.table.num_rows} rows indexes={indexes}")

        # --- 2. A deadline below the query's runtime ---------------------- #
        explosive_sql = workload.query(EXPLOSIVE).sql
        started = time.perf_counter()
        try:
            await adb.execute(explosive_sql, options=ExecOptions(timeout=0.02))
            print(f"\n{EXPLOSIVE} finished under 20 ms?! (tiny scale)")
        except DeadlineExceeded:
            print(f"\n{EXPLOSIVE} aborted mid-execution after "
                  f"{(time.perf_counter() - started) * 1000:.1f} ms "
                  f"(budget 20 ms) - DeadlineExceeded")
        survivor = await adb.execute(queries[0][1], name=queries[0][0])
        print(f"session healthy after the abort: {queries[0][0]} -> "
              f"{survivor.table.num_rows} rows")

        # --- 3. Cancellation frees the slot ------------------------------- #
        task = asyncio.create_task(adb.execute(explosive_sql))
        await asyncio.sleep(0.01)
        task.cancel()
        try:
            await task
            print("the explosive query finished before the cancel landed "
                  "(tiny scale)")
        except asyncio.CancelledError:
            print("cancelled the explosive query; its worker aborts at the "
                  "next deadline-token check")

        # --- 4. Streaming execution --------------------------------------- #
        total = 0
        batches = 0
        started = time.perf_counter()
        first_batch_at = None
        async for batch in adb.execute_stream(queries[0][1], options=ExecOptions(batch_rows=256)):
            if first_batch_at is None:
                first_batch_at = time.perf_counter() - started
            total += len(batch)
            batches += 1
        wall = time.perf_counter() - started
        print(
            f"streamed {total} rows in {batches} batches of <= 256 "
            f"(first batch after {first_batch_at * 1000:.1f} ms of a "
            f"{wall * 1000:.1f} ms stream)"
        )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    concurrency = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    asyncio.run(serve(scale, concurrency))


if __name__ == "__main__":
    main()
