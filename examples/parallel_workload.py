#!/usr/bin/env python3
"""Serve a JOB-like workload through the parallel execution subsystem.

Demonstrates both layers of :mod:`repro.parallel`:

* inter-query concurrency — ``Database.execute_many`` runs the whole query
  suite on N threads of the one session (sharing its prepared-query cache,
  statistics and router) with a per-query timeout, and prints the structured
  :class:`WorkloadOutcome` (per-query status/seconds/rows) as JSON;
* intra-query parallelism — the same session re-runs the most explosive
  query (``q13``, the paper's Q13a analogue) with the join itself sharded
  across workers, and prints the per-shard accounting.

Run with::

    python examples/parallel_workload.py [scale] [workers] [shards]
"""

import sys

from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.workloads.job import generate_job_workload


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    shards = int(sys.argv[3]) if len(sys.argv) > 3 else 4

    workload = generate_job_workload(scale=scale, seed=42)
    database = Database(workload.catalog)

    # --- Layer 1: a workload of queries, evaluated concurrently ----------- #
    print(f"Executing {len(workload.queries)} JOB-like queries "
          f"with {workers} workers (timeout 30 s per query)...")
    outcome = database.execute_many(
        workload.queries, max_workers=workers, collect_rows=False,
        options=ExecOptions(timeout=30.0)
    )
    print(outcome.summary())
    for execution in outcome.executions:
        flag = "" if execution.ok else f"  <-- {execution.status}: {execution.error}"
        print(f"  {execution.name}: {execution.seconds * 1000:8.1f} ms, "
              f"{execution.row_count} rows{flag}")
    print()
    print("Structured outcome (what a CI gate or dashboard would ingest):")
    print(outcome.to_json())
    print()

    # --- Layer 2: one explosive query, parallelized across workers -------- #
    # The scheduler decomposes the join into fine-grained tasks, and the
    # per-worker accounting below (tasks, steals, outputs) is the point of
    # the demo.  parallel_mode="thread" keeps it deterministic at small
    # scale: the tasks run inline, in task order (mode=inline, no steals);
    # parallel_mode="process" serves them from the persistent steal pool.
    serial = database.execute(workload.query("q13").sql, name="q13")
    sharded_db = Database(workload.catalog, parallelism=shards, parallel_mode="thread")
    sharded = sharded_db.execute(workload.query("q13").sql, name="q13")
    assert sorted(sharded.rows()) == sorted(serial.rows())
    print(f"q13 serial:   {serial.report.summary()}")
    print(f"q13 parallel: {sharded.report.summary()}")
    for pipeline in sharded.report.details.get("parallel", []):
        print(f"  mode={pipeline['mode']} "
              f"workers={pipeline['shards']} tasks={pipeline.get('tasks', '-')} "
              f"steals={pipeline.get('steals', '-')}")
        for worker in pipeline["per_shard"]:
            busy = worker.get("busy_seconds", worker.get("join_seconds", 0.0))
            print(f"    worker {worker['shard']}: {worker['outputs']} outputs, "
                  f"{worker.get('tasks', 1)} task(s), "
                  f"{worker.get('steals', 0)} stolen, busy {busy * 1000:.1f} ms")


if __name__ == "__main__":
    main()
