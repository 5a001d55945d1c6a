"""Parallel execution subsystem: intra-query sharding and workload sessions.

Two layers, mirroring how a multi-core engine would serve the paper's
workloads in production:

* :mod:`repro.parallel.scheduler` — *intra-query* parallelism: a lowered
  pipeline's root cover is decomposed into fine-grained tasks pulled from
  one shared queue by a persistent :class:`~repro.parallel.scheduler.StealPool`
  of forked processes, which attach inputs through the shared-memory column
  plane (:mod:`repro.storage.shm`), or run inline on the calling thread
  (``parallel_mode="thread"``); per-task/per-worker
  stats (steals, queue waits, attach times) are merged into
  ``RunReport.details["parallel"]``.
* :mod:`repro.parallel.workload` — *inter-query* concurrency: a workload of
  SQL queries evaluated on the caller's session by a thread pool, with
  per-query timeout and error capture, returning a JSON-serializable
  :class:`~repro.parallel.workload.WorkloadOutcome`.

Every plan policy reaches the first layer the same way — a
:class:`~repro.engine.pipeline.RunContext` with ``workers > 1`` makes
:func:`repro.engine.pipeline.run_plan` hand each pipeline to the steal
scheduler; sessions reach the second through
:meth:`repro.engine.session.Database.execute_many`.
"""

from repro.parallel.scheduler import (
    PARALLEL_ROW_THRESHOLD,
    ShardedRunResult,
    TASKS_PER_WORKER,
    StealPool,
    StealTask,
    resolve_mode,
    active_pools,
    decompose_entries,
    get_pool,
    run_pipeline_steal,
    shutdown_pools,
)
from repro.parallel.workload import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    QueryExecution,
    WorkloadOutcome,
    execute_workload,
    normalize_queries,
)

__all__ = [
    "PARALLEL_ROW_THRESHOLD",
    "QueryExecution",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "ShardedRunResult",
    "StealPool",
    "StealTask",
    "TASKS_PER_WORKER",
    "WorkloadOutcome",
    "active_pools",
    "decompose_entries",
    "execute_workload",
    "get_pool",
    "normalize_queries",
    "resolve_mode",
    "run_pipeline_steal",
    "shutdown_pools",
]
