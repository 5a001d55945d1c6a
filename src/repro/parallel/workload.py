"""Inter-query concurrency: evaluate a workload of SQL queries on one session.

:func:`execute_workload` is the machinery behind
:meth:`repro.engine.session.Database.execute_many`.  It follows the shape of
experiment runners like PostBOUND's: each query runs with a per-query
timeout and error capture, and the workload returns a structured
:class:`WorkloadOutcome` (per-query status, seconds, rows) that serializes to
JSON for benchmark artifacts and CI gates.

Queries run on a thread pool in the calling process, each through
``Database._execute`` on the caller's session — the call
:class:`~repro.serve.AsyncDatabase` makes too — so they share the session's
prepared-query cache, statistics, router and intra-query steal pools.  The
per-query ``ExecOptions`` are frozen and passed per call, so concurrent
queries cannot observe each other's knobs, and results are identical to
serial execution query by query.  The GIL serializes the workload's
CPU-bound Python across its threads; only intra-query parallelism on a
``parallel_mode="process"`` session runs a query on more than one core.

Timeouts are cooperative: each query carries a deadline token that executors
and the steal pools check at trie-expansion boundaries, so an over-budget
query aborts mid-execution with :class:`~repro.errors.DeadlineExceeded`,
frees its thread promptly, and is recorded as ``"timeout"``.  Two things the
runner does not do, exactly as :meth:`Database.execute` does not: it cannot
isolate a crash (a query that kills the interpreter kills the caller), and
it cannot kill a query stuck in code that never ticks its token — such a
query runs to completion and is then recorded as ``"timeout"``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.options import ExecOptions
from repro.errors import DeadlineExceeded, QueryCancelled, QueryError

#: Query states reported by the workload runner.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"


@dataclass
class QueryExecution:
    """The outcome of one query within a workload run."""

    name: str
    sql: str
    engine: str
    status: str
    seconds: float = 0.0
    row_count: int = 0
    columns: Tuple[str, ...] = ()
    rows: Optional[List[tuple]] = None
    error: str = ""
    #: The run's ``RunReport.details["parallel"]`` summary (one record per
    #: parallel pipeline; JSON-ready), or ``None`` for serial executions.
    #: Carries task/steal/queue counters and the tasks' kernel counters
    #: (``kernels_stats``: programs compiled, index cache hits/misses), so
    #: workload drivers can assert warm-cache behavior without re-running
    #: queries.
    parallel: Optional[List[Dict[str, object]]] = None
    #: The run's ``RunReport.details["router"]`` record (JSON-ready), or
    #: ``None`` when the query named its engine explicitly instead of being
    #: routed via ``engine="auto"``.
    router: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def as_dict(self, include_rows: bool = True) -> Dict[str, object]:
        """JSON-serializable record of this execution."""
        record: Dict[str, object] = {
            "name": self.name,
            "sql": self.sql,
            "engine": self.engine,
            "status": self.status,
            "seconds": self.seconds,
            "row_count": self.row_count,
            "columns": list(self.columns),
        }
        if self.error:
            record["error"] = self.error
        if self.parallel is not None:
            record["parallel"] = self.parallel
        if self.router is not None:
            record["router"] = self.router
        if include_rows and self.rows is not None:
            record["rows"] = [list(row) for row in self.rows]
        return record


@dataclass
class WorkloadOutcome:
    """The structured result of one :func:`execute_workload` run."""

    executions: List[QueryExecution]
    wall_seconds: float
    max_workers: int
    timeout: Optional[float] = None

    def query(self, name: str) -> QueryExecution:
        """Look up one query's execution by name."""
        for execution in self.executions:
            if execution.name == name:
                return execution
        raise KeyError(f"no query named {name!r} in this workload outcome")

    def by_status(self, status: str) -> List[QueryExecution]:
        return [e for e in self.executions if e.status == status]

    @property
    def ok_count(self) -> int:
        return len(self.by_status(STATUS_OK))

    @property
    def error_count(self) -> int:
        return len(self.by_status(STATUS_ERROR))

    @property
    def timeout_count(self) -> int:
        return len(self.by_status(STATUS_TIMEOUT))

    def all_ok(self) -> bool:
        return self.ok_count == len(self.executions)

    def total_query_seconds(self) -> float:
        """Sum of per-query times (compare against ``wall_seconds``)."""
        return sum(e.seconds for e in self.executions)

    def as_dict(self, include_rows: bool = False) -> Dict[str, object]:
        return {
            "max_workers": self.max_workers,
            "timeout": self.timeout,
            "wall_seconds": self.wall_seconds,
            "query_count": len(self.executions),
            "ok": self.ok_count,
            "errors": self.error_count,
            "timeouts": self.timeout_count,
            "queries": [e.as_dict(include_rows=include_rows) for e in self.executions],
        }

    def to_json(self, include_rows: bool = False, indent: int = 2) -> str:
        return json.dumps(self.as_dict(include_rows=include_rows), indent=indent)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{len(self.executions)} queries in {self.wall_seconds:.2f} s wall "
            f"({self.total_query_seconds():.2f} s of query time) via "
            f"{self.max_workers} worker thread(s): "
            f"{self.ok_count} ok, {self.error_count} errors, "
            f"{self.timeout_count} timeouts"
        )


def normalize_queries(queries: Iterable) -> List[Tuple[str, str]]:
    """Coerce a workload into ``(name, sql)`` pairs.

    Accepts plain SQL strings (named ``q000``, ``q001``, ...), ``(name, sql)``
    pairs, and objects with ``name``/``sql`` attributes (e.g.
    :class:`repro.workloads.job.BenchmarkQuery`).
    """
    normalized: List[Tuple[str, str]] = []
    for index, query in enumerate(queries):
        if isinstance(query, str):
            normalized.append((f"q{index:03d}", query))
        elif isinstance(query, (tuple, list)) and len(query) == 2:
            normalized.append((str(query[0]), str(query[1])))
        elif hasattr(query, "name") and hasattr(query, "sql"):
            normalized.append((str(query.name), str(query.sql)))
        else:
            raise QueryError(
                f"cannot interpret workload entry {query!r}; pass SQL strings, "
                f"(name, sql) pairs, or objects with .name/.sql"
            )
    names = [name for name, _ in normalized]
    if len(set(names)) != len(names):
        raise QueryError(f"workload query names must be unique, got {names}")
    return normalized


def _execute_single(
    database, name: str, sql: str, options: ExecOptions, collect_rows: bool
) -> QueryExecution:
    """Run one query on ``database``; never raises.

    ``options.timeout`` is enforced cooperatively: the query runs under a
    deadline token and aborts mid-execution with ``DeadlineExceeded`` when
    the budget runs out, which is recorded as a ``"timeout"`` execution.
    """
    started = time.perf_counter()
    try:
        outcome = database._execute(sql, options, name=name)
        seconds = time.perf_counter() - started
        table = outcome.table
        # The deadline check is strided, so a query can still finish a hair
        # over budget; record the overrun either way.
        over = options.timeout is not None and seconds > options.timeout
        return QueryExecution(
            name=name,
            sql=sql,
            # Routed ("auto") queries report the engine the router actually
            # chose; explicit engines report themselves unchanged.
            engine=outcome.report.engine,
            status=STATUS_TIMEOUT if over else STATUS_OK,
            seconds=seconds,
            row_count=table.num_rows,
            columns=tuple(table.column_names),
            rows=table.to_rows() if collect_rows else None,
            parallel=outcome.report.details.get("parallel"),
            router=outcome.report.details.get("router"),
        )
    except (DeadlineExceeded, QueryCancelled) as exc:
        status, error = STATUS_TIMEOUT, f"aborted after exceeding {options.timeout} s: {exc}"
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        status, error = STATUS_ERROR, f"{type(exc).__name__}: {exc}"
    return QueryExecution(
        name=name,
        sql=sql,
        engine=options.engine,
        status=status,
        seconds=time.perf_counter() - started,
        error=error,
    )


def execute_workload(
    database,
    queries: Iterable,
    options: ExecOptions,
    max_workers: Optional[int] = None,
    collect_rows: bool = True,
) -> WorkloadOutcome:
    """Evaluate ``queries`` on ``database`` concurrently, all with ``options``.

    See the module docstring for the sharing and timeout semantics.
    Intra-query parallelism (``options.parallelism``, else the session's)
    composes with inter-query concurrency — up to ``max_workers`` queries
    share the session's steal pool — so size accordingly.

    ``engine="auto"`` routes each query through the session's router;
    per-query routing decisions land on :attr:`QueryExecution.router`.
    """
    normalized = normalize_queries(queries)
    # Resolve the engine label up front so a failed query's record names the
    # engine that would have run.
    options = replace(options, engine=options.engine or database.default_engine)
    if max_workers is None:
        max_workers = min(8, os.cpu_count() or 1, max(1, len(normalized)))
    if max_workers < 1:
        raise QueryError(f"max_workers must be at least 1, got {max_workers}")
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_execute_single, database, name, sql, options, collect_rows)
            for name, sql in normalized
        ]
        executions = [future.result() for future in futures]
    return WorkloadOutcome(
        executions=executions,
        wall_seconds=time.perf_counter() - started,
        max_workers=max_workers,
        timeout=options.timeout,
    )
