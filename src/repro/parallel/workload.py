"""Inter-query parallelism: evaluate a workload of SQL queries concurrently.

:func:`execute_workload` is the machinery behind
:meth:`repro.engine.session.Database.execute_many`.  It follows the shape of
experiment runners like PostBOUND's: each query runs in its own worker with a
per-query timeout and error capture, and the workload returns a structured
:class:`WorkloadOutcome` (per-query status, seconds, rows) that serializes to
JSON for benchmark artifacts and CI gates.

Backends:

* ``process`` — one ``multiprocessing.Process`` per query (at most
  ``max_workers`` alive at a time), results shipped back over a pipe.  An
  overdue query first aborts cooperatively inside the worker (same deadline
  token as the thread backend, which keeps the worker's pools and exports
  intact for a clean shutdown); a worker stuck past a short grace period is
  terminated with its whole process group.
* ``thread`` — a thread pool sharing the calling process.  The GIL
  serializes CPU-bound query work, but timeouts are still *enforced*,
  cooperatively: each query carries a deadline token that executors (and the
  intra-query steal pools) check at trie-expansion boundaries, so an
  over-budget query aborts mid-execution with
  :class:`~repro.errors.DeadlineExceeded`, frees its worker promptly, and is
  recorded as ``"timeout"`` — it no longer finishes in the background before
  the error surfaces.

``mode="auto"`` picks ``process`` when the platform can fork and more than
one worker is requested, ``thread`` otherwise.  Thread workers run on the
caller's session — the per-query ``ExecOptions`` are frozen and passed per
call, so concurrent queries share nothing they did not already share (the
statistics cache and the router); each process worker rebuilds a session of
its own from :func:`_session_spec`.  Either way results are identical to
serial execution query by query.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import re
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.options import ExecOptions
from repro.errors import QueryError

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
    #: Carries task/steal/queue counters and the
    #: ``context_cache`` hit/miss telemetry, so workload drivers can assert
    #: warm-cache behavior without re-running queries.
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
    mode: str
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
            "mode": self.mode,
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
            f"{self.max_workers} {self.mode} worker(s): "
            f"{self.ok_count} ok, {self.error_count} errors, "
            f"{self.timeout_count} timeouts"
        )


# --------------------------------------------------------------------------- #
# Normalization and the single-query runner
# --------------------------------------------------------------------------- #


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


def _failure_record(name: str, sql: str, engine: str, status: str, started: float, error: str):
    """The plain-dict record of a query that produced no result."""
    return {
        "name": name,
        "sql": sql,
        "engine": engine,
        "status": status,
        "seconds": time.perf_counter() - started,
        "row_count": 0,
        "columns": (),
        "rows": None,
        "error": error,
        "parallel": None,
    }


def _execute_single(
    database, name: str, sql: str, options: ExecOptions, collect_rows: bool
) -> Dict[str, object]:
    """Run one query on ``database``; never raises.

    Returns a plain-dict record (pickle-friendly for the process backend).
    ``options`` is frozen and passed per call, so concurrent queries on one
    session cannot observe each other's knobs.

    ``options.timeout`` is enforced cooperatively: the query runs under a
    deadline token and aborts mid-execution with ``DeadlineExceeded`` when
    the budget runs out, which is recorded as a ``"timeout"`` execution.
    This holds on every backend — a thread worker is freed promptly instead
    of letting the losing query finish in the background.
    """
    from repro.errors import DeadlineExceeded, QueryCancelled

    started = time.perf_counter()
    try:
        outcome = database._execute(sql, options, name=name)
        seconds = time.perf_counter() - started
        if collect_rows:
            rows = outcome.table.to_rows()
            row_count = len(rows)
        else:
            rows = None
            row_count = outcome.table.num_rows
        status = STATUS_OK
        if options.timeout is not None and seconds > options.timeout:
            # The deadline check is strided, so a query can still finish a
            # hair over budget; record the overrun either way.
            status = STATUS_TIMEOUT
        return {
            "name": name,
            "sql": sql,
            # Routed ("auto") queries report the engine the router actually
            # chose; explicit engines report themselves unchanged.
            "engine": outcome.report.engine,
            "status": status,
            "seconds": seconds,
            "row_count": row_count,
            "columns": tuple(outcome.table.column_names),
            "rows": rows,
            "error": "",
            # The parallel telemetry (scheduler counters, context-cache
            # hits) is already plain data; ship it with the record so the
            # caller can see cache warmth per worker.
            "parallel": outcome.report.details.get("parallel"),
            "router": outcome.report.details.get("router"),
        }
    except (DeadlineExceeded, QueryCancelled) as exc:
        return _failure_record(
            name, sql, options.engine, STATUS_TIMEOUT, started,
            f"aborted after exceeding {options.timeout} s: {exc}",
        )
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        return _failure_record(
            name, sql, options.engine, STATUS_ERROR, started, f"{type(exc).__name__}: {exc}"
        )


def _session_spec(database) -> Tuple[Dict[str, object], object]:
    """What a process worker rebuilds its session from; every value pickles.

    The session itself may not (standing queries hold locks), and a worker
    must not inherit its subscriptions anyway.  Returns ``Database`` keyword
    arguments plus the statistics cache — keyed by table identity, which
    survives fork (copy-on-write), so pre-analyzed tables are never
    re-scanned per query.
    """
    init = {
        "catalog": database.catalog,
        "default_engine": database.default_engine,
        "freejoin_options": database.freejoin_options,
        "parallelism": database.parallelism,
        "parallel_mode": database.parallel_mode,
        "router": database.router,
    }
    return init, database.statistics_cache


def _query_worker(
    connection, spec, name: str, sql: str, options: ExecOptions, collect_rows: bool
) -> None:
    """Process entry point: run one query and ship the record back."""
    from repro.engine.session import Database

    try:
        # Become a process-group leader so a hard timeout can kill this
        # worker *and* any intra-query shard/pool processes it forked, in one
        # signal.  (The common path is gentler: the cooperative deadline
        # below aborts the query inside the worker first.)
        os.setpgid(0, 0)
    except (AttributeError, OSError):  # pragma: no cover - platform-specific
        pass
    try:
        init, statistics_cache = spec
        database = Database(**init)
        database.statistics_cache = statistics_cache
        record = _execute_single(database, name, sql, options, collect_rows)
        try:
            connection.send(record)
        finally:
            connection.close()
    finally:
        # A query worker is itself a process: any steal pools it spun up and
        # any shared-memory segments it exported (per-query intermediates)
        # must not outlive it — multiprocessing children do not reliably run
        # atexit hooks, so clean up explicitly.
        from repro.parallel.scheduler import shutdown_pools
        from repro.storage.shm import shutdown_exports

        shutdown_pools()
        shutdown_exports()


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #


def resolve_workload_mode(mode: str, max_workers: int) -> str:
    """Resolve ``auto`` into ``process`` or ``thread``."""
    if mode in ("process", "thread"):
        return mode
    if mode != "auto":
        raise QueryError(
            f"unknown workload mode {mode!r}; choose 'auto', 'process' or 'thread'"
        )
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    if max_workers > 1 and can_fork:
        return "process"
    return "thread"


@dataclass
class _ActiveWorker:
    process: multiprocessing.Process
    name: str
    sql: str
    started: float
    deadline: Optional[float]


def _run_process_backend(
    database,
    queries: List[Tuple[str, str]],
    options: ExecOptions,
    max_workers: int,
    collect_rows: bool,
) -> Dict[str, QueryExecution]:
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    timeout = options.timeout
    spec = _session_spec(database)
    pending = deque(queries)
    active: Dict[object, _ActiveWorker] = {}
    records: Dict[str, QueryExecution] = {}

    def start(name: str, sql: str) -> None:
        receiver, sender = context.Pipe(duplex=False)
        # Not daemonic: a query worker may itself fork intra-query shard
        # processes (parallelism > 1), which daemonic processes cannot.
        # The loop below always joins or terminates every worker.
        process = context.Process(
            target=_query_worker, args=(sender, spec, name, sql, options, collect_rows)
        )
        now = time.perf_counter()
        process.start()
        sender.close()
        # The worker aborts itself cooperatively at `timeout`; the hard
        # kill below is the backstop for a worker stuck in code that
        # never ticks its deadline token, so it fires after a short
        # grace period on top of the budget.
        grace = None
        if timeout is not None:
            grace = timeout + min(1.0, 0.5 * timeout + 0.1)
        active[receiver] = _ActiveWorker(
            process=process,
            name=name,
            sql=sql,
            started=now,
            deadline=(now + grace) if grace is not None else None,
        )

    def finalize(record: Dict[str, object]) -> None:
        rows = record.pop("rows")
        execution = QueryExecution(**record)
        execution.rows = rows
        if (
            timeout is not None
            and execution.status == STATUS_OK
            and execution.seconds > timeout
        ):
            # A worker that finished over budget before the deadline sweep
            # ran is still an overrun; mirror the thread backend so gates
            # keyed on timeout_count behave the same on both backends.
            execution.status = STATUS_TIMEOUT
        records[execution.name] = execution

    def terminate(process: multiprocessing.Process) -> None:
        # Kill the worker's whole process group (it made itself leader), so
        # intra-query shard children die with it; fall back to terminating
        # just the worker if the group does not exist yet.
        try:
            os.killpg(process.pid, signal.SIGTERM)
        except (AttributeError, OSError):
            process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            process.kill()
            process.join()

    try:
        while pending or active:
            while pending and len(active) < max_workers:
                start(*pending.popleft())

            wait_for: Optional[float] = None
            now = time.perf_counter()
            deadlines = [w.deadline for w in active.values() if w.deadline is not None]
            if deadlines:
                wait_for = max(0.0, min(deadlines) - now)
            ready = multiprocessing.connection.wait(list(active), timeout=wait_for)

            for connection in ready:
                worker = active.pop(connection)
                try:
                    record = connection.recv()
                except (EOFError, OSError):
                    record = _failure_record(
                        worker.name, worker.sql, options.engine, STATUS_ERROR, worker.started,
                        "worker exited without reporting a result",
                    )
                finalize(record)
                connection.close()
                worker.process.join()

            now = time.perf_counter()
            for connection, worker in list(active.items()):
                if worker.deadline is not None and now >= worker.deadline:
                    terminate(worker.process)
                    connection.close()
                    del active[connection]
                    records[worker.name] = QueryExecution(
                        name=worker.name,
                        sql=worker.sql,
                        engine=options.engine,
                        status=STATUS_TIMEOUT,
                        seconds=now - worker.started,
                        error=f"terminated after exceeding {timeout} s",
                    )
    finally:
        # An exception (including KeyboardInterrupt) must not orphan the
        # non-daemonic workers: they sit in their own process groups (so the
        # terminal's SIGINT never reaches them) and the interpreter would
        # block at exit joining them.
        for connection, worker in list(active.items()):
            terminate(worker.process)
            connection.close()
    return records


def _run_thread_backend(
    database,
    queries: List[Tuple[str, str]],
    options: ExecOptions,
    max_workers: int,
    collect_rows: bool,
) -> Dict[str, QueryExecution]:
    records: Dict[str, QueryExecution] = {}
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = {
            name: pool.submit(_execute_single, database, name, sql, options, collect_rows)
            for name, sql in queries
        }
        for name, future in futures.items():
            record = future.result()
            rows = record.pop("rows")
            execution = QueryExecution(**record)
            execution.rows = rows
            records[name] = execution
    return records


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def execute_workload(
    database,
    queries: Iterable,
    options: ExecOptions,
    max_workers: Optional[int] = None,
    mode: str = "auto",
    collect_rows: bool = True,
) -> WorkloadOutcome:
    """Evaluate ``queries`` on ``database`` concurrently, all with ``options``.

    See the module docstring for backend/timeout semantics.  Intra-query
    parallelism (``options.parallelism``, else the session's) composes with
    inter-query concurrency — workers times intra-query workers processes in
    total, so size accordingly.

    ``engine="auto"`` routes each query through the session's router;
    per-query routing decisions land on :attr:`QueryExecution.router`.  On
    the thread backend the shared router learns from every completion;
    process workers get a copy, so observations made there stay in the
    worker (the statistics-cache rule).
    """
    normalized = normalize_queries(queries)
    # Resolve the engine label up front so every record — including timeout
    # and worker-crash records built by the scheduler, not the worker —
    # names the engine that (would have) run.
    options = replace(options, engine=options.engine or database.default_engine)
    if max_workers is None:
        max_workers = min(8, multiprocessing.cpu_count() or 1, max(1, len(normalized)))
    if max_workers < 1:
        raise QueryError(f"max_workers must be at least 1, got {max_workers}")
    resolved = resolve_workload_mode(mode, max_workers)
    if not normalized:
        return WorkloadOutcome(
            executions=[], wall_seconds=0.0, max_workers=max_workers,
            mode=resolved, timeout=options.timeout,
        )
    catalog = database.catalog

    if resolved == "process":
        # Warm the cache before forking: the copy-on-write image then hands
        # every worker pre-analyzed table statistics (the cache is keyed by
        # table identity, which fork preserves), instead of each worker
        # re-scanning every base table its query touches.  Only tables the
        # workload's SQL actually names are analyzed — a catalog may hold
        # large tables no query touches.
        text = " ".join(sql for _, sql in normalized)
        referenced = [
            catalog.get(table_name)
            for table_name in catalog.table_names()
            if re.search(rf"\b{re.escape(table_name)}\b", text)
        ]
        for table in referenced:
            database.statistics_cache.for_table(table)
        if (options.parallelism or database.parallelism) > 1:
            # Same pre-fork warming for the shared-memory column plane: the
            # forked query workers inherit the export cache, so their steal
            # pools attach the parent's segments instead of each worker
            # re-exporting every base table its query touches.
            from repro.storage.shm import export_table

            for table in referenced:
                export_table(table)

    started = time.perf_counter()
    backend = _run_process_backend if resolved == "process" else _run_thread_backend
    records = backend(database, normalized, options, max_workers, collect_rows)
    return WorkloadOutcome(
        executions=[records[name] for name, _ in normalized],
        wall_seconds=time.perf_counter() - started,
        max_workers=max_workers,
        mode=resolved,
        timeout=options.timeout,
    )
