"""Work-stealing task scheduler for intra-query parallelism.

One contiguous range of the root cover per worker leaves workers wildly
unbalanced on the skewed inputs the paper's workloads are built from (Zipf
keys, hub-and-spoke joins): one hot key can put almost all of the join under
a single range while the other workers idle.  This module is a task-queue
scheduler instead, and it schedules exactly one thing — a
:class:`~repro.engine.pipeline.PhysicalPipeline`, whatever plan policy
lowered it (:func:`run_pipeline_steal`):

* the root cover is decomposed into *many* fine-grained tasks (contiguous
  entry ranges — morsels, in Leis et al.'s terms; about
  :data:`TASKS_PER_WORKER` per worker).  A range of root entries is the
  only task shape: a cover with fewer entries than workers gets one task
  per entry, and a single task runs inline, like a serial run;
* tasks are dealt to workers in contiguous blocks, and a worker that drains
  its own block *steals* from its siblings, so a block of hot tasks ends up
  spread across the pool instead of serializing on its owner;
* workers are **persistent** — one pool per (backend, worker count) is kept
  for the life of the process and reused across queries (the concurrent
  queries of one :meth:`~repro.engine.session.Database.execute_many` run
  share it too: they run on threads of the caller's process), so repeated
  queries pay no pool spin-up;
* process workers receive their inputs through the shared-memory column
  plane (:mod:`repro.storage.shm`): a query ships only a plan and a handful
  of segment handles, workers attach the columns zero-copy and build their
  tries lazily, forcing only the parts their tasks actually touch.  Thread
  workers go one better and share a single trie build.

Two serving-layer features are layered on top of the scheduler:

* **deadlines and cancellation** — tasks carry an absolute monotonic
  deadline and every executor ticks a :class:`DeadlineToken` at
  trie-expansion boundaries, so an over-budget or cancelled query aborts
  *mid-flight* (raising ``DeadlineExceeded``/``QueryCancelled``) and its
  sibling tasks are cancelled promptly — thread workers share the token
  directly, process workers probe a fork-inherited cancel cell the parent
  bumps.  A deadline abort completes the drain protocol cleanly, so the
  pool (and its caches) stays warm.
* **fingerprint-keyed context caching** — the tries/hash tables built per
  (query, worker) are cached under a key derived from the input tables'
  content fingerprints, the pinned cover, and the engine options
  (:mod:`repro.parallel.context_cache`), with an LRU byte budget
  (``REPRO_CONTEXT_CACHE_BYTES``).  Repeated queries over unchanged tables
  skip per-query trie rebuilds: process workers keep per-worker caches
  (pinning their shm attachments), the thread/inline backends share a
  parent-side cache, and the process parent memoizes cover/entry-count
  metadata in a plan cache.

**The scheduler is content-blind.**  What a task produces, and how it gets
back into the query's sink, is the sink's business
(:mod:`repro.engine.output`, "One transport"): every task folds into a fresh
sink built from ``sink.task_sink()`` — a picklable recipe, shipped per query
and never stored on a cached context — the task's outcome carries that
sink's ``payload()`` as its one content key, and the parent sink takes it
in with ``absorb()``.  A sink that declares ``absorb_on_arrival`` (the
streaming sinks, the aggregate sinks) absorbs as each task finishes, so a
consumer sees a first batch — or a ``GROUP BY`` delta per merged partial —
while sibling tasks still run, and a failed delivery cancels the rest; every
other sink absorbs after the drain, in task order, on the submitting thread.

Per-task and per-worker accounting (steal counts, queue depths and waits,
attach times, context-cache hits/misses/evictions, and the sink's own
telemetry under ``stream``) is merged into the run's
``RunReport.details["parallel"]`` entry; see ``benchmarks/README.md`` for
how to read it.

Result parity: tasks partition the serial iteration, and an ordered sink
absorbs their payloads in task order, so its content always equals the
serial output as a bag; with static cover selection the row order is
byte-identical as well.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.pipeline import PhysicalPipeline, PipelineState, run_range
from repro.errors import DeadlineExceeded, ExecutionError, QueryCancelled
from repro.kernels import (
    kernel_caches_clear,
    merge_stats as kernel_merge_stats,
    new_stats as kernel_new_stats,
)
from repro.parallel.cancellation import DeadlineToken
from repro.parallel.context_cache import (
    CONTEXT_BYTES_FACTOR,
    ContextCache,
    context_cache_budget,
    context_cache_key,
)
from repro.query.atoms import Atom
from repro.storage.shm import AttachmentCache, ShmTableHandle, export_table

#: Below this many total input tuples, ``mode="auto"`` uses threads: the
#: fork/pickle/rebuild overhead of process workers would dominate the join.
PROCESS_INPUT_THRESHOLD = 20_000


def resolve_mode(mode: str, shard_count: int, input_tuples: int) -> str:
    """Resolve ``auto`` into ``process`` or ``thread``.

    Small inputs fall back to threads: forking workers, re-pickling the
    tables and rebuilding tries per worker costs more than the join saves.
    """
    if mode in ("process", "thread"):
        return mode
    if mode != "auto":
        raise ExecutionError(
            f"unknown parallel mode {mode!r}; choose 'auto', 'process' or 'thread'"
        )
    if shard_count <= 1 or input_tuples < PROCESS_INPUT_THRESHOLD:
        return "thread"
    if (multiprocessing.cpu_count() or 1) <= 1:
        # One core: processes only add fork/transfer overhead on top of the
        # same serialized CPU time.
        return "thread"
    if "fork" not in multiprocessing.get_all_start_methods():
        # Without fork the tables would be pickled into every spawned worker
        # plus an interpreter cold-start each — the exact overhead the
        # threshold rationale assumes away.  Explicit mode="process" still
        # allows it for users who know their workload amortizes the cost.
        return "thread"
    return "process"


def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class ShardedRunResult:
    """The accounting of one parallel run (its output is in the query's sink).

    Produced by the work-stealing scheduler (one entry per *worker* in
    ``shard_details``, plus scheduler counters — task/steal/queue stats — in
    ``extra``).
    """

    #: Merged row-path work counters (empty when the kernels served every task).
    stats: Dict[str, int]
    build_seconds: float
    join_seconds: float
    mode: str
    shard_count: int
    shard_details: List[Dict[str, object]] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def details(self) -> Dict[str, object]:
        """Summary suitable for :attr:`RunReport.details` / JSON reports."""
        record: Dict[str, object] = {
            "mode": self.mode,
            "shards": self.shard_count,
            "per_shard": self.shard_details,
        }
        record.update(self.extra)
        return record


#: Target number of tasks dealt per worker.  More tasks mean finer-grained
#: stealing (better balance under skew) at the cost of per-task overhead.
TASKS_PER_WORKER = 4


def _steal_backend(mode: str, workers: int, input_tuples: int) -> str:
    """Resolve the worker backend, degrading to threads when fork is absent.

    The shm column plane relies on forked workers sharing the exporter's
    ``resource_tracker``: a *spawned* worker runs its own tracker, which
    would unlink the parent's still-live segments when the worker exits.
    Rather than risk that, platforms without fork always get the thread
    backend (which shares state directly and needs no shm at all).
    """
    backend = resolve_mode(mode, workers, input_tuples)
    if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
        return "thread"
    return backend


# --------------------------------------------------------------------------- #
# Tasks and decomposition
# --------------------------------------------------------------------------- #


@dataclass
class StealTask:
    """One unit of work: root cover entries ``[start, stop)``.

    ``preferred`` is the worker the task was dealt to; a task executed by
    any other worker counts as stolen.  ``enqueued`` is a ``time.monotonic``
    stamp set at dispatch, used for queue-wait accounting (monotonic clocks
    are system-wide on Linux, so it crosses fork).
    """

    task_id: int
    start: int
    stop: int
    preferred: int = 0
    enqueued: float = 0.0
    #: Absolute ``time.monotonic`` deadline, or ``None``.  Carried on the
    #: task (not the token) because monotonic timestamps cross fork while
    #: token objects do not; workers rebuild a local token around it.
    deadline: Optional[float] = None


def decompose_entries(entry_total: int, workers: int) -> List[StealTask]:
    """Split ``entry_total`` cover entries into contiguous, near-even tasks.

    At most ``workers * TASKS_PER_WORKER`` tasks, never more than one per
    entry; in task order they cover ``range(entry_total)`` exactly.  An
    empty cover yields no task (the scheduler short-circuits without
    touching a pool).
    """
    if workers <= 0:
        raise ExecutionError(f"worker count must be positive, got {workers}")
    count = min(workers * TASKS_PER_WORKER, entry_total)
    return [
        StealTask(
            task_id=index,
            start=entry_total * index // count,
            stop=entry_total * (index + 1) // count,
        )
        for index in range(count)
    ]


def assign_preferred(tasks: List[StealTask], workers: int) -> None:
    """Deal tasks to workers in contiguous blocks (task order = serial order).

    Contiguous blocks keep each worker iterating in serial order; stealing
    takes from the *tail* of a victim's block, so hot prefixes migrate.
    """
    total = len(tasks)
    for task in tasks:
        task.preferred = min(task.task_id * workers // total, workers - 1)


# --------------------------------------------------------------------------- #
# Worker-side task contexts (shared by the thread and process backends)
# --------------------------------------------------------------------------- #


class _TaskContext:
    """Per-worker state of one pipeline, reused across tasks and queries.

    Contexts are the unit the fingerprint-keyed cache stores: the pinned
    pipeline description (what task ranges address), its row-path state
    (built on first use — kernel-serving workers never need it), the entry
    total (so a cache hit skips task planning entirely) and, in process
    workers, the shared-memory attachments the atoms' columns point into,
    pinned while the context sits in a cache.
    """

    def __init__(
        self,
        pipeline: PhysicalPipeline,
        entry_total: int,
        kernels_off: Optional[str],
        state: Optional[PipelineState] = None,
        attachments: Tuple = (),
        attach_seconds: float = 0.0,
    ) -> None:
        self.pipeline = pipeline
        self.entry_total = entry_total
        self.kernels_off = kernels_off
        self.state = state or PipelineState(pipeline.row_path, pipeline.atoms)
        self.attachments = attachments
        self.attach_seconds = attach_seconds

    def run_task(
        self, task: StealTask, task_sink, interrupt: Optional[DeadlineToken] = None
    ) -> Dict[str, object]:
        """Run one task into a fresh ``task_sink()``; package its outcome.

        ``task_sink`` is the query sink's recipe — per query, never stored
        here, so one cached context serves a row query and an aggregate
        query back to back.  The outcome's one content key is the task
        sink's ``payload``; the rest is telemetry (``outputs``: the join
        cardinality the task produced).
        """
        sink = task_sink()
        stats = kernel_new_stats()
        counters, fallback = run_range(
            self.pipeline,
            self.state,
            sink,
            (task.start, task.stop),
            interrupt,
            stats,
            self.kernels_off,
        )
        outcome = {
            "task_id": task.task_id,
            "payload": sink.payload(),
            "outputs": sink.result().count(),
            "stats": counters,
            "kernels": stats,
        }
        if fallback:
            outcome["kernel_fallback"] = fallback
        return outcome


def _unpin_attachments(attachments) -> None:
    for attachment in attachments:
        attachment.pins = max(0, attachment.pins - 1)


def _attach_atoms(
    specs: Sequence[Tuple[str, Tuple[str, ...], ShmTableHandle]],
    cache: AttachmentCache,
):
    """Attach (and immediately pin) every atom's segment for one query.

    The pin is taken *before* anything reads the attached columns: a query
    over per-query intermediate tables churns segment names, and once the
    attachment LRU is over capacity, attaching atom N could otherwise evict
    — and release the views of — atoms 1..N-1 of the very same query.
    Ownership of the pins passes to the built context; on failure the caller
    unpins via :func:`_unpin_attachments`.
    """
    atoms: List[Atom] = []
    attachments = []
    try:
        for name, variables, handle in specs:
            attachment = cache.attach_entry(handle)
            attachment.pins += 1
            attachments.append(attachment)
            atoms.append(Atom(name, attachment.table, variables))
    except Exception:
        _unpin_attachments(attachments)
        raise
    return atoms, attachments


def _build_worker_context(setup: Dict[str, object], cache: AttachmentCache):
    """Build a task context in a process worker from a pickled setup payload.

    The returned context records (and pins) the attachments its structures
    point into, so the context cache can exempt them from the attachment LRU
    for as long as the context stays cached, and release them on eviction.
    Kernel-serving workers defer the row-path build to the first task that
    actually needs it (if any); with kernels off it is setup work.
    """
    started = time.perf_counter()
    atoms, attachments = _attach_atoms(setup["atoms"], cache)
    context = _TaskContext(
        replace(setup["pipeline"], atoms=atoms),
        setup["entry_total"],
        setup["kernels_off"],
        attachments=tuple(attachments),
        attach_seconds=time.perf_counter() - started,
    )
    if context.kernels_off:
        try:
            context.state.get()
        except Exception:
            _unpin_attachments(attachments)
            raise
    return context


def _classify_failure(
    errors: List[str], interrupt: Optional[DeadlineToken]
) -> ExecutionError:
    """Turn task/setup error strings into the most specific exception type.

    Worker-side aborts cross process boundaries as strings prefixed with the
    exception type name.  Ordering matters: a *genuine* task failure (one
    that is neither a deadline abort nor derived cancellation noise) must
    surface as a plain :class:`ExecutionError` even when the query's
    deadline happens to lapse while the drain completes — otherwise a real
    bug under a generous timeout would be recorded as a timeout.  An
    explicit caller cancel wins over everything; deadline classification
    otherwise requires deadline evidence from a worker, or an expired token
    with nothing but skip noise in the error list.
    """
    message = "; ".join(errors)
    deadline_hit = any("DeadlineExceeded" in error for error in errors)
    cancel_hit = any("QueryCancelled" in error for error in errors)
    genuine = any(
        "DeadlineExceeded" not in error and "QueryCancelled" not in error
        for error in errors
    )
    if interrupt is not None and interrupt.cancelled:
        return QueryCancelled(message or "query was cancelled")
    if deadline_hit:
        return DeadlineExceeded(message or "query exceeded its deadline")
    if genuine:
        return ExecutionError(message)
    if interrupt is not None and interrupt.expired():
        # Only derived skip noise remains and the token is past due: the
        # parent-side watcher cancelled the tasks before any worker's own
        # check fired.
        return DeadlineExceeded(message or "query exceeded its deadline")
    if cancel_hit:
        return QueryCancelled(message)
    return ExecutionError(message)


# --------------------------------------------------------------------------- #
# Thread backend: per-worker deques with stealing
# --------------------------------------------------------------------------- #


class _ThreadJob:
    """One query's worth of tasks, dealt into per-worker deques."""

    def __init__(
        self,
        context,
        sink,
        tasks: List[StealTask],
        workers: int,
        interrupt: Optional[DeadlineToken] = None,
    ) -> None:
        self.context = context
        self.sink = sink
        self.task_sink = sink.task_sink()
        self.interrupt = interrupt
        self.deques: List[deque] = [deque() for _ in range(workers)]
        now = time.monotonic()
        for task in tasks:
            task.enqueued = now
            self.deques[task.preferred].append(task)
        self.lock = threading.Lock()
        self.remaining = len(tasks)
        self.backlog = len(tasks)
        self.outcomes: List[Dict[str, object]] = []
        self.errors: List[str] = []
        self.worker_reports: List[Dict[str, object]] = [
            _new_worker_report() for _ in range(workers)
        ]
        self.done = threading.Event()


def _new_worker_report() -> Dict[str, object]:
    return {
        "tasks": 0,
        "steals": 0,
        "outputs": 0,
        "busy_seconds": 0.0,
        "attach_seconds": 0.0,
        "setup_seconds": 0.0,
    }


class ThreadStealPool:
    """A persistent pool of worker threads with per-worker steal deques.

    Under CPython the GIL serializes the join work itself, so the thread
    backend's value is determinism and *shared state*: all workers execute
    over one trie/hash-table build (the job's one task context) instead of
    one build per worker.
    """

    backend = "thread"

    def __init__(self, workers: int) -> None:
        if workers <= 0:
            raise ExecutionError(f"worker count must be positive, got {workers}")
        self.workers = workers
        self.broken = False
        self._cond = threading.Condition()
        self._generation = 0
        self._job: Optional[_ThreadJob] = None
        self._stop = False
        self._submit_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-steal-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(
        self, context, sink, tasks: List[StealTask], interrupt: Optional[DeadlineToken] = None
    ):
        """Run ``tasks`` over ``context``; returns (outcomes, worker_reports).

        Every task folds into a fresh ``sink.task_sink()``.  ``interrupt`` is
        shared by every worker thread: a deadline expiry or a
        :meth:`~repro.parallel.cancellation.DeadlineToken.cancel` aborts
        in-flight tasks at their next executor tick and skips queued ones,
        and the submit raises ``DeadlineExceeded``/``QueryCancelled``.

        A ``sink`` that declares ``absorb_on_arrival`` absorbs each task's
        payload on the worker thread that ran it, as the task completes (the
        payload leaves the outcome), so a streaming consumer receives batches
        while sibling tasks are still running.  An absorb that raises — the
        consumer broke off (cancel) or the delivery deadline lapsed against a
        stalled consumer — is recorded as that task's error and classified
        like any other abort, so the pool drains cleanly and stays warm.
        Any other sink is never touched here: its payloads come back in the
        outcomes for the caller to absorb in task order.
        """
        with self._submit_lock:
            if self.broken:
                raise ExecutionError("steal pool has been shut down")
            job = _ThreadJob(context, sink, tasks, self.workers, interrupt)
            with self._cond:
                self._job = job
                self._generation += 1
                self._cond.notify_all()
            job.done.wait()
            if job.errors:
                raise _classify_failure(job.errors, interrupt)
            reports = {
                index: report for index, report in enumerate(job.worker_reports)
            }
            return job.outcomes, reports

    def _worker_loop(self, worker_id: int) -> None:
        seen = 0
        while True:
            with self._cond:
                while self._generation == seen and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                seen = self._generation
                job = self._job
            if job is not None:
                self._drain(job, worker_id)

    def _drain(self, job: _ThreadJob, worker_id: int) -> None:
        own = job.deques[worker_id]
        while True:
            task: Optional[StealTask] = None
            stolen = False
            try:
                task = own.popleft()
            except IndexError:
                pass
            if task is None:
                for victim in range(len(job.deques)):
                    if victim == worker_id:
                        continue
                    try:
                        # Steal from the tail: the victim keeps its serial
                        # prefix, thieves take the work furthest from it.
                        task = job.deques[victim].pop()
                        stolen = True
                        break
                    except IndexError:
                        continue
            if task is None:
                return
            with job.lock:
                job.backlog -= 1
                depth = job.backlog
            if job.interrupt is not None and (
                job.interrupt.cancelled or job.interrupt.expired()
            ):
                # Sibling cancellation: a cancelled/over-deadline query must
                # not start queued tasks; record the skip and move on so the
                # job's accounting still completes.
                with job.lock:
                    job.errors.append(f"task {task.task_id}: QueryCancelled: skipped")
                    job.remaining -= 1
                    finished = job.remaining == 0
                if finished:
                    job.done.set()
                continue
            wait_seconds = max(0.0, time.monotonic() - task.enqueued)
            started = time.perf_counter()
            try:
                outcome = job.context.run_task(task, job.task_sink, job.interrupt)
                if job.sink.absorb_on_arrival:
                    # Deliver now (with the sink's own backpressure), keeping
                    # only the telemetry.
                    job.sink.absorb(outcome.pop("payload"))
                seconds = time.perf_counter() - started
                outcome.update(
                    worker=worker_id,
                    stolen=stolen,
                    seconds=seconds,
                    wait_seconds=wait_seconds,
                    depth=depth,
                )
                with job.lock:
                    job.outcomes.append(outcome)
                    report = job.worker_reports[worker_id]
                    report["tasks"] += 1
                    report["steals"] += int(stolen)
                    report["outputs"] += outcome["outputs"]
                    report["busy_seconds"] += seconds
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                with job.lock:
                    job.errors.append(
                        f"task {task.task_id}: {type(exc).__name__}: {exc}"
                    )
            finally:
                with job.lock:
                    job.remaining -= 1
                    finished = job.remaining == 0
                if finished:
                    job.done.set()

    def shutdown(self) -> None:
        with self._cond:
            self._stop = True
            self.broken = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)


# --------------------------------------------------------------------------- #
# Process backend: persistent workers fed through a shared task queue
# --------------------------------------------------------------------------- #


class _PoolProtocolError(ExecutionError):
    """The pool's worker protocol broke (dead worker, message out of order).

    Unlike an ordinary task failure, the pool can no longer be trusted and
    must be torn down; the registry builds a fresh one on next use.
    """


def _process_worker_main(
    worker_id, cmd_queue, task_queue, result_queue, cancel_cell
) -> None:
    """Process worker: attach columns per query, then pull tasks until done.

    Tasks sit in one shared queue tagged with a preferred owner; a worker
    executing a task dealt to a sibling records a steal.  That gives the
    dynamic balancing (and the accounting) of work stealing without
    distributed deques, which buy nothing at this task granularity.

    ``cancel_cell`` is a fork-inherited shared integer holding the highest
    *cancelled* query id: the parent bumps it when a query's deadline passes
    or its caller cancels, and every task's deadline token probes it, so
    sibling tasks abort mid-flight instead of running to completion.

    Contexts (tries/hash tables over the attached columns) are cached per
    worker under the fingerprint-derived key the parent ships in the setup
    payload; repeated queries over unchanged tables skip both the attach and
    the build.
    """
    cache = AttachmentCache()
    contexts = ContextCache()
    while True:
        try:
            message = cmd_queue.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if message[0] == "stop":
            # Drop everything that still points into the attached buffers —
            # cached contexts, then kernel programs/indexes (whose atoms keep
            # attached tables alive) — so close_all() can release every view
            # and the segments close without "exported pointers exist" noise.
            contexts.clear()
            kernel_caches_clear()
            cache.close_all()
            return
        _kind, query_id, setup = message
        context_key = setup.get("context_key")
        cache_budget = setup.get("cache_budget", 0)
        deadline_at = setup.get("deadline")
        # Per-query, never stored on the (cached) context: the same cached
        # tries can serve a grouped-aggregate query and a row query back to
        # back without cross-talk.
        task_sink = setup["task_sink"]
        context = None
        try:
            started = time.perf_counter()
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise DeadlineExceeded("query deadline passed before worker setup")
            context = contexts.get(context_key)
            cache_hit = context is not None
            if context is None:
                context = _build_worker_context(setup, cache)
                contexts.put(
                    context_key, context, setup.get("context_bytes", 0), cache_budget
                )
            result_queue.put(
                (
                    "ready",
                    query_id,
                    worker_id,
                    {
                        "setup_seconds": time.perf_counter() - started,
                        "attach_seconds": 0.0 if cache_hit else context.attach_seconds,
                        "context_cache": contexts.take_delta(),
                    },
                )
            )
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            result_queue.put(
                ("ready_error", query_id, worker_id, f"{type(exc).__name__}: {exc}")
            )
        report = _new_worker_report()

        def cancelled() -> bool:
            return cancel_cell.value >= query_id

        while True:
            task_message = task_queue.get()
            if task_message[0] == "end":
                break
            _tag, task_query_id, task = task_message
            if task_query_id != query_id or context is None:
                result_queue.put(
                    ("task_error", task_query_id, task.task_id, "worker has no context")
                )
                continue
            if cancelled():
                result_queue.put(
                    (
                        "task_error",
                        query_id,
                        task.task_id,
                        "QueryCancelled: skipped",
                    )
                )
                continue
            wait_seconds = max(0.0, time.monotonic() - task.enqueued)
            started = time.perf_counter()
            try:
                token = DeadlineToken(at=task.deadline, cancel_probe=cancelled)
                outcome = context.run_task(task, task_sink, token)
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                result_queue.put(
                    (
                        "task_error",
                        query_id,
                        task.task_id,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            seconds = time.perf_counter() - started
            stolen = task.preferred != worker_id
            report["tasks"] += 1
            report["steals"] += int(stolen)
            report["outputs"] += outcome["outputs"]
            report["busy_seconds"] += seconds
            outcome.update(
                worker=worker_id,
                stolen=stolen,
                seconds=seconds,
                wait_seconds=wait_seconds,
            )
            result_queue.put(("result", query_id, outcome))
        result_queue.put(("drained", query_id, worker_id, report))


class ProcessStealPool:
    """A persistent pool of worker processes sharing one task queue.

    Inputs reach workers through the shared-memory column plane; only plans,
    schemas and segment handles cross the command queues.  The pool survives
    across queries — workers cache attachments, so a session hammering the
    same tables attaches each segment exactly once per worker.

    Any protocol failure (a dead worker, an unexpected message) marks the
    pool broken and tears it down; the registry transparently builds a fresh
    pool on next use.
    """

    backend = "process"

    def __init__(self, workers: int) -> None:
        if workers <= 0:
            raise ExecutionError(f"worker count must be positive, got {workers}")
        # Start the shared-memory resource tracker *before* forking: workers
        # must inherit the parent's tracker, not lazily spawn private ones
        # whose caches never see the parent's unlinks (each private tracker
        # would then warn about "leaked" segments at worker exit).
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        context = _fork_context()
        self.workers = workers
        self.broken = False
        self._query_id = 0
        self._submit_lock = threading.Lock()
        self._cmd_queues = [context.SimpleQueue() for _ in range(workers)]
        self._task_queue = context.SimpleQueue()
        self._result_queue = context.Queue()
        # Highest cancelled query id, fork-inherited: the parent bumps it to
        # cancel a query's remaining tasks; workers probe it per task tick.
        # lock=False: single-word reads/writes, one writer (the parent).
        self._cancel_cell = context.Value("l", 0, lock=False)
        self._processes = [
            context.Process(
                target=_process_worker_main,
                args=(
                    index,
                    self._cmd_queues[index],
                    self._task_queue,
                    self._result_queue,
                    self._cancel_cell,
                ),
                daemon=True,
            )
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()

    def submit(
        self,
        setup: Dict[str, object],
        sink,
        tasks: List[StealTask],
        interrupt: Optional[DeadlineToken] = None,
    ):
        """Run ``tasks`` with ``setup``; returns (outcomes, worker_reports).

        ``setup`` carries ``sink.task_sink()``; every task folds into a fresh
        sink built from it, worker-side.

        Raises :class:`ExecutionError` when any task or setup failed.  Only
        *protocol* failures (a dead worker, an out-of-sequence message) mark
        the pool broken and tear it down; ordinary query errors — including
        deadline aborts and cancellations — complete the drain protocol
        cleanly, so the workers, their cached shm attachments and their
        context caches stay warm for the next query.

        ``interrupt`` is watched while the parent drains results: expiry or
        cancellation bumps the pool's cancel cell, which every in-flight
        task's deadline token probes, so sibling tasks abort mid-flight.

        A ``sink`` that declares ``absorb_on_arrival`` absorbs each task's
        payload on this (the submitting) thread as its result message
        arrives (the payload leaves the kept outcome), so consumers see
        batches while workers are still producing.  A failed absorb
        (consumer break or delivery deadline) cancels the remaining tasks
        via the cancel cell and is classified with the other task errors —
        the drain protocol still completes and the pool stays warm.  Any
        other sink is never touched here: its payloads come back in the
        outcomes for the caller to absorb in task order.
        """
        with self._submit_lock:
            if self.broken:
                raise ExecutionError("steal pool has been shut down")
            self._query_id += 1
            try:
                return self._run_query(self._query_id, setup, sink, tasks, interrupt)
            except _PoolProtocolError:
                self.broken = True
                self.shutdown()
                raise
            except ExecutionError:
                raise
            except Exception:
                self.broken = True
                self.shutdown()
                raise

    def _run_query(
        self,
        query_id: int,
        setup,
        sink,
        tasks: List[StealTask],
        interrupt: Optional[DeadlineToken] = None,
    ):
        signalled = False

        def watch_interrupt() -> None:
            # Translate caller-side token state into the fork-shared cancel
            # cell exactly once; workers then abort at their next tick.
            nonlocal signalled
            if signalled or interrupt is None:
                return
            if interrupt.cancelled or interrupt.expired():
                self._cancel_cell.value = query_id
                signalled = True

        for cmd_queue in self._cmd_queues:
            cmd_queue.put(("query", query_id, setup))
        ready: Dict[int, Optional[Dict[str, float]]] = {}
        errors: List[str] = []
        deadline_errors = False
        while len(ready) < self.workers:
            message = self._receive(hook=watch_interrupt)
            if message[0] == "ready":
                ready[message[2]] = message[3]
            elif message[0] == "ready_error":
                ready[message[2]] = None
                errors.append(f"worker {message[2]} setup failed: {message[3]}")
            else:
                raise _PoolProtocolError(
                    f"unexpected {message[0]!r} message during query setup"
                )
        expected = 0 if errors else len(tasks)
        if not errors:
            for task in tasks:
                task.enqueued = time.monotonic()
                self._task_queue.put(("task", query_id, task))
        for _ in range(self.workers):
            self._task_queue.put(("end", query_id))
        outcomes: List[Dict[str, object]] = []
        reports: Dict[int, Dict[str, object]] = {}
        delivery_failed = False
        while len(reports) < self.workers or len(outcomes) < expected:
            watch_interrupt()
            message = self._receive(hook=watch_interrupt)
            if message[0] == "result":
                outcome = message[2]
                if sink.absorb_on_arrival:
                    payload = outcome.pop("payload")
                    if not delivery_failed:
                        try:
                            sink.absorb(payload)
                        except Exception as exc:  # noqa: BLE001 - classified below
                            # The consumer went away (cancel) or delivery blew
                            # the deadline: cancel the remaining tasks and keep
                            # draining so the pool survives, but deliver
                            # nothing further.
                            delivery_failed = True
                            errors.append(
                                f"task {outcome['task_id']} delivery: "
                                f"{type(exc).__name__}: {exc}"
                            )
                            self._cancel_cell.value = query_id
                            signalled = True
                outcomes.append(outcome)
            elif message[0] == "task_error":
                errors.append(f"task {message[2]}: {message[3]}")
                expected -= 1
                if not deadline_errors and (
                    "DeadlineExceeded" in message[3] or "QueryCancelled" in message[3]
                ):
                    # The first deadline/cancel abort cancels its siblings;
                    # they drain as cheap "skipped" task errors.
                    deadline_errors = True
                    self._cancel_cell.value = query_id
                    signalled = True
            elif message[0] == "drained":
                reports[message[2]] = message[3]
            else:
                raise _PoolProtocolError(f"unexpected {message[0]!r} message")
        if errors:
            raise _classify_failure(errors, interrupt)
        for worker_id, info in ready.items():
            if info:
                reports[worker_id].update(info)
        return outcomes, reports

    def _receive(self, poll_seconds: float = 0.05, hook=None):
        while True:
            try:
                return self._result_queue.get(timeout=poll_seconds)
            except queue_module.Empty:
                if hook is not None:
                    hook()
                for process in self._processes:
                    if not process.is_alive():
                        raise _PoolProtocolError(
                            f"steal worker pid={process.pid} died "
                            f"(exitcode={process.exitcode}) mid-query"
                        ) from None

    def shutdown(self) -> None:
        self.broken = True
        for cmd_queue in self._cmd_queues:
            try:
                cmd_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for process in self._processes:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join()
        try:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover
            pass


# --------------------------------------------------------------------------- #
# Pool registry (the persistence layer)
# --------------------------------------------------------------------------- #


_POOLS: Dict[Tuple[str, int], object] = {}
_POOLS_PID = os.getpid()
_REGISTRY_LOCK = threading.Lock()

#: Parent-side context cache used by the thread and inline backends (their
#: contexts live in this process), plus a tiny plan-metadata cache that lets
#: the process backend skip the per-query cover probe/distinct count.  Both
#: are keyed by the same fingerprint-derived keys as the worker caches.
_LOCAL_CONTEXTS = ContextCache()
_LOCAL_LOCK = threading.Lock()
#: key -> (atom names, pinned pipeline stripped of its atoms, entry total)
_PLAN_CACHE: Dict[str, Tuple[Tuple[str, ...], PhysicalPipeline, int]] = {}
_PLAN_CACHE_CAPACITY = 256


def _local_context_get(key: Optional[str]):
    with _LOCAL_LOCK:
        return _LOCAL_CONTEXTS.get(key)


def _local_context_put(key: Optional[str], context, nbytes: int, budget: int) -> int:
    """Cache a parent-side context; returns evictions triggered by the put."""
    with _LOCAL_LOCK:
        before = _LOCAL_CONTEXTS.evictions
        _LOCAL_CONTEXTS.put(key, context, nbytes, budget)
        return _LOCAL_CONTEXTS.evictions - before


def _local_context_stats() -> Dict[str, int]:
    with _LOCAL_LOCK:
        return _LOCAL_CONTEXTS.snapshot()


def _plan_cache_get(key: Optional[str]):
    if key is None:
        return None
    with _LOCAL_LOCK:
        return _PLAN_CACHE.get(key)


def _plan_cache_put(key: Optional[str], value) -> None:
    if key is None:
        return
    with _LOCAL_LOCK:
        while len(_PLAN_CACHE) >= _PLAN_CACHE_CAPACITY:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _PLAN_CACHE[key] = value


def clear_context_caches() -> None:
    """Drop the parent-side context/plan caches (frees their tries).

    Worker-side caches live (and die) with their pools: a
    :func:`shutdown_pools` replaces the workers, and with them their caches.
    """
    with _LOCAL_LOCK:
        _LOCAL_CONTEXTS.clear()
        _PLAN_CACHE.clear()


def local_context_cache_stats() -> Dict[str, int]:
    """Cumulative parent-side cache counters (for tests and diagnostics)."""
    return _local_context_stats()


def get_pool(backend: str, workers: int):
    """Return the persistent pool for (backend, workers), creating on demand.

    Pools are process-wide: every session (and every concurrent query of an
    ``execute_many`` run) with the same shape reuses the same workers.  A
    forked child starts from an empty registry — it must not signal its
    parent's workers.
    """
    global _POOLS_PID
    with _REGISTRY_LOCK:
        if _POOLS_PID != os.getpid():
            _POOLS.clear()
            _POOLS_PID = os.getpid()
        key = (backend, workers)
        pool = _POOLS.get(key)
        if pool is None or pool.broken:
            if backend == "thread":
                pool = ThreadStealPool(workers)
            elif backend == "process":
                pool = ProcessStealPool(workers)
            else:
                raise ExecutionError(f"unknown steal backend {backend!r}")
            _POOLS[key] = pool
        return pool


def active_pools() -> Dict[Tuple[str, int], object]:
    """Snapshot of the live pools (for tests and diagnostics)."""
    with _REGISTRY_LOCK:
        if _POOLS_PID != os.getpid():
            return {}
        return {key: pool for key, pool in _POOLS.items() if not pool.broken}


def shutdown_pools() -> None:
    """Shut every persistent pool down (threads joined, processes reaped)."""
    global _POOLS_PID
    with _REGISTRY_LOCK:
        if _POOLS_PID != os.getpid():
            _POOLS.clear()
            _POOLS_PID = os.getpid()
            return
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


# --------------------------------------------------------------------------- #
# Driving one query through the scheduler
# --------------------------------------------------------------------------- #


@dataclass
class _StealRun:
    """Everything :func:`run_pipeline_steal` hands to :func:`_drive`."""

    tasks: List[StealTask]
    workers: int
    backend: str
    context_factory: Callable[[], object]
    setup_factory: Callable[[], Dict[str, object]]
    #: The query's sink: tasks fold into its ``task_sink()``s and it absorbs
    #: their payloads — on arrival or after the drain, as it declares.
    sink: object
    build_seconds: float = 0.0
    interrupt: Optional[DeadlineToken] = None
    extra: Dict[str, object] = field(default_factory=dict)


def _short_circuit(workers: int, build_seconds: float) -> ShardedRunResult:
    """An empty/zero-key cover: no worker is woken, the sink stays untouched."""
    return ShardedRunResult(
        stats={},
        build_seconds=build_seconds,
        join_seconds=0.0,
        mode="inline",
        shard_count=workers,
        shard_details=[],
        extra={
            "tasks": 0,
            "steals": 0,
            "workers": 0,
            "queue": {"submitted": 0},
            "attach_seconds": 0.0,
            "short_circuit": True,
        },
    )


def _drive(run: _StealRun) -> ShardedRunResult:
    effective = min(run.workers, len(run.tasks))
    assign_preferred(run.tasks, effective)
    sink = run.sink
    join_started = time.perf_counter()
    if len(run.tasks) == 1:
        # One task cannot balance anything: run it inline, skip the pool.
        outcome = run.context_factory().run_task(run.tasks[0], sink.task_sink(), run.interrupt)
        if sink.absorb_on_arrival:
            sink.absorb(outcome.pop("payload"))
        outcome.update(worker=0, stolen=False, wait_seconds=0.0)
        outcome["seconds"] = time.perf_counter() - join_started
        report = _new_worker_report()
        report["tasks"] = 1
        report["outputs"] = outcome["outputs"]
        report["busy_seconds"] = outcome["seconds"]
        outcomes, reports = [outcome], {0: report}
        backend_label = "inline"
    elif run.backend == "thread":
        pool = get_pool("thread", effective)
        outcomes, reports = pool.submit(run.context_factory(), sink, run.tasks, run.interrupt)
        backend_label = "thread"
    else:
        pool = get_pool("process", effective)
        outcomes, reports = pool.submit(run.setup_factory(), sink, run.tasks, run.interrupt)
        backend_label = "process"
    join_seconds = time.perf_counter() - join_started
    return _merge(run, outcomes, reports, backend_label, join_seconds)


def _merge(
    run: _StealRun,
    outcomes: List[Dict[str, object]],
    reports: Dict[int, Dict[str, object]],
    backend_label: str,
    join_seconds: float,
) -> ShardedRunResult:
    """Merge task outcomes in task order (serial order parity; see module doc).

    A sink that did not absorb on arrival absorbs here: after the drain, in
    task order, on the submitting thread.
    """
    outcomes.sort(key=lambda outcome: outcome["task_id"])
    stats: Dict[str, int] = {}
    for outcome in outcomes:
        if not run.sink.absorb_on_arrival:
            run.sink.absorb(outcome.pop("payload"))
        kernel_merge_stats(stats, outcome.get("stats"))

    per_shard = [
        {"shard": worker_id, **report} for worker_id, report in sorted(reports.items())
    ]
    waits = [outcome.get("wait_seconds", 0.0) for outcome in outcomes]
    queue_stats: Dict[str, object] = {
        "submitted": len(run.tasks),
        "wait_seconds_max": max(waits, default=0.0),
        "wait_seconds_mean": (sum(waits) / len(waits)) if waits else 0.0,
    }
    # Depths are sampled at dequeue time; only the thread backend measures
    # them (the process task queue has no cheap depth probe), so the keys are
    # present only when they are real measurements.
    depths = [outcome["depth"] for outcome in outcomes if "depth" in outcome]
    if depths:
        queue_stats["depth_max"] = max(depths)
        queue_stats["depth_mean_at_dequeue"] = sum(depths) / len(depths)
    setup_max = max(
        (report.get("setup_seconds", 0.0) for report in reports.values()), default=0.0
    )
    attach_max = max(
        (report.get("attach_seconds", 0.0) for report in reports.values()), default=0.0
    )
    kernel_stats = kernel_new_stats()
    kernel_fallbacks: List[str] = []
    for outcome in outcomes:
        kernel_merge_stats(kernel_stats, outcome.get("kernels"))
        reason = outcome.get("kernel_fallback")
        if reason:
            kernel_fallbacks.append(reason)
    extra = {
        "tasks": len(run.tasks),
        "steals": sum(report["steals"] for report in reports.values()),
        "workers": len(reports),
        "queue": queue_stats,
        "attach_seconds": attach_max,
        "short_circuit": False,
        "kernels_stats": kernel_stats,
        "kernels_fallbacks": kernel_fallbacks,
    }
    stream = run.sink.stats()
    if stream:
        extra["stream"] = stream
    cache_deltas = [
        report.pop("context_cache")
        for report in reports.values()
        if isinstance(report.get("context_cache"), dict)
    ]
    if cache_deltas:
        # One delta per worker for this query: sum the activity counters,
        # report the occupancy of the fullest worker cache.
        extra["context_cache"] = {
            "hits": sum(delta.get("hits", 0) for delta in cache_deltas),
            "misses": sum(delta.get("misses", 0) for delta in cache_deltas),
            "evictions": sum(delta.get("evictions", 0) for delta in cache_deltas),
            "entries": max(delta.get("entries", 0) for delta in cache_deltas),
            "bytes": max(delta.get("bytes", 0) for delta in cache_deltas),
        }
    extra.update(run.extra)
    return ShardedRunResult(
        stats=stats,
        build_seconds=run.build_seconds + setup_max,
        join_seconds=join_seconds,
        mode=backend_label,
        shard_count=run.workers,
        shard_details=per_shard,
        extra=extra,
    )


def _atom_specs(atoms: Sequence[Atom]) -> List[Tuple[str, Tuple[str, ...], ShmTableHandle]]:
    """Export every atom's table and return pickle-able (name, vars, handle)."""
    return [(atom.name, atom.variables, export_table(atom.table)) for atom in atoms]


def _context_bytes_estimate(atoms: Sequence[Atom]) -> int:
    """Approximate footprint of a context built over ``atoms``' tables.

    Tries/hash tables hold the key values plus per-node overhead; the input
    column payload times :data:`~repro.parallel.context_cache.CONTEXT_BYTES_FACTOR`
    is a serviceable proxy for cache budgeting (it is an estimate, not
    accounting — see :mod:`repro.parallel.context_cache`).
    """
    return CONTEXT_BYTES_FACTOR * sum(atom.table.approx_bytes() for atom in atoms)


# --------------------------------------------------------------------------- #
# The public entry point
# --------------------------------------------------------------------------- #


def run_pipeline_steal(
    pipeline: PhysicalPipeline,
    sink,
    *,
    workers: int = 2,
    mode: str = "auto",
    kernels_off: Optional[str] = None,
    interrupt: Optional[DeadlineToken] = None,
) -> ShardedRunResult:
    """Run one lowered pipeline into ``sink`` through the work-stealing scheduler.

    The pipeline's row path fixes what task ranges address
    (:meth:`~repro.engine.pipeline.RowPath.plan_tasks`), the entry total is
    decomposed into tasks, and every task is one
    :func:`~repro.engine.pipeline.run_range` call in whichever worker gets to
    it, into a fresh ``sink.task_sink()``; ``sink`` absorbs the tasks'
    payloads (see the module docstring) and the caller reads
    ``sink.result()`` — what comes back from here is accounting only.  An
    empty root cover short-circuits without waking a worker or touching the
    sink.  ``kernels_off`` is the query's kernels-disabled reason, decided
    once in the parent: every worker of this run executes the same path
    regardless of when it forked; a pipeline the kernels never claim
    (``skip_kernels``) is set up the same way, since every task of it will
    need the row path.

    Repeated queries over unchanged tables hit the fingerprint-keyed context
    cache: the thread/inline backends reuse a parent-side context (state
    built, task plan pinned), the process backend skips the parent's task
    planning via the plan cache while each worker reuses its own cached
    context, skipping attach and build entirely.
    """
    kernels_off = kernels_off or pipeline.skip_kernels
    atoms = {atom.name: atom for atom in pipeline.atoms}
    backend = _steal_backend(
        mode, workers, sum(atom.size for atom in pipeline.atoms)
    )
    # Thread workers (and the inline single task) run over one context in
    # this process; process workers build their own from attached columns.
    shared = backend != "process"
    budget = context_cache_budget()
    cache_key = None
    if budget > 0:
        cache_key = context_cache_key(
            pipeline.row_path.name,
            atoms,
            pipeline.key_parts(),
            kernels_off is None,
        )
    nbytes = _context_bytes_estimate(pipeline.atoms)
    telemetry = {"hits": 0, "misses": 0, "evictions": 0}

    build_started = time.perf_counter()
    state = None
    context = _local_context_get(cache_key) if shared else None
    planned = None if shared else _plan_cache_get(cache_key)
    if context is not None:
        telemetry["hits"] = 1
        pipeline, entry_total = context.pipeline, context.entry_total
    elif planned is not None:
        # The plan cache holds descriptions only; re-attach this query's atoms.
        names, pipeline, entry_total = planned
        pipeline = replace(pipeline, atoms=[atoms[name] for name in names])
    else:
        telemetry["misses"] = int(shared and cache_key is not None)
        state = PipelineState(pipeline.row_path, pipeline.atoms)
        pipeline, entry_total = pipeline.row_path.plan_tasks(
            pipeline, state, shared and kernels_off is not None
        )
        if not shared:
            names = tuple(atom.name for atom in pipeline.atoms)
            _plan_cache_put(
                cache_key, (names, replace(pipeline, atoms=[]), entry_total)
            )
    build_seconds = time.perf_counter() - build_started

    tasks = decompose_entries(entry_total, workers)
    if not tasks:
        return _short_circuit(workers, build_seconds)
    if interrupt is not None and interrupt.at is not None:
        for task in tasks:
            task.deadline = interrupt.at

    def context_factory():
        nonlocal context
        if context is None:
            context = _TaskContext(pipeline, entry_total, kernels_off, state)
            if kernels_off:
                # Every task will need the row path: build it once, here,
                # not racily in whichever workers start first.
                context.state.get(interrupt)
            telemetry["evictions"] += _local_context_put(
                cache_key, context, nbytes, budget
            )
        return context

    def setup_factory():
        return {
            "pipeline": replace(pipeline, atoms=[]),
            "atoms": _atom_specs(pipeline.atoms),
            "entry_total": entry_total,
            "task_sink": sink.task_sink(),
            "kernels_off": kernels_off,
            "context_key": cache_key,
            "context_bytes": nbytes,
            "cache_budget": budget,
            "deadline": interrupt.at if interrupt is not None else None,
        }

    extra: Dict[str, object] = {}
    if cache_key is not None and (shared or len(tasks) == 1):
        # Parent-side telemetry: thread/inline backends always, and the
        # process backend's single-task inline fallback (which runs its
        # context parent-side, so worker deltas never arrive).
        extra["context_cache"] = telemetry
    return _drive(
        _StealRun(
            tasks=tasks,
            workers=workers,
            backend=backend,
            context_factory=context_factory,
            setup_factory=setup_factory,
            sink=sink,
            build_seconds=build_seconds,
            interrupt=interrupt,
            extra=extra,
        )
    )
