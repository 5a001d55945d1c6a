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
* tasks are dealt to workers in contiguous blocks and fed, in task order,
  into **one shared queue** that every worker pulls from; a worker that runs
  a task dealt to a sibling records a *steal*, so a block of hot tasks ends
  up spread across the pool instead of serializing on its owner;
* workers are **persistent** — one :class:`StealPool` per (backend, worker
  count) is kept for the life of the process and reused across queries (the
  concurrent queries of one
  :meth:`~repro.engine.session.Database.execute_many` run share it too:
  they run on threads of the caller's process), so repeated queries pay no
  pool spin-up;
* the two backends run one protocol (a command queue per worker, the shared
  task queue, one result queue, one cancel cell) and differ only in how
  workers start, what a query's setup carries and what a worker drops on
  ``"stop"``.  Thread workers share the query's one task context, so a trie
  is built once.  Forked process workers receive their inputs through the
  shared-memory column plane (:mod:`repro.storage.shm`): a query ships only
  a plan and a handful of segment handles, workers attach the columns
  zero-copy and build their tries lazily, forcing only the parts their
  tasks actually touch.

**Deadlines and cancellation** are layered on top: tasks carry an absolute
monotonic deadline and every executor ticks a :class:`DeadlineToken` at
trie-expansion boundaries, so an over-budget or cancelled query aborts
*mid-flight* (raising ``DeadlineExceeded``/``QueryCancelled``) and its
sibling tasks are cancelled promptly: the parent bumps the pool's cancel
cell, which every task's token probes.  A deadline abort completes the
drain protocol cleanly, so the pool (and its caches) stays warm; a worker
that dies — a process killed, a thread ended by a ``BaseException`` — is
a protocol failure that tears the pool down for a fresh one.

**The scheduler caches nothing of its own.**  Every parallel query plans
its tasks once, in the parent, and builds task contexts that live for that
query only: one shared context on the thread and inline paths, one per
worker on the process path.  What makes a repeated query over unchanged
tables cheap is the kernels' content-keyed program and index caches
(:mod:`repro.kernels`), which live per process — the parent's serve the
thread and inline paths, each process worker keeps its own — plus each
process worker's shm attachment LRU.

**The scheduler is content-blind.**  What a task produces, and how it gets
back into the query's sink, is the sink's business
(:mod:`repro.engine.output`, "One transport"): every task folds into a fresh
sink built from ``sink.task_sink()`` — a picklable recipe, shipped per query
and never stored on a context — the task's outcome carries that
sink's ``payload()`` as its one content key, and the parent sink takes it
in with ``absorb()``, always on the submitting thread.  A sink that declares
``absorb_on_arrival`` (the streaming sinks, the aggregate sinks) absorbs as
each result message arrives, so a consumer sees a first batch — or a
``GROUP BY`` delta per merged partial — while sibling tasks still run, and a
failed delivery cancels the rest; every other sink absorbs after the drain,
in task order.

Per-task and per-worker accounting (steal counts, queue waits, attach
times, and the sink's own telemetry under ``stream``) is merged into the run's
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
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.pipeline import PhysicalPipeline, PipelineState, run_range
from repro.errors import DeadlineExceeded, ExecutionError, QueryCancelled
from repro.kernels import (
    kernel_caches_clear,
    merge_stats as kernel_merge_stats,
    new_stats as kernel_new_stats,
)
from repro.parallel.cancellation import DeadlineToken
from repro.query.atoms import Atom
from repro.storage.shm import AttachmentCache, ShmTableHandle, export_table

#: Below this many total input tuples, ``mode="auto"`` uses threads: the
#: fork/pickle/rebuild overhead of process workers would dominate the join.
PROCESS_INPUT_THRESHOLD = 20_000


def resolve_mode(mode: str, shard_count: int, input_tuples: int) -> str:
    """Resolve a parallel mode into the worker backend, ``process`` or ``thread``.

    ``auto`` picks threads for small inputs: forking workers, attaching the
    tables and building per worker costs more than the join saves.  Without
    fork every mode resolves to threads — an explicit ``"process"`` too: the
    process pool relies on fork-inherited state (the cancel cell, the
    queues), and the shm column plane on forked workers sharing the
    exporter's ``resource_tracker`` (a *spawned* worker runs its own, which
    would unlink the parent's still-live segments when the worker exits).
    """
    if mode not in ("auto", "process", "thread"):
        raise ExecutionError(
            f"unknown parallel mode {mode!r}; choose 'auto', 'process' or 'thread'"
        )
    if mode == "thread" or "fork" not in multiprocessing.get_all_start_methods():
        return "thread"
    if mode == "process":
        return mode
    if shard_count <= 1 or input_tuples < PROCESS_INPUT_THRESHOLD:
        return "thread"
    if (multiprocessing.cpu_count() or 1) <= 1:
        # One core: processes only add fork/transfer overhead on top of the
        # same serialized CPU time.
        return "thread"
    return "process"


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

    The deal fixes what counts as a steal: workers pull from one queue in
    task order, and a task run by any worker but its dealt owner is stolen.
    """
    total = len(tasks)
    for task in tasks:
        task.preferred = min(task.task_id * workers // total, workers - 1)


# --------------------------------------------------------------------------- #
# Worker-side task contexts (shared by the thread and process backends)
# --------------------------------------------------------------------------- #


class _TaskContext:
    """One query's state of one pipeline, shared by the tasks a worker runs.

    The pinned pipeline description (what task ranges address), its
    row-path state (built on first use — kernel-serving workers never need
    it) and, in process workers, the shared-memory attachments the atoms'
    columns point into, pinned until the query ends.
    """

    def __init__(
        self,
        pipeline: PhysicalPipeline,
        kernels_off: Optional[str],
        state: Optional[PipelineState] = None,
        attachments: Tuple = (),
        attach_seconds: float = 0.0,
    ) -> None:
        self.pipeline = pipeline
        self.kernels_off = kernels_off
        self.state = state or PipelineState(pipeline.row_path, pipeline.atoms)
        self.attachments = attachments
        self.attach_seconds = attach_seconds

    def run_task(
        self, task: StealTask, task_sink, interrupt: Optional[DeadlineToken] = None
    ) -> Dict[str, object]:
        """Run one task into a fresh ``task_sink()``; package its outcome.

        ``task_sink`` is the query sink's recipe.  The outcome's one content
        key is the task sink's ``payload``; the rest is telemetry
        (``outputs``: the join cardinality the task produced).
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
    Ownership of the pins passes to the built context, which holds them
    until the query ends; on failure the caller unpins via
    :func:`_unpin_attachments`.
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
    point into, which exempts them from the attachment LRU until the worker
    unpins them at the query's end.  Kernel-serving workers defer the
    row-path build to the first task that actually needs it (if any); with
    kernels off it is setup work.
    """
    started = time.perf_counter()
    atoms, attachments = _attach_atoms(setup["atoms"], cache)
    context = _TaskContext(
        replace(setup["pipeline"], atoms=atoms),
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
# The steal pool: persistent workers fed through one shared task queue
# --------------------------------------------------------------------------- #


class _PoolProtocolError(ExecutionError):
    """The pool's worker protocol broke (dead worker, message out of order).

    Unlike an ordinary task failure, the pool can no longer be trusted and
    must be torn down; the registry builds a fresh one on next use.
    """


def _new_worker_report() -> Dict[str, object]:
    return {
        "tasks": 0,
        "steals": 0,
        "outputs": 0,
        "busy_seconds": 0.0,
        "attach_seconds": 0.0,
        "setup_seconds": 0.0,
    }


def _worker_main(
    worker_id, cmd_queue, task_queue, result_queue, cancel_cell, isolated
) -> None:
    """Steal worker: take a query's context, then pull tasks until its end.

    Tasks sit in one shared queue tagged with a preferred owner; a worker
    executing a task dealt to a sibling records a steal.  That gives the
    dynamic balancing (and the accounting) of work stealing without
    distributed deques, which buy nothing at this task granularity.

    ``cancel_cell.value`` is the highest *cancelled* query id: the parent
    bumps it when a query's deadline passes or its caller cancels, and every
    task's deadline token probes it, so sibling tasks abort mid-flight
    instead of running to completion.

    An ``isolated`` (process) worker attaches each query's atoms (re-using
    its cached attachments) and builds one context that lives until the
    query's ``"end"``; the kernels' program and index caches, which live per
    process, are what a repeated query over unchanged tables hits.  A thread
    worker takes the query's one shared context from the setup and shares
    the parent's caches, so it leaves them alone on ``"stop"``.
    """
    cache = AttachmentCache() if isolated else None
    while True:
        try:
            message = cmd_queue.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if message[0] == "stop":
            if isolated:
                # Drop the kernel programs/indexes (whose atoms keep attached
                # tables alive) so close_all() can release every view and the
                # segments close without "exported pointers exist" noise.
                kernel_caches_clear()
                cache.close_all()
            return
        _kind, query_id, setup = message
        context = None
        try:
            started = time.perf_counter()
            if setup["deadline"] is not None and time.monotonic() >= setup["deadline"]:
                raise DeadlineExceeded("query deadline passed before worker setup")
            context = (
                _build_worker_context(setup, cache) if isolated else setup["context"]
            )
            result_queue.put(
                (
                    "ready",
                    query_id,
                    worker_id,
                    {
                        "setup_seconds": time.perf_counter() - started,
                        "attach_seconds": context.attach_seconds,
                    },
                )
            )
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            result_queue.put(
                ("ready_error", query_id, worker_id, f"{type(exc).__name__}: {exc}")
            )
        try:
            report = _drain_tasks(
                worker_id, query_id, context, setup["task_sink"], task_queue,
                result_queue, cancel_cell,
            )
        finally:
            if context is not None:
                _unpin_attachments(context.attachments)
        result_queue.put(("drained", query_id, worker_id, report))


def _drain_tasks(
    worker_id, query_id, context, task_sink, task_queue, result_queue, cancel_cell
) -> Dict[str, object]:
    """Run one query's tasks from the shared queue until its ``"end"``."""
    report = _new_worker_report()

    def cancelled() -> bool:
        return cancel_cell.value >= query_id

    while True:
        task_message = task_queue.get()
        if task_message[0] == "end":
            return report
        _tag, task_query_id, task = task_message
        if task_query_id != query_id or context is None:
            result_queue.put(
                ("task_error", task_query_id, task.task_id, "worker has no context")
            )
            continue
        if cancelled():
            result_queue.put(
                ("task_error", query_id, task.task_id, "QueryCancelled: skipped")
            )
            continue
        wait_seconds = max(0.0, time.monotonic() - task.enqueued)
        started = time.perf_counter()
        try:
            token = DeadlineToken(at=task.deadline, cancel_probe=cancelled)
            outcome = context.run_task(task, task_sink, token)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            result_queue.put(
                ("task_error", query_id, task.task_id, f"{type(exc).__name__}: {exc}")
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


class StealPool:
    """A persistent pool of steal workers sharing one task queue.

    ``backend`` says what a worker is; the protocol is the same for both.
    Thread workers (``"thread"``) run in this process over the query's one
    task context, so a trie or hash table is built once and shared; under
    CPython the GIL serializes the join work itself.  Process workers
    (``"process"``, forked) receive their inputs through the shared-memory
    column plane: only plans, schemas and segment handles cross the command
    queues, and each worker caches its attachments (and the kernels'
    programs and indexes), so a session hammering the same tables attaches
    each segment once per worker, until the attachment LRU evicts it.

    Any protocol failure (a dead worker, an unexpected message) marks the
    pool broken and tears it down; the registry transparently builds a fresh
    pool on next use.
    """

    def __init__(self, backend: str, workers: int) -> None:
        if backend not in ("thread", "process"):
            raise ExecutionError(f"unknown steal backend {backend!r}")
        if workers <= 0:
            raise ExecutionError(f"worker count must be positive, got {workers}")
        self.backend = backend
        self.workers = workers
        self.broken = False
        self._query_id = 0
        self._submit_lock = threading.Lock()
        if backend == "thread":
            self._cmd_queues = [queue_module.SimpleQueue() for _ in range(workers)]
            self._task_queue = queue_module.SimpleQueue()
            self._result_queue = queue_module.SimpleQueue()
            # One writer (the parent) and plain attribute reads.
            self._cancel_cell = SimpleNamespace(value=0)
            spawn = threading.Thread
        else:
            # Start the shared-memory resource tracker *before* forking:
            # workers must inherit the parent's tracker, not lazily spawn
            # private ones whose caches never see the parent's unlinks (each
            # private tracker would then warn about "leaked" segments at
            # worker exit).
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker internals vary
                pass
            context = multiprocessing.get_context("fork")
            self._cmd_queues = [context.SimpleQueue() for _ in range(workers)]
            self._task_queue = context.SimpleQueue()
            self._result_queue = context.Queue()
            # Fork-inherited; lock=False: single-word reads/writes, one
            # writer (the parent).
            self._cancel_cell = context.Value("l", 0, lock=False)
            spawn = context.Process
        self._workers = [
            spawn(
                target=_worker_main,
                args=(
                    index,
                    self._cmd_queues[index],
                    self._task_queue,
                    self._result_queue,
                    self._cancel_cell,
                    backend == "process",
                ),
                name=f"repro-steal-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    def submit(
        self,
        setup: Dict[str, object],
        sink,
        tasks: List[StealTask],
        interrupt: Optional[DeadlineToken] = None,
    ):
        """Run ``tasks`` with ``setup``; returns (outcomes, worker_reports).

        ``setup`` carries ``sink.task_sink()``, every task folds into a fresh
        sink built from it, worker-side, and what a worker runs the tasks
        over: the shared context (thread) or the pipeline and atom segment
        handles it attaches (process).

        Raises :class:`ExecutionError` when any task or setup failed.  Only
        *protocol* failures (a dead worker, an out-of-sequence message) mark
        the pool broken and tear it down; ordinary query errors — including
        deadline aborts and cancellations — complete the drain protocol
        cleanly, so the workers and their caches stay warm for the next
        query.

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
                self.shutdown()
                raise
            except ExecutionError:
                raise
            except Exception:
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
                for worker in self._workers:
                    if not worker.is_alive():
                        raise _PoolProtocolError(
                            f"steal worker {worker.name} died mid-query"
                        ) from None

    def shutdown(self) -> None:
        self.broken = True
        # Abort whatever is still in flight: a torn-down thread worker cannot
        # be terminated, only told to stop at its next tick.
        self._cancel_cell.value = self._query_id
        for cmd_queue in self._cmd_queues:
            try:
                cmd_queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for worker in self._workers:
            worker.join(timeout=1.0)
            if self.backend == "thread" or not worker.is_alive():
                continue
            worker.terminate()
            worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - stuck in kernel
                worker.kill()
                worker.join()
        if self.backend == "process":
            try:
                self._result_queue.close()
                self._result_queue.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass


# --------------------------------------------------------------------------- #
# Pool registry (the persistence layer)
# --------------------------------------------------------------------------- #


_POOLS: Dict[Tuple[str, int], StealPool] = {}
_POOLS_PID = os.getpid()
_REGISTRY_LOCK = threading.Lock()


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
            pool = StealPool(backend, workers)
            _POOLS[key] = pool
        return pool


def active_pools() -> Dict[Tuple[str, int], StealPool]:
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
    #: The inline task's context.
    context_factory: Callable[[], _TaskContext]
    #: The pool's query setup (see :meth:`StealPool.submit`).
    setup_factory: Callable[[], Dict[str, object]]
    #: The query's sink: tasks fold into its ``task_sink()``s and it absorbs
    #: their payloads — on arrival or after the drain, as it declares.
    sink: object
    build_seconds: float = 0.0
    interrupt: Optional[DeadlineToken] = None


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
    else:
        pool = get_pool(run.backend, effective)
        outcomes, reports = pool.submit(run.setup_factory(), sink, run.tasks, run.interrupt)
        backend_label = run.backend
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

    The tasks are planned once, here, and their contexts live for this query
    only; a repeated query over unchanged tables is served by the kernels'
    content-keyed program and index caches, per process.
    """
    kernels_off = kernels_off or pipeline.skip_kernels
    backend = resolve_mode(mode, workers, sum(atom.size for atom in pipeline.atoms))
    # Thread workers (and the inline single task) run over one context in
    # this process; process workers build their own from attached columns.
    shared = backend != "process"

    build_started = time.perf_counter()
    state = PipelineState(pipeline.row_path, pipeline.atoms)
    pipeline, entry_total = pipeline.row_path.plan_tasks(
        pipeline, state, shared and kernels_off is not None
    )
    build_seconds = time.perf_counter() - build_started

    tasks = decompose_entries(entry_total, workers)
    if not tasks:
        return _short_circuit(workers, build_seconds)
    if interrupt is not None and interrupt.at is not None:
        for task in tasks:
            task.deadline = interrupt.at

    def context_factory():
        context = _TaskContext(pipeline, kernels_off, state)
        if kernels_off:
            # Every task will need the row path: build it once, here, not
            # racily in whichever workers start first.
            context.state.get(interrupt)
        return context

    def setup_factory():
        setup = {
            "task_sink": sink.task_sink(),
            "deadline": interrupt.at if interrupt is not None else None,
        }
        if shared:
            setup["context"] = context_factory()
        else:
            setup.update(
                pipeline=replace(pipeline, atoms=[]),
                atoms=_atom_specs(pipeline.atoms),
                kernels_off=kernels_off,
            )
        return setup

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
        )
    )
