"""One physical pipeline driver: what every plan policy lowers to.

Binary join, Generic Join and Free Join are points in one plan space run by
one algorithm (the paper's thesis, Figure 9), and on the production path
they differ only in *policy*: which atom drives a pipeline, how a bushy plan
decomposes, and which paper algorithm is the row-at-a-time reference.  An
engine therefore *lowers* each pipeline of its plan to a
:class:`PhysicalPipeline` — ordered atoms with the driver first, output
variables, what a task range addresses, and a picklable :class:`RowPath`
wrapping the engine's own algorithm — and this module owns everything
around it:

* :func:`run_range` is the only place outside :mod:`repro.kernels` that
  compiles and executes a kernel program, catches
  :class:`~repro.kernels.KernelFrontierExplosion`, and falls back to the row
  path.  The serial plan loop calls it over the full range, the steal
  scheduler's task context over one task's range.
* :func:`run_plan` is the one plan loop behind every ``Engine.run``:
  resolve → pick the pipeline's sink → lower → serial :func:`run_range` or
  :func:`repro.parallel.scheduler.run_pipeline_steal` into that sink →
  ``sink.result()`` → materialize intermediates (:func:`result_table`, the
  one build of a ``Table`` from a join result, which also builds a plain
  SELECT's result table: the kernels' numeric gathers stay packed and no
  row tuple is built) → assemble the
  :class:`~repro.engine.report.RunReport` with ``details["output"]``,
  ``details["kernels"]``, ``details["intermediates"]`` (bushy plans only)
  and ``details["parallel"]`` (parallel runs only).
  It also decides what each pipeline *emits* (late materialization): the
  final one only the variables the caller reads after the join, a
  non-final one only the columns something outside it still reads.

``REPRO_KERNELS`` is read once per query, here, and the answer rides with
the pipeline to every worker.  *How* a run executes — worker count, worker
backend, deadline — arrives as one :class:`RunContext`, resolved once by the
session; the engines' options objects say only *what plan* to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.engine.output import CountSink, FactorizedSink, OutputSink, RowSink
from repro.engine.report import RunReport
from repro.errors import PlanError
from repro.query.atoms import Atom
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.output import JoinResult
    from repro.parallel.cancellation import DeadlineToken

_SINKS = {"rows": RowSink, "count": CountSink, "factorized": FactorizedSink}


def make_sink(output: str, variables: Sequence[str]) -> OutputSink:
    """Create the sink an options object's ``output`` names.

    Called by :func:`run_plan`, and by
    :meth:`~repro.engine.session.Database.run_join` for a sink it must wrap:
    from there on the sink *is* the output mode, and this is the one place
    an unknown name is rejected.
    """
    try:
        return _SINKS[output](variables)
    except KeyError:
        raise PlanError(f"unknown output mode {output!r}") from None


@dataclass(frozen=True)
class RunContext:
    """How one run executes and what it emits; the same on every plan policy.

    :meth:`repro.engine.session.Database.run_join` builds one per query from
    what the ``ExecOptions``, the router's decision, the session defaults
    and the query's SELECT list resolve to; callers driving an engine
    directly pass their own.  The default is a serial run with no deadline
    that emits the query's full head.
    """

    #: Intra-query workers.  Above 1, every pipeline is decomposed into
    #: tasks for the persistent work-stealing pool
    #: (:mod:`repro.parallel.scheduler`) — except a final pipeline whose
    #: options ask for factorized output, which runs serially.
    workers: int = 1
    #: Backend: ``"process"`` (a pool of forked workers), ``"thread"`` (the
    #: tasks run inline, one after another, on the calling thread) or
    #: ``"auto"`` (processes for large inputs, inline for small ones).
    parallel_mode: str = "auto"
    #: Ticked at every kernel chunk, trie expansion and probe row, and pushed
    #: into steal workers, so an expired or cancelled query aborts
    #: mid-execution with ``DeadlineExceeded`` / ``QueryCancelled``.
    deadline: Optional[DeadlineToken] = None
    #: The variables the caller reads after the join
    #: (:meth:`~repro.query.planner.LogicalQuery.needed_variables`): all the
    #: final pipeline emits.  ``None``: the query's full head.
    output_variables: Optional[Tuple[str, ...]] = None


class RowPath:
    """An engine's paper algorithm, behind the interface the driver runs.

    Instances are created per query by the engine's ``lower()`` and must
    pickle: the steal scheduler ships them to process workers inside the
    pipeline description.
    """

    def build(self, atoms: Sequence[Atom], interrupt=None):
        """Build the algorithm's state (tries, hash tables) over ``atoms``."""
        raise NotImplementedError

    def run(
        self, state, sink: OutputSink, start, stop, interrupt, factorize=False
    ) -> Optional[Dict[str, int]]:
        """Run entries ``[start, stop)`` (``None`` bounds: everything) into ``sink``.

        Returns the algorithm's work counters, if it keeps any.
        """
        raise NotImplementedError

    def plan_tasks(
        self, pipeline: "PhysicalPipeline", state: "PipelineState"
    ) -> Tuple["PhysicalPipeline", int]:
        """Fix what steal task ranges address: ``(pipeline, entry_total)``.

        Called once per parallel query, in the parent.  The returned
        pipeline is the one every task runs.
        """
        raise NotImplementedError


@dataclass
class PhysicalPipeline:
    """One left-deep pipeline as the driver sees it: what ``lower()`` decided."""

    #: Driver first, then the probed atoms in plan order.
    atoms: List[Atom]
    output_variables: Tuple[str, ...]
    row_path: RowPath
    #: What a task range addresses: distinct driver groups over this variable
    #: prefix in first-occurrence order, or plain driver rows (``None``).
    group_vars: Optional[Tuple[str, ...]] = None
    #: Whether probes that feed nothing downstream fold into multiplicities.
    compress: bool = True
    #: Why the kernels never claim this pipeline (``None``: they may).
    skip_kernels: Optional[str] = None


class PipelineState:
    """A row path's built state, built on first use.

    Kernel-served runs never need it, so neither the serial loop nor a
    kernel-serving steal worker pays for tries or hash tables unless a range
    actually falls back.
    """

    def __init__(self, row_path: RowPath, atoms: Sequence[Atom]) -> None:
        self._row_path = row_path
        self._atoms = atoms
        self._built = None
        self.build_seconds = 0.0

    def get(self, interrupt=None):
        if self._built is None:
            started = time.perf_counter()
            self._built = self._row_path.build(self._atoms, interrupt)
            self.build_seconds += time.perf_counter() - started
        return self._built


def compile_range(
    pipeline: PhysicalPipeline, grouped: bool, stats: Dict[str, int]
) -> "kernels.KernelProgram":
    """Compile ``pipeline``'s kernel program, counted in ``stats["programs"]``.

    ``grouped`` addresses driver groups (steal task ranges), else plain
    driver rows (a full run).  Raises :class:`~repro.kernels.KernelCompileError`
    when the kernels cannot run the pipeline.
    """
    program = kernels.compile_program(
        pipeline.atoms[0],
        pipeline.atoms[1:],
        pipeline.output_variables,
        group_vars=pipeline.group_vars if grouped else None,
        compress=pipeline.compress,
    )
    stats["programs"] += 1
    return program


def run_range(
    pipeline: PhysicalPipeline,
    state: PipelineState,
    sink: OutputSink,
    span: Optional[Tuple[int, int]],
    interrupt,
    stats: Dict[str, int],
    kernels_off: Optional[str] = None,
    factorize: bool = False,
    program: Optional["kernels.KernelProgram"] = None,
) -> Tuple[Optional[Dict[str, int]], Optional[str]]:
    """Run one range of ``pipeline`` into ``sink``: kernels, else the row path.

    ``span`` is a steal task's ``(start, stop)`` and ``None`` for the whole
    pipeline; a full run needs no group addressing, so it compiles the
    plain row-addressed program.  ``program`` is one already compiled for
    the span's addressing (a steal task context compiles once per query);
    without it the range compiles its own.  ``kernels_off`` is the
    per-query reason the vectorized path is disabled, if it is.
    ``factorize`` lets the *row path* emit factorized groups; the kernels
    factorize whenever the sink accepts it.  ``stats``
    (:func:`repro.kernels.new_stats`) gathers the kernel counters,
    ``programs`` compiled and ``ranges`` the kernels finished among them.
    Returns ``(row-path counters, fallback reason)`` — both ``None`` when
    the kernels served the range.
    """
    start, stop = span or (None, None)
    reason = kernels_off or pipeline.skip_kernels
    if reason is None:
        try:
            if program is None:
                program = compile_range(pipeline, span is not None, stats)
            kernels.execute_program(
                program,
                sink,
                start=start,
                stop=stop,
                interrupt=interrupt,
                stats=stats,
                factorize=sink.accepts_factorized,
            )
            stats["ranges"] += 1
            return None, None
        except (kernels.KernelCompileError, kernels.KernelFrontierExplosion) as exc:
            # An explosion is raised only while the sink is still untouched
            # (the guard invariant), so the row path can re-run the range
            # from scratch.
            reason = str(exc)
    counters = pipeline.row_path.run(
        state.get(interrupt), sink, start, stop, interrupt, factorize
    )
    return counters, reason


def result_table(result: "JoinResult", variables=None, labels=None, name="result") -> Table:
    """The one build of a ``Table`` from a join result's flat batches.

    Column by column (:func:`repro.kernels.encoding.gathered_column`):
    packed — one read-only ``"q"`` / ``"d"`` buffer, dtype from the array —
    where the kernels gathered every batch of it, else a new list column;
    either way the rows, dtypes and fingerprint ``Table.from_rows`` would
    give.  ``variables`` picks and orders the result's columns (default:
    all; one picked twice is built twice, so each list column is its own)
    and ``labels`` names them (default: the variables).
    """
    variables = result.variables if variables is None else variables
    batches = list(result.flat_batches())
    weights = [multiplicities for _columns, multiplicities in batches]
    columns = []
    for var, label in zip(variables, labels or variables):
        parts = [part[result.variables.index(var)] for part, _m in batches]
        columns.append(kernels.gathered_column(label, parts, weights))
    return Table(name, columns)


def run_plan(
    engine: str,
    query,
    pipelines,
    options,
    lower: Callable[..., PhysicalPipeline],
    sink: Optional[OutputSink] = None,
    details: Optional[Dict[str, object]] = None,
    context: RunContext = RunContext(),
) -> RunReport:
    """Execute a decomposed plan: the one loop behind every ``Engine.run``.

    ``pipelines`` are :class:`~repro.optimizer.binary_plan.Pipeline`\\ s in
    dependency order, the last one final, and ``lower(pipeline, atoms,
    output_variables, counts_only, use_kernels)`` is the engine's plan policy
    for one of them (``atoms`` maps every base and already materialized
    relation by name; ``counts_only`` is the pipeline sink's answer to
    whether it reads only how many rows it gets).  ``options`` carries the
    policy's plan knobs (of which this loop reads ``output`` only) and
    ``context`` says how to run.

    ``context.output_variables`` are the variables the caller reads after
    the join, and they are all the final pipeline emits; without them it
    emits the query's full head.  Non-final pipelines materialize
    "simplistically" — a flat table (Section 5.2) later pipelines see as an
    atom (:func:`result_table`) — holding only the columns a relation
    outside the pipeline or the caller still reads.  Everything
    else is never decoded: the kernel program's backward pass turns probes
    that bind nothing read later into multiplicities.

    Every pipeline runs into one sink — the caller's ``sink`` for the final
    pipeline when given, else the sink ``options.output`` names
    (:func:`make_sink`; an unknown name is a :class:`PlanError`), and a
    :class:`RowSink` for every intermediate — and the pipeline's result is
    that sink's ``result()``, serial or parallel: the steal scheduler moves
    task output into it through the sink's own transport
    (``task_sink`` / ``payload`` / ``absorb``, see
    :mod:`repro.engine.output`), so a caller's sink works on every route and
    is only ever entered from the submitting thread; ``absorb_on_arrival``
    says whether it absorbs as tasks finish or after the drain.
    Factorized output the options ask for interleaves groups in ways tasks
    cannot reproduce, so that run is always serial.
    """
    kernels_off = kernels.disabled_reason()
    atoms: Dict[str, Atom] = {atom.name: atom for atom in query.atoms}
    final_variables = context.output_variables
    if final_variables is None:
        final_variables = tuple(query.output_variables)
    #: Base atoms under each materialized intermediate, to tell which
    #: variables something outside a pipeline still reads.
    covered: Dict[str, frozenset] = {atom.name: frozenset((atom.name,)) for atom in query.atoms}
    build_seconds = join_seconds = other_seconds = 0.0
    kernel_stats = kernels.new_stats()
    fallbacks: List[str] = []
    counters: Dict[str, int] = {}
    parallel: List[Dict[str, object]] = []
    intermediates: List[Dict[str, object]] = []
    result = pipeline_sink = None
    for pipeline in pipelines:
        started = time.perf_counter()
        missing = [name for name in pipeline.items if name not in atoms]
        if missing:
            raise PlanError(
                f"pipeline {pipeline!r} references unmaterialized relations {missing}"
            )
        if pipeline.is_final:
            output_variables = final_variables
            pipeline_sink = sink
            if sink is None:
                pipeline_sink = make_sink(options.output, output_variables)
        else:
            inside = frozenset().union(*(covered[name] for name in pipeline.items))
            covered[pipeline.output_name] = inside
            read_outside = set(final_variables).union(
                *(atom.variables for atom in query.atoms if atom.name not in inside)
            )
            bound = dict.fromkeys(v for name in pipeline.items for v in atoms[name].variables)
            # A result nothing outside reads still multiplies the join: keep
            # one column to carry its cardinality.
            output_variables = tuple(v for v in bound if v in read_outside) or tuple(bound)[:1]
            pipeline_sink = RowSink(output_variables)
        lowered = lower(
            pipeline, atoms, output_variables, pipeline_sink.counts_only, kernels_off is None
        )
        # The row path emits factorized groups into a sink that keeps or
        # folds them (a bare count takes the kernels' groups, but its row
        # path stays the flat enumeration).
        factorize = pipeline_sink.accepts_factorized and not pipeline_sink.counts_only
        # The factorized result the options ask for interleaves groups in
        # ways tasks cannot reproduce: that run stays serial.
        serial = context.workers <= 1 or (factorize and pipeline_sink is not sink)
        other_seconds += time.perf_counter() - started

        if not serial:
            from repro.parallel.scheduler import run_pipeline_steal

            run = run_pipeline_steal(
                lowered,
                pipeline_sink,
                workers=context.workers,
                mode=context.parallel_mode,
                kernels_off=kernels_off,
                interrupt=context.deadline,
            )
            build_seconds += run.build_seconds
            join_seconds += run.join_seconds
            parallel.append(run.details())
            kernels.merge_stats(kernel_stats, run.extra.get("kernels_stats"))
            fallbacks.extend(run.extra.get("kernels_fallbacks", ()))
            kernels.merge_stats(counters, run.stats)
        else:
            state = PipelineState(lowered.row_path, lowered.atoms)
            started = time.perf_counter()
            row_counters, reason = run_range(
                lowered,
                state,
                pipeline_sink,
                None,
                context.deadline,
                kernel_stats,
                kernels_off,
                factorize,
            )
            elapsed = time.perf_counter() - started
            build_seconds += state.build_seconds
            join_seconds += elapsed - state.build_seconds
            if reason:
                fallbacks.append(reason)
            kernels.merge_stats(counters, row_counters)
        result = pipeline_sink.result()

        if not pipeline.is_final:
            started = time.perf_counter()
            table = result_table(result, name=pipeline.output_name)
            atoms[pipeline.output_name] = Atom(pipeline.output_name, table, table.column_names)
            elapsed = time.perf_counter() - started
            other_seconds += elapsed
            packed = [c.name for c in table.columns if isinstance(c.values, memoryview)]
            intermediates.append(
                {
                    "name": table.name,
                    "rows": table.num_rows,
                    "packed_columns": packed,
                    "materialize_seconds": elapsed,
                }
            )

    report_details: Dict[str, object] = dict(details or {})
    report_details.update(
        num_pipelines=len(pipelines),
        options=options,
        output={"mode": pipeline_sink.mode, "variables": list(final_variables)},
        kernels=kernels.kernel_report(kernel_stats, fallbacks),
    )
    if counters:
        report_details["stats"] = counters
    if parallel:
        report_details["parallel"] = parallel
    if intermediates:
        report_details["intermediates"] = intermediates
    return RunReport(
        engine=engine,
        result=result,
        build_seconds=build_seconds,
        join_seconds=join_seconds,
        other_seconds=other_seconds,
        details=report_details,
    )
