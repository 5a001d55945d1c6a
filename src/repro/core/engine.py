"""The end-to-end Free Join engine.

:class:`FreeJoinEngine` ties the pieces of the paper together: it takes a
conjunctive query plus an optimized binary plan (from the cost-based
optimizer), decomposes bushy plans into left-deep pipelines, converts each
pipeline to a Free Join plan (Figure 9), factors the plan (Figure 10), builds
COLT tries (Section 4.2), and executes with optional vectorization
(Section 4.3) and dynamic cover selection (Section 4.4).

Intermediate results of non-final pipelines are materialized "simplistically"
— flat and uncompressed, every attribute a later pipeline reads stored as a
column vector (:func:`repro.engine.pipeline.run_plan`) — because the paper
calls out this materialization strategy explicitly and it is load-bearing for
the robustness results (Sections 5.2 and 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.colt import TrieStrategy, build_tries
from repro.core.convert import binary_to_free_join
from repro.core.executor import ExecutorStats, FreeJoinExecutor
from repro.core.factor import factor_plan
from repro.core.plan import FreeJoinPlan
from repro.engine.output import OutputSink, RowSink
from repro.engine.pipeline import PhysicalPipeline, PipelineState, RowPath, RunContext, run_plan
from repro.engine.report import RunReport
from repro.errors import PlanError
from repro.optimizer.binary_plan import BinaryPlan, Pipeline
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class FreeJoinOptions:
    """Knobs of the Free Join engine, mirroring the paper's ablations.

    Attributes
    ----------
    trie_strategy:
        COLT (default), SLT, or the fully eager simple trie (Figure 17).
    batch_size:
        Vectorization batch size; 1 disables vectorization (Figure 18).  The
        paper's Rust implementation defaults to 1000 and gains about 2x from
        cache locality; under CPython the batching bookkeeping costs more
        than the locality it buys (there is no hardware cache effect at the
        interpreter level), so the default here is 1.  Figure 18's driver
        sweeps batch sizes explicitly either way.
    factor:
        Whether to run the plan-factoring optimization (Figure 10).  With
        factoring disabled the engine behaves identically to binary join.
    dynamic_cover:
        Whether to pick the cover with the fewest keys at run time
        (Section 4.4) instead of the first cover subatom.
    output:
        ``"rows"``, ``"count"``, or ``"factorized"`` (Figure 19).

    How a run executes (workers, backend, deadline) is not an engine option:
    it arrives per run as a :class:`~repro.engine.pipeline.RunContext`.
    """

    trie_strategy: TrieStrategy = TrieStrategy.COLT
    batch_size: int = 1
    factor: bool = True
    dynamic_cover: bool = True
    output: str = "rows"


def _cover_entry_total(trie) -> int:
    """Entries the root cover will iterate, without forcing the trie.

    Forcing builds the full hash map plus one child node per key — wasted
    work in a parent whose process workers rebuild their own tries.  A
    last-level cover iterates its tuples; an already-forced level knows its
    key count; otherwise the count is the distinct key count of the level's
    columns (exactly what forcing would find, at a fraction of the cost).
    """
    if trie.levels_remaining() == 1:
        return trie.tuple_count()
    if trie.is_forced():
        return trie.key_count()
    atom = trie.atom
    columns = [atom.table.column(atom.column_for(var)).values for var in trie.vars]
    if len(columns) == 1:
        return len(set(columns[0]))
    return len(set(zip(*columns)))


@dataclass
class FreeJoinRowPath(RowPath):
    """The paper's Free Join algorithm over COLT tries (Figure 7).

    ``cover`` is the root cover relation steal task ranges were computed
    over, pinned once per query by :meth:`plan_tasks`; serial runs leave it
    unset and the executor chooses per node.
    """

    plan: FreeJoinPlan
    output_variables: Tuple[str, ...]
    schemas: Dict[str, List[Tuple[str, ...]]]
    trie_strategy: TrieStrategy
    dynamic_cover: bool
    batch_size: int
    cover: Optional[str] = None

    def build(self, atoms: Sequence[Atom], interrupt=None):
        return build_tries(
            {atom.name: atom for atom in atoms}, self.schemas, self.trie_strategy
        )

    def _executor(self, sink: OutputSink, interrupt=None, factorize=False):
        return FreeJoinExecutor(
            self.plan,
            self.output_variables,
            sink,
            dynamic_cover=self.dynamic_cover,
            batch_size=self.batch_size,
            factorize=factorize,
            interrupt=interrupt,
        )

    def run(self, state, sink, start, stop, interrupt, factorize=False):
        executor = self._executor(sink, interrupt, factorize)
        if start is None:
            executor.run(state)
        else:
            executor.run_task(state, start, stop, self.cover)
        return executor.stats.as_dict()

    def plan_tasks(self, pipeline: PhysicalPipeline, state: PipelineState):
        """Choose the root cover ONCE and pin it into every task.

        Dynamic cover selection keys off ``key_count()`` estimates that
        shrink as forcing progresses, so letting each task re-choose could
        switch the iterated relation mid-query and corrupt the partition.
        The choice uses the unforced estimates (no forcing happens during
        it), matching what the first task would have seen.  Task ranges then
        address the cover's root entries in first-occurrence order — the
        same partition the kernels' driver index groups by, so kernel and
        trie tasks can mix in one run.
        """
        tries = state.get()
        prober = self._executor(RowSink(self.output_variables))
        root = prober._nodes[0]
        position = prober._choose_cover(root, dict(tries))
        if position is None:
            # Probe-only root: one unit of work, owned by the first task.
            return replace(pipeline, skip_kernels="probe-only-root"), 1
        cover = root.cover_plans[position].relation
        levels = self.plan.subatoms_of(cover)
        atoms = {atom.name: atom for atom in pipeline.atoms}
        pinned = replace(
            pipeline,
            atoms=[atoms[cover]]
            + [atoms[name] for name in self.plan.relations() if name != cover],
            row_path=replace(self, cover=cover),
            group_vars=None if len(levels) == 1 else tuple(levels[0].variables),
        )
        return pinned, _cover_entry_total(tries[cover])


class FreeJoinEngine:
    """Execute conjunctive queries with the Free Join algorithm.

    The engine is a plan policy: it converts each left-deep pipeline of the
    binary plan to a (factored) Free Join plan, picks the batch driver, and
    hands :func:`repro.engine.pipeline.run_plan` the lowered pipelines with
    :class:`FreeJoinRowPath` as the row-at-a-time reference.
    """

    name = "freejoin"

    def __init__(self, options: Optional[FreeJoinOptions] = None) -> None:
        self.options = options or FreeJoinOptions()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        query: ConjunctiveQuery,
        binary_plan: BinaryPlan,
        options: Optional[FreeJoinOptions] = None,
        sink: Optional[OutputSink] = None,
        *,
        context: RunContext = RunContext(),
    ) -> RunReport:
        """Execute ``query`` following ``binary_plan`` and return a report.

        ``context`` says how to run: with ``context.workers > 1`` every
        pipeline's root cover iteration is decomposed into fine-grained
        tasks for the persistent work-stealing pool (factorized output
        always runs serially), and ``context.deadline`` is ticked at every
        trie-expansion boundary, in the parent and in every steal worker.

        ``sink`` overrides the final pipeline's output sink.  Passing an
        incremental sink (:class:`~repro.engine.streaming.StreamingSink`)
        turns the run into a streaming execution: rows reach the sink as the
        recursion produces them (and, on parallel runs, as steal workers
        complete tasks) instead of materializing first.  An aggregate sink
        (:class:`~repro.engine.streaming.StreamingAggregateSink`) folds the
        final pipeline's output into grouped partials — serially batch by
        batch, on parallel runs task by task worker-side — so factorized
        groups and join rows are aggregated without materializing the output.  The
        report's ``result`` is then the sink's placeholder, not the rows.
        """
        options = options or self.options
        plans: List[str] = []

        def lower(pipeline, atoms, output_variables, counts_only, use_kernels):
            plan = self._plan_for_pipeline(pipeline, atoms, options)
            plans.append(repr(plan))
            pipeline_atoms = {name: atoms[name] for name in pipeline.items}
            return self._lower(plan, pipeline_atoms, output_variables, options)

        return self._with_stats(
            run_plan(
                self.name,
                query,
                binary_plan.decompose(),
                options,
                lower,
                sink,
                {"plans": plans},
                context,
            )
        )

    def run_with_plan(
        self,
        query: ConjunctiveQuery,
        plan: FreeJoinPlan,
        options: Optional[FreeJoinOptions] = None,
        *,
        context: RunContext = RunContext(),
    ) -> RunReport:
        """Execute a hand-written Free Join plan over the whole query.

        This entry point is used by tests and by the Generic Join comparison:
        any valid Free Join plan (including Generic Join-shaped plans) can be
        executed directly, without going through a binary plan.  It exercises
        the trie executor directly, serially and in every steal task: the
        kernels never claim it (fallback reason ``"hand-written-plan"``).
        """
        options = options or self.options
        plan.validate(query)

        def lower(pipeline, atoms, output_variables, counts_only, use_kernels):
            lowered = self._lower(plan, atoms, output_variables, options)
            lowered.skip_kernels = "hand-written-plan"
            return lowered

        whole = Pipeline("__result", [atom.name for atom in query.atoms], is_final=True)
        return self._with_stats(
            run_plan(
                self.name, query, [whole], options, lower, None, {"plans": [repr(plan)]}, context
            )
        )

    # ------------------------------------------------------------------ #
    # The plan policy
    # ------------------------------------------------------------------ #

    @staticmethod
    def _with_stats(report: RunReport) -> RunReport:
        """Present the row path's work counters as :class:`ExecutorStats`."""
        report.details["stats"] = ExecutorStats(**report.details.get("stats", {}))
        return report

    @staticmethod
    def _lower(
        plan: FreeJoinPlan,
        atoms: Dict[str, Atom],
        output_variables: Sequence[str],
        options: FreeJoinOptions,
    ) -> PhysicalPipeline:
        """Lower one Free Join plan: smallest root cover drives, the rest probe.

        Mirrors dynamic cover selection (Section 4.4) — iterate the root
        cover with the fewest tuples, probe everything else.  Parallel runs
        re-pin the driver to the cover the trie executor would choose
        (:meth:`FreeJoinRowPath.plan_tasks`), because their task ranges must
        address the same entries on the kernel and the trie path.
        """
        relations = plan.relations()
        covers = [s.relation for s in plan.covers(0)] or relations[:1]
        driver = min(covers, key=lambda name: atoms[name].size)
        row_path = FreeJoinRowPath(
            plan,
            tuple(output_variables),
            FreeJoinEngine._schemas(plan, atoms),
            options.trie_strategy,
            options.dynamic_cover,
            options.batch_size,
        )
        ordered = [atoms[driver]] + [atoms[n] for n in relations if n != driver]
        return PhysicalPipeline(ordered, tuple(output_variables), row_path)

    def _plan_for_pipeline(
        self,
        pipeline: Pipeline,
        atoms: Dict[str, Atom],
        options: FreeJoinOptions,
    ) -> FreeJoinPlan:
        plan = binary_to_free_join(pipeline.items, atoms)
        if options.factor:
            plan = factor_plan(plan)
        return plan

    @staticmethod
    def _schemas(plan: FreeJoinPlan, atoms: Dict[str, Atom]):
        """GHT level schemas for the atoms of one pipeline."""
        schemas = {}
        for name in atoms:
            levels = [tuple(s.variables) for s in plan.subatoms_of(name)]
            if not levels:
                raise PlanError(f"plan {plan!r} never mentions relation {name!r}")
            schemas[name] = levels
        return schemas
