"""Pipelined execution of binary hash-join plans (Section 2.2).

Bushy plans are decomposed into left-deep pipelines; each pipeline iterates
over its left-most relation and probes hash tables built on the remaining
relations, exactly like the push-based execution the paper describes
(Figure 2a).  Intermediates of non-final pipelines are materialized as flat
column-wise tables holding every attribute something later reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.binaryjoin.hash_table import JoinHashTable
from repro.engine.output import OutputSink, RowBatcher
from repro.engine.pipeline import PhysicalPipeline, RowPath, RunContext, run_plan
from repro.engine.report import RunReport
from repro.optimizer.binary_plan import BinaryPlan
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class BinaryJoinOptions:
    """Knobs of the binary join engine: the output mode, nothing else.

    How a run executes (workers, backend, deadline) arrives per run as a
    :class:`~repro.engine.pipeline.RunContext`.
    """

    output: str = "rows"  # "rows" or "count"


@dataclass
class BinaryRowPath(RowPath):
    """The pipelined hash-join probe loop (Figure 2a) over built hash tables.

    Task ranges address the left-most relation's row offsets.
    """

    output_variables: Tuple[str, ...]

    def build(self, atoms: Sequence[Atom], interrupt=None):
        atoms = list(atoms)
        return atoms, BinaryJoinEngine._build_hash_tables(atoms, interrupt=interrupt)

    def run(self, state, sink, start, stop, interrupt, factorize=False):
        atoms, hash_tables = state
        BinaryJoinEngine._run_pipeline(
            atoms,
            hash_tables,
            list(self.output_variables),
            sink,
            offset_range=None if start is None else (start, stop),
            interrupt=interrupt,
        )

    def plan_tasks(self, pipeline, state):
        return pipeline, pipeline.atoms[0].size


class BinaryJoinEngine:
    """Traditional binary hash join over left-deep pipelines.

    As a plan policy: the left-most relation of each pipeline drives, the
    rest are probed in pipeline order, and :class:`BinaryRowPath` is the
    row-at-a-time reference.
    """

    name = "binary"

    def __init__(self, options: Optional[BinaryJoinOptions] = None) -> None:
        self.options = options or BinaryJoinOptions()

    def run(
        self,
        query: ConjunctiveQuery,
        binary_plan: BinaryPlan,
        options: Optional[BinaryJoinOptions] = None,
        sink: Optional[OutputSink] = None,
        *,
        context: RunContext = RunContext(),
    ) -> RunReport:
        """Execute ``query`` following ``binary_plan``.

        With ``context.workers > 1`` each pipeline's probe loop is split
        over the left-most relation's row offsets into tasks for the
        work-stealing pool; the probe loop ticks ``context.deadline`` per
        left-relation row.

        ``sink`` overrides the final pipeline's sink; an incremental sink
        (:class:`~repro.engine.streaming.StreamingSink`) receives rows while
        the probe loop is still running (steal workers forward per task).
        An aggregate sink
        (:class:`~repro.engine.streaming.StreamingAggregateSink`) makes
        steal workers fold their task's probe output into grouped partials
        and ship those instead of rows.
        """
        options = options or self.options
        return run_plan(
            self.name, query, binary_plan.decompose(), options, self._lower, sink, context=context
        )

    @staticmethod
    def _lower(pipeline, atoms, output_variables, counts_only, use_kernels) -> PhysicalPipeline:
        """Lower one pipeline in plan order (no hash tables on the kernel path).

        A sink that only counts lets dangling matches compress into
        multiplicities; any other gets them expanded fully, which keeps the
        output byte-identical to the probe recursion.
        """
        return PhysicalPipeline(
            [atoms[name] for name in pipeline.items],
            output_variables,
            BinaryRowPath(output_variables),
            compress=counts_only,
        )

    # ------------------------------------------------------------------ #
    # Pipeline machinery
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_hash_tables(
        pipeline_atoms: List[Atom],
        interrupt=None,
    ) -> List[Optional[JoinHashTable]]:
        """Build one hash table per probed relation (none for the left-most).

        The deadline token is checked between relations: each build is an
        uninterruptible O(rows) scan, so enforcement during the build phase
        is per-relation granular (the probe loop then ticks per row).
        """
        tables: List[Optional[JoinHashTable]] = [None]
        available = set(pipeline_atoms[0].variables)
        for atom in pipeline_atoms[1:]:
            if interrupt is not None:
                interrupt.check()
            key_variables = [v for v in atom.variables if v in available]
            tables.append(JoinHashTable(atom, key_variables))
            available.update(atom.variables)
        return tables

    @staticmethod
    def _run_pipeline(
        pipeline_atoms: List[Atom],
        hash_tables: List[Optional[JoinHashTable]],
        output_variables: List[str],
        sink: OutputSink,
        offset_range: Optional[Tuple[int, int]] = None,
        interrupt=None,
    ) -> None:
        """Run one pipeline's probe loop over the left relation's rows.

        ``offset_range`` restricts the iteration to a half-open slice of the
        left relation's offsets; the parallel subsystem shards a pipeline by
        giving each worker one slice (the union of the slices reproduces the
        serial output exactly, order included).
        """
        left = pipeline_atoms[0]
        left_columns = [
            left.table.column(left.column_for(var)).values for var in left.variables
        ]
        bindings: Dict[str, object] = {}
        batcher = RowBatcher(sink)

        def probe_level(position: int) -> None:
            if position == len(pipeline_atoms):
                batcher.emit(tuple(bindings[v] for v in output_variables), 1)
                return
            atom = pipeline_atoms[position]
            table = hash_tables[position]
            key = table.make_key(bindings)
            for offset in table.probe(key):
                values = table.row_values(offset)
                for var, value in zip(atom.variables, values):
                    bindings[var] = value
                probe_level(position + 1)

        start, stop = offset_range if offset_range is not None else (0, left.size)
        for offset in range(start, stop):
            if interrupt is not None:
                interrupt.tick()
            for var, column in zip(left.variables, left_columns):
                bindings[var] = column[offset]
            probe_level(1)
        batcher.flush()
