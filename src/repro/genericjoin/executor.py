"""The Generic Join algorithm (Section 2.3, Figure 2b).

Generic Join processes one variable at a time: for each variable in the
global order it intersects the current trie levels of every relation
containing that variable, by iterating over the smallest level and probing
the others.  Bag multiplicities stored in the trie leaves are multiplied into
the output.

This engine matches the paper's baseline: all tries are built eagerly up
front and execution is strictly tuple-at-a-time (no vectorization).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.engine.output import OutputSink
from repro.engine.pipeline import PhysicalPipeline, RowPath, RunContext, run_plan
from repro.engine.report import RunReport
from repro.errors import PlanError
from repro.genericjoin.trie import HashTrie, build_hash_trie
from repro.genericjoin.variable_order import (
    default_variable_order,
    variable_order_from_binary_plan,
)
from repro.optimizer.binary_plan import BinaryPlan, Pipeline
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class GenericJoinOptions:
    """Knobs of the Generic Join engine: output mode and variable order.

    How a run executes (workers, backend, deadline) arrives per run as a
    :class:`~repro.engine.pipeline.RunContext`.
    """

    output: str = "rows"  # "rows" or "count"
    variable_order: Optional[Sequence[str]] = None


@dataclass
class GenericRowPath(RowPath):
    """The Generic Join recursion (Figure 2b) over eagerly built hash tries.

    Task ranges address the distinct first-variable values of the smallest
    participant, in first-occurrence order — the entry iteration the
    recursion slices.  ``atom_order`` is the query's atom order, which breaks
    the recursion's smallest-level ties (the pipeline lists the driver
    first).
    """

    output_variables: Tuple[str, ...]
    order: Tuple[str, ...]
    atom_order: Tuple[str, ...]

    name = "generic"

    def key_parts(self) -> tuple:
        return (self.order, self.atom_order)

    def build(self, atoms: Sequence[Atom], interrupt=None):
        atoms = sorted(atoms, key=lambda atom: self.atom_order.index(atom.name))
        tries: Dict[str, HashTrie] = {}
        for atom in atoms:
            # Check between relations: each eager trie build is an
            # uninterruptible O(rows) scan, so deadline enforcement in the
            # build phase is per-relation granular.
            if interrupt is not None:
                interrupt.check()
            tries[atom.name] = build_hash_trie(atom, self.order)
        return atoms, tries

    def run(self, state, sink, start, stop, interrupt, factorize=False):
        atoms, tries = state
        GenericJoinEngine._execute_atoms(
            atoms,
            self.output_variables,
            self.order,
            tries,
            sink,
            entry_range=None if start is None else (start, stop),
            interrupt=interrupt,
        )

    def plan_tasks(self, pipeline, state, shared_build):
        if pipeline.group_vars is None:
            # No atom binds the first variable: the recursion skips it, so
            # the whole join is the one entry of the one task.
            return replace(pipeline, skip_kernels="no-first-variable-participant"), 1
        # The first intersection iterates the smallest participant level;
        # only the *count* matters here — each worker's own (identically
        # built) tries define the iteration order the ranges slice.
        variable = pipeline.group_vars[0]
        return pipeline, min(
            len(set(atom.table.column(atom.column_for(variable)).values))
            for atom in pipeline.atoms
            if atom.has_variable(variable)
        )


class GenericJoinEngine:
    """Worst-case optimal Generic Join over eagerly built hash tries.

    As a plan policy: the whole query is one pipeline, driven by the atom
    with the smallest first-variable frontier, and :class:`GenericRowPath`
    is the row-at-a-time reference.
    """

    name = "generic"

    def __init__(self, options: Optional[GenericJoinOptions] = None) -> None:
        self.options = options or GenericJoinOptions()

    def run(
        self,
        query: ConjunctiveQuery,
        binary_plan: Optional[BinaryPlan] = None,
        options: Optional[GenericJoinOptions] = None,
        sink: Optional[OutputSink] = None,
        *,
        context: RunContext = RunContext(),
    ) -> RunReport:
        """Execute ``query`` with Generic Join.

        With ``context.workers > 1`` the first variable's intersection (the
        iteration over the smallest trie level) is split into tasks for the
        work-stealing pool; the intersection loop ticks ``context.deadline``
        per candidate value.

        The variable order is taken from ``options.variable_order`` when
        given, otherwise derived from ``binary_plan`` (the same order Free
        Join would use), otherwise a join-variables-first default.

        ``sink`` overrides the output sink; an incremental sink
        (:class:`~repro.engine.streaming.StreamingSink`) receives rows while
        the intersection recursion is still running (steal workers forward
        per task).  An aggregate sink
        (:class:`~repro.engine.streaming.StreamingAggregateSink`) makes
        steal workers fold their task's output — multiplicity-weighted, so
        bag semantics survive — into grouped partials shipped in place of
        rows.
        """
        options = options or self.options
        if options.variable_order is not None:
            order = list(options.variable_order)
        elif binary_plan is not None:
            order = variable_order_from_binary_plan(query, binary_plan)
        else:
            order = default_variable_order(query)
        self._check_order(query, order)

        def lower(pipeline, atoms, output_variables, counts_only, use_kernels):
            return self._lower(list(query.atoms), output_variables, order, use_kernels)

        whole = Pipeline("__result", [atom.name for atom in query.atoms], is_final=True)
        return run_plan(
            self.name, query, [whole], options, lower, sink, {"variable_order": order}, context
        )

    @staticmethod
    def _lower(
        atoms: List[Atom],
        output_variables: Tuple[str, ...],
        order: Sequence[str],
        use_kernels: bool,
    ) -> PhysicalPipeline:
        """Lower the query: the smallest first-variable frontier drives.

        Mirrors the recursion's optimal-intersection heuristic at position 0
        (iterate the relation with the fewest distinct first-variable
        values); ties keep atom order, like the recursion's stable sort, so
        the driver's group count equals the recursion's entry count.  Bag
        semantics only: the kernel iterates driver *rows* and carries
        multiplicities, where the trie recursion iterates distinct values —
        same bag, different row grouping.
        """
        row_path = GenericRowPath(
            output_variables, tuple(order), tuple(atom.name for atom in atoms)
        )
        participants = [atom for atom in atoms if order and atom.has_variable(order[0])]
        if not participants:
            return PhysicalPipeline(atoms, output_variables, row_path)
        driver = participants[0]
        if use_kernels:
            driver = min(
                participants,
                key=lambda atom: kernels.column_distinct_count(
                    atom.table.column(atom.column_for(order[0]))
                ),
            )
        return PhysicalPipeline(
            [driver] + [atom for atom in atoms if atom is not driver],
            output_variables,
            row_path,
            group_vars=(order[0],),
        )

    # ------------------------------------------------------------------ #
    # Core recursion
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_order(query: ConjunctiveQuery, order: Sequence[str]) -> None:
        missing = set(query.variables) - set(order)
        if missing:
            raise PlanError(f"variable order is missing variables {sorted(missing)}")
        duplicates = len(order) != len(set(order))
        if duplicates:
            raise PlanError(f"variable order contains duplicates: {list(order)}")

    @staticmethod
    def _execute_atoms(
        atoms: Sequence,
        output_variables: Sequence[str],
        order: Sequence[str],
        tries: Dict[str, HashTrie],
        sink: OutputSink,
        entry_range: Optional[Tuple[int, int]] = None,
        interrupt=None,
    ) -> None:
        """Run the Generic Join recursion over pre-built tries.

        ``entry_range`` restricts the *first* variable's intersection to a
        half-open slice ``[start, stop)`` of the smallest level's entries —
        one work-stealing task; the union of the slices reproduces the
        serial output.  The smallest-level choice uses full level sizes, so
        every task (and every worker's private trie build) slices the same
        iteration order.
        """
        # For every variable, the atoms that contain it (their trie level is
        # keyed on it when the recursion reaches that variable).
        participants: List[List[str]] = [
            [atom.name for atom in atoms if atom.has_variable(var)]
            for var in order
        ]
        # Remaining variable count per atom, to detect completion (leaf).
        remaining: Dict[str, int] = {
            atom.name: atom.arity for atom in atoms
        }
        nodes: Dict[str, object] = {name: trie.root for name, trie in tries.items()}
        bindings: Dict[str, object] = {}

        def recurse(position: int, multiplicity: int) -> None:
            if position == len(order):
                row = tuple(bindings[v] for v in output_variables)
                sink.on_row(row, multiplicity)
                return

            variable = order[position]
            names = participants[position]
            if not names:
                # A variable bound by no relation cannot occur in a well-formed
                # query; guard to keep the recursion total.
                recurse(position + 1, multiplicity)
                return

            # Iterate over the smallest level, probe the others (optimal
            # intersection, Section 2.3).
            names = sorted(names, key=lambda n: len(nodes[n]))
            smallest = names[0]
            others = names[1:]

            saved = {name: nodes[name] for name in names}
            saved_remaining = {name: remaining[name] for name in names}

            entries = saved[smallest].items()
            if position == 0 and entry_range is not None:
                start, stop = entry_range
                entries = itertools.islice(iter(entries), start, stop)

            for value, child in entries:
                if interrupt is not None:
                    interrupt.tick()
                new_multiplicity = multiplicity
                matched = True
                for name in others:
                    other_child = saved[name].get(value)
                    if other_child is None:
                        matched = False
                        break
                    nodes[name] = other_child
                if not matched:
                    continue
                nodes[smallest] = child
                bindings[variable] = value

                for name in names:
                    remaining[name] = saved_remaining[name] - 1
                    if remaining[name] == 0:
                        # The relation's variables are exhausted: its node is
                        # now the leaf multiplicity.
                        new_multiplicity *= nodes[name]

                recurse(position + 1, new_multiplicity)

            for name in names:
                nodes[name] = saved[name]
                remaining[name] = saved_remaining[name]

        recurse(0, 1)
