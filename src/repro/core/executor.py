"""The Free Join execution algorithm (Section 3.3, Figure 7).

The executor walks the plan node by node.  At each node it picks a *cover*
subatom (statically the first cover, or dynamically the cover whose trie has
the fewest keys, Section 4.4), iterates over the cover's trie, probes the
other subatoms' tries with the values bound so far, and recurses into the
next node with the returned sub-tries.  Bag semantics are preserved by
multiplying the multiplicities carried by leaf vectors.

The recursion mutates a single shared binding environment and trie map and
restores the trie map on the way out; this keeps the per-tuple cost close to
that of the pipelined binary join executor, so measured differences between
the engines reflect the algorithms rather than allocation overhead.

Vectorized execution (Section 4.3, Figure 13) batches the cover iteration and
probes trie-by-trie across the whole batch; it lives in
:mod:`repro.core.vectorized` and is selected with ``batch_size > 1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, PlanError
from repro.core.ght import GHT
from repro.core.plan import FreeJoinPlan
from repro.core.vectorized import run_node_vectorized
from repro.datatypes import Row
from repro.engine.output import OutputSink
from repro.query.atoms import Subatom


@dataclass
class ExecutorStats:
    """Work counters collected during execution (used by tests and ablations)."""

    iterations: int = 0
    probes: int = 0
    failed_probes: int = 0
    outputs: int = 0
    batches: int = 0

    def merge(self, other: "ExecutorStats") -> "ExecutorStats":
        """Accumulate another executor's counters into this one.

        Used by the parallel subsystem to combine per-shard statistics; the
        counters partition the serial work, so ``sum(shard.outputs)`` over all
        shards equals the serial ``outputs`` (and likewise for the other
        counters under static cover selection).
        """
        self.iterations += other.iterations
        self.probes += other.probes
        self.failed_probes += other.failed_probes
        self.outputs += other.outputs
        self.batches += other.batches
        return self

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view, convenient for JSON reports and shard transport."""
        return {
            "iterations": self.iterations,
            "probes": self.probes,
            "failed_probes": self.failed_probes,
            "outputs": self.outputs,
            "batches": self.batches,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, int]) -> "ExecutorStats":
        """Rebuild stats from :meth:`as_dict` output (crosses process pipes)."""
        return cls(**record)


@dataclass
class CoverPlan:
    """Pre-computed execution data for one (node, chosen cover) pair.

    Everything that does not depend on the run-time data is derived once at
    executor construction so the per-tuple inner loop does no list building.
    """

    relation: str
    variables: Tuple[str, ...]
    single: bool
    # (i, var) pairs for cover variables already bound by earlier nodes.
    bound_positions: Tuple[Tuple[int, str], ...]
    # (relation, variables, single) for every probed subatom, in probe order.
    probes: Tuple[Tuple[str, Tuple[str, ...], bool], ...]
    # For the vectorized path: per probe, how to assemble its key.  Each slot
    # is (True, index_into_cover_key) or (False, variable_name).
    probe_slots: Tuple[Tuple[Tuple[bool, object], ...], ...] = ()


@dataclass
class NodeInfo:
    """Pre-computed per-node information shared by both execution modes."""

    subatoms: List[Subatom]
    covers: List[int]  # indices into ``subatoms`` that are valid covers
    new_variables: frozenset
    available_variables: frozenset
    cover_plans: Dict[int, CoverPlan] = field(default_factory=dict)


class RangeView(GHT):
    """Entries ``[start, stop)`` of one trie level, presented as a GHT.

    :meth:`FreeJoinExecutor.run_task` wraps the root cover in one, so a
    steal task iterates only its range.  Only :meth:`iter_entries` (and the
    batched variant inherited from :class:`GHT`) is sliced; probes and the
    metadata queries delegate to the wrapped trie, so cover selection sees
    the *full* key counts in every task, as the serial executor does.
    """

    def __init__(self, base: GHT, start: int, stop: int) -> None:
        if start < 0 or stop < start:
            raise ValueError(f"invalid entry range [{start}, {stop})")
        self.base = base
        self.relation = base.relation
        self.vars = base.vars
        self.start = start
        self.stop = stop

    def levels_remaining(self) -> int:
        return self.base.levels_remaining()

    def is_leaf(self) -> bool:
        return self.base.is_leaf()

    def tuple_count(self) -> int:
        return self.base.tuple_count()

    def key_count(self) -> int:
        return self.base.key_count()

    def iter_entries(self) -> Iterator[Tuple[Row, Optional[GHT]]]:
        return itertools.islice(self.base.iter_entries(), self.start, self.stop)

    def get(self, key: Row) -> Optional[GHT]:
        return self.base.get(key)

    def __repr__(self) -> str:
        return f"RangeView({self.base!r}, [{self.start}, {self.stop}))"


class FreeJoinExecutor:
    """Executes a Free Join plan over a set of GHTs.

    Parameters
    ----------
    plan:
        A valid Free Join plan.
    output_variables:
        Variables to report to the sink, in output order.  Every output
        variable must be bound by the plan.
    sink:
        Where output rows (or factorized groups) go.
    dynamic_cover:
        Pick the cover with the fewest keys at run time (Section 4.4) instead
        of always iterating the first cover subatom.
    batch_size:
        Vectorization batch size; 1 disables vectorization.
    factorize:
        Emit factorized groups instead of enumerating the Cartesian product of
        independent trailing nodes (Section 4.4, Figure 19).  Only effective
        when the sink supports groups (all sinks do; :class:`RowSink` expands
        them, so correctness never depends on this flag).
    """

    def __init__(
        self,
        plan: FreeJoinPlan,
        output_variables: Sequence[str],
        sink: OutputSink,
        dynamic_cover: bool = True,
        batch_size: int = 1,
        factorize: bool = False,
        interrupt=None,
    ) -> None:
        self.plan = plan
        self.output_variables = tuple(output_variables)
        self.sink = sink
        self.dynamic_cover = dynamic_cover
        self.batch_size = max(1, int(batch_size))
        self.factorize = factorize
        # A repro.parallel.cancellation.DeadlineToken (or None).  ticked at
        # every cover-entry expansion, so a deadline or cancellation aborts
        # the join mid-flight instead of after it completes.
        self.interrupt = interrupt
        self.stats = ExecutorStats()

        plan_variables = set(plan.all_variables())
        missing = [v for v in self.output_variables if v not in plan_variables]
        if missing:
            raise PlanError(
                f"output variables {missing} are never bound by the plan {plan!r}"
            )

        self._nodes: List[NodeInfo] = []
        for index, node in enumerate(plan.nodes):
            new_vars = frozenset(plan.new_variables(index))
            available = frozenset(plan.available_variables(index))
            covers = [
                position
                for position, subatom in enumerate(node.subatoms)
                if new_vars <= set(subatom.variables)
            ]
            info = NodeInfo(list(node.subatoms), covers, new_vars, available)
            for position in covers:
                info.cover_plans[position] = self._build_cover_plan(info, position)
            self._nodes.append(info)

        self._factorizable_from = self._compute_factorizable_suffix()
        # The root cover position, set by run_task: a sliced cover must not
        # be re-chosen dynamically mid-task (COLT forcing changes key_count(),
        # so a dynamic re-choice could iterate a *different* relation than
        # the one the scheduler partitioned, dropping or repeating outputs).
        self._pinned_root: Optional[int] = None

    @staticmethod
    def _build_cover_plan(info: "NodeInfo", cover_position: int) -> CoverPlan:
        cover = info.subatoms[cover_position]
        probes = tuple(
            (subatom.relation, subatom.variables, len(subatom.variables) == 1)
            for index, subatom in enumerate(info.subatoms)
            if index != cover_position
        )
        bound_positions = tuple(
            (i, var)
            for i, var in enumerate(cover.variables)
            if var in info.available_variables
        )
        probe_slots = tuple(
            tuple(
                (True, cover.variables.index(var))
                if var in cover.variables
                else (False, var)
                for var in variables
            )
            for _relation, variables, _single in probes
        )
        return CoverPlan(
            relation=cover.relation,
            variables=cover.variables,
            single=len(cover.variables) == 1,
            bound_positions=bound_positions,
            probes=probes,
            probe_slots=probe_slots,
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self, tries: Dict[str, GHT]) -> None:
        """Execute the plan over ``tries`` (one trie per relation)."""
        for relation in self.plan.relations():
            if relation not in tries:
                raise ExecutionError(f"no trie provided for relation {relation!r}")
        self._join(dict(tries), 0, {}, 1)

    def run_task(
        self,
        tries: Dict[str, GHT],
        start: int,
        stop: int,
        cover: Optional[str] = None,
    ) -> None:
        """Execute one scheduler task: root cover entries ``[start, stop)``.

        This is the work-stealing scheduler's unit of execution on the row
        path.  ``cover`` names the root cover relation the task ranges were
        computed over.  Every task of one query MUST slice the same cover: COLT
        forcing shrinks ``key_count()`` estimates as tasks execute, so
        re-running dynamic cover selection per task could silently switch the
        iterated relation and drop (or repeat) outputs.  The scheduler pins
        the choice once per query; when ``cover`` is omitted this method pins
        its own choice for the duration of the task.

        Each concurrent task must run over trie instances that are safe to
        share with its siblings: worker processes build their own tries,
        worker threads may share one build (forcing the same node twice is
        redundant but yields an equivalent map).
        """
        for relation in self.plan.relations():
            if relation not in tries:
                raise ExecutionError(f"no trie provided for relation {relation!r}")
        working = dict(tries)
        info = self._nodes[0]
        if cover is None:
            cover_position = self._choose_cover(info, working)
        else:
            cover_position = next(
                (
                    position
                    for position in info.covers
                    if info.cover_plans[position].relation == cover
                ),
                None,
            )
            if cover_position is None:
                raise ExecutionError(
                    f"pinned cover {cover!r} is not a cover candidate of the "
                    f"root node {info.subatoms!r}"
                )
        if cover_position is None:
            # Probe-only root: a single unit of work, owned by the first task.
            if start <= 0 < stop:
                self._join(working, 0, {}, 1)
            return
        relation = info.cover_plans[cover_position].relation
        working[relation] = RangeView(working[relation], start, stop)
        self._pinned_root = cover_position
        try:
            self._join(working, 0, {}, 1)
        finally:
            self._pinned_root = None

    # ------------------------------------------------------------------ #
    # Recursive join (Figure 7)
    # ------------------------------------------------------------------ #

    def _join(
        self,
        tries: Dict[str, Optional[GHT]],
        depth: int,
        bindings: Dict[str, object],
        multiplicity: int,
    ) -> None:
        if depth == len(self._nodes):
            self._output(bindings, multiplicity)
            return

        if self.factorize and self._factorizable_from[depth]:
            self._emit_factorized(tries, depth, bindings, multiplicity)
            return

        info = self._nodes[depth]
        cover_position = self._pinned_root if depth == 0 else None
        if cover_position is None:
            cover_position = self._choose_cover(info, tries)

        if cover_position is None:
            # The node introduces no new variables: probe every subatom.
            self._probe_only_node(tries, depth, bindings, multiplicity, info)
            return

        if self.batch_size > 1:
            run_node_vectorized(
                self, tries, depth, bindings, multiplicity, info, cover_position
            )
            return

        self._run_node_tuple_at_a_time(
            tries, depth, bindings, multiplicity, info, cover_position
        )

    def _run_node_tuple_at_a_time(
        self,
        tries: Dict[str, Optional[GHT]],
        depth: int,
        bindings: Dict[str, object],
        multiplicity: int,
        info: NodeInfo,
        cover_position: int,
    ) -> None:
        plan = info.cover_plans[cover_position]
        cover_relation = plan.relation
        cover_variables = plan.variables
        cover_single = plan.single
        cover_variable = cover_variables[0] if cover_single else None
        cover_trie = tries[cover_relation]
        probes = plan.probes
        bound_positions = plan.bound_positions
        stats = self.stats
        interrupt = self.interrupt
        next_depth = depth + 1

        for key, child in cover_trie.iter_entries():
            stats.iterations += 1
            if interrupt is not None:
                interrupt.tick()
            if cover_single:
                if bound_positions and key != bindings[cover_variable]:
                    continue
                bindings[cover_variable] = key
            else:
                if bound_positions and any(
                    key[i] != bindings[var] for i, var in bound_positions
                ):
                    continue
                for var, value in zip(cover_variables, key):
                    bindings[var] = value

            # Advance the cover's trie; remember what we overwrite so the
            # shared map can be restored before the next cover tuple.
            saved: List[Tuple[str, Optional[GHT]]] = [(cover_relation, cover_trie)]
            new_multiplicity = multiplicity
            if child is None:
                tries[cover_relation] = None
            elif child.is_leaf():
                new_multiplicity *= child.tuple_count()
                tries[cover_relation] = None
            else:
                tries[cover_relation] = child

            matched = True
            for relation, variables, single in probes:
                trie = tries[relation]
                if single:
                    probe_key = bindings[variables[0]]
                else:
                    probe_key = tuple(bindings[var] for var in variables)
                stats.probes += 1
                subtrie = trie.get(probe_key)
                if subtrie is None:
                    stats.failed_probes += 1
                    matched = False
                    break
                saved.append((relation, trie))
                if subtrie.is_leaf():
                    new_multiplicity *= subtrie.tuple_count()
                    tries[relation] = None
                else:
                    tries[relation] = subtrie

            if matched:
                self._join(tries, next_depth, bindings, new_multiplicity)

            for relation, previous in saved:
                tries[relation] = previous

    # ------------------------------------------------------------------ #
    # Shared helpers (also used by the vectorized path)
    # ------------------------------------------------------------------ #

    def _choose_cover(
        self, info: NodeInfo, tries: Dict[str, Optional[GHT]]
    ) -> Optional[int]:
        """Pick the subatom to iterate over, or ``None`` for probe-only nodes."""
        if not info.new_variables:
            return None
        candidates = info.covers
        if not candidates:
            raise PlanError(f"node {info.subatoms!r} has no cover")
        if not self.dynamic_cover or len(candidates) == 1:
            return candidates[0]
        return min(
            candidates,
            key=lambda position: tries[info.subatoms[position].relation].key_count(),
        )

    def _probe_only_node(
        self,
        tries: Dict[str, Optional[GHT]],
        depth: int,
        bindings: Dict[str, object],
        multiplicity: int,
        info: NodeInfo,
    ) -> None:
        saved: List[Tuple[str, Optional[GHT]]] = []
        matched = True
        stats = self.stats
        for subatom in info.subatoms:
            trie = tries[subatom.relation]
            if trie is None:
                raise ExecutionError(
                    f"relation {subatom.relation!r} was already consumed before "
                    f"probing subatom {subatom!r}"
                )
            if len(subatom.variables) == 1:
                probe_key = bindings[subatom.variables[0]]
            else:
                probe_key = tuple(bindings[var] for var in subatom.variables)
            stats.probes += 1
            subtrie = trie.get(probe_key)
            if subtrie is None:
                stats.failed_probes += 1
                matched = False
                break
            saved.append((subatom.relation, trie))
            if subtrie.is_leaf():
                multiplicity *= subtrie.tuple_count()
                tries[subatom.relation] = None
            else:
                tries[subatom.relation] = subtrie
        if matched:
            self._join(tries, depth + 1, bindings, multiplicity)
        for relation, previous in saved:
            tries[relation] = previous

    def _output(self, bindings: Dict[str, object], multiplicity: int) -> None:
        self.stats.outputs += 1
        row = tuple(bindings[var] for var in self.output_variables)
        self.sink.on_row(row, multiplicity)

    # ------------------------------------------------------------------ #
    # Factorized output (Section 4.4)
    # ------------------------------------------------------------------ #

    def _compute_factorizable_suffix(self) -> List[bool]:
        """For each depth, whether all remaining nodes are independent factors.

        A suffix of the plan can be emitted as a factorized group when every
        remaining node has exactly one subatom, that subatom binds only new
        variables (so it depends on nothing bound later), and its relation
        appears in no other remaining node.
        """
        length = len(self._nodes)
        factorizable = [False] * (length + 1)
        factorizable[length] = True
        suffix_relations: List[set] = [set() for _ in range(length + 1)]
        for depth in range(length - 1, -1, -1):
            info = self._nodes[depth]
            suffix_relations[depth] = suffix_relations[depth + 1] | {
                s.relation for s in info.subatoms
            }
            single = len(info.subatoms) == 1
            subatom = info.subatoms[0]
            independent = single and set(subatom.variables) <= info.new_variables
            not_reused = single and subatom.relation not in suffix_relations[depth + 1]
            factorizable[depth] = (
                factorizable[depth + 1] and single and independent and not_reused
            )
        return factorizable

    def _emit_factorized(
        self,
        tries: Dict[str, Optional[GHT]],
        depth: int,
        bindings: Dict[str, object],
        multiplicity: int,
    ) -> None:
        available = self._nodes[depth].available_variables if depth < len(self._nodes) else None
        if available is None:
            prefix_variables = list(self.output_variables)
        else:
            prefix_variables = [v for v in self.output_variables if v in available]
        # One group per call, in the one factorized shape: a one-row prefix
        # plus one flat column set per independent factor.
        prefix_columns = [[bindings[v]] for v in prefix_variables]
        factors = []
        for info in self._nodes[depth:]:
            subatom = info.subatoms[0]
            trie = tries[subatom.relation]
            if trie is None:
                raise ExecutionError(
                    f"relation {subatom.relation!r} consumed before factorized output"
                )
            keys: list = []
            for key, child in trie.iter_entries():
                self.stats.iterations += 1
                if child is None:
                    keys.append(key)
                elif child.is_leaf():
                    keys.extend([key] * child.tuple_count())
                else:
                    raise ExecutionError(
                        f"factorized output expected a final level for "
                        f"{subatom.relation!r}, found deeper structure"
                    )
            if len(subatom.variables) == 1:
                columns = [keys]
            elif keys:
                columns = [list(column) for column in zip(*keys)]
            else:
                columns = [[] for _ in subatom.variables]
            factors.append((tuple(subatom.variables), columns, [0, len(keys)]))
        self.stats.outputs += 1
        self.sink.on_factorized_batch(
            prefix_variables, prefix_columns, factors, [multiplicity]
        )
