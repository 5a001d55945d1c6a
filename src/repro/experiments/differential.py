"""Cross-engine differential testing of generated workloads.

The same discipline the paper uses to validate Free Join against the binary
and generic join baselines (Section 5), industrialized: every generated
query runs on all three engines × kernels on/off × serial/thread-parallel/
process-parallel (18 configurations), plus an **independent naive reference
executor** that
evaluates the parsed SQL directly — nested-loop joins over row dicts,
dictionary grouping, straight-line HAVING/DISTINCT/ORDER/LIMIT — with no
planner, no kernels, and no shared execution machinery.  The reference is
the oracle: a bug anywhere in the plan/execute stack shows up as a
divergence even when all twelve engine configurations agree with each
other.

Dialect semantics the reference replicates deliberately:

* WHERE equality between columns of *different* aliases is a join-variable
  unification (the planner collapses both columns into one variable), so
  NULL keys match NULL keys — bag semantics over values, not SQL's
  three-valued ``=``.
* Every other predicate — single-alias filters, LEFT JOIN ``ON``
  conditions, residuals — uses expression evaluation, where NULL never
  compares true.
* ORDER BY breaks peer rows by the canonical whole-row key and a LIMIT
  without ORDER BY canonicalizes first (see
  :func:`repro.engine.aggregates.order_rows`), so ordered results compare
  *exactly*, not as bags.  A NaN sorts after every other number and ties
  with every NaN, so the order is total.

When a query diverges, the built-in shrinker
(:func:`shrink_failing_query`) greedily bisects the AST — dropping joins,
predicates, clauses, IN-list values — re-testing each candidate, until no
smaller query still fails; the minimized SQL is what lands in the CI
artifact.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datatypes import Row, Value
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.errors import ReproError
from repro.kernels import kernels_enabled
from repro.query.expressions import (
    AggregateRef,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    conjuncts,
)
from repro.query.sql import ParsedQuery, SelectItem, parse_sql
from repro.storage.catalog import Catalog
from repro.workloads.generated import GeneratedQuery


# --------------------------------------------------------------------------- #
# Configurations
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class EngineConfig:
    """One execution configuration of the differential matrix.

    ``backend`` selects the parallel backend (``"thread"``: the tasks run
    inline on the calling thread, or ``"process"``) and is only meaningful
    when ``parallel`` is true — the process backend exercises the pickled
    task-outcome protocol (columnar batch forwarding included), which inline
    tasks do not.
    """

    engine: str
    kernels: bool
    parallel: bool
    backend: str = "thread"

    def label(self) -> str:
        kernels = "kernels" if self.kernels else "rowpath"
        if not self.parallel:
            parallel = "serial"
        elif self.backend == "process":
            parallel = "proc2"
        else:
            parallel = "thread2"
        return f"{self.engine}/{kernels}/{parallel}"


def default_configs() -> List[EngineConfig]:
    """The full 18-way matrix: 3 engines × kernels × serial/thread2/proc2."""
    configs = []
    for engine in ("freejoin", "binary", "generic"):
        for kernels in (True, False):
            configs.append(EngineConfig(engine, kernels, parallel=False))
            configs.append(EngineConfig(engine, kernels, parallel=True))
            configs.append(
                EngineConfig(engine, kernels, parallel=True, backend="process")
            )
    return configs


@dataclass
class Divergence:
    """One configuration disagreeing with the reference executor."""

    sql: str
    config: str
    expected: List[Row]
    actual: List[Row]
    error: Optional[str] = None
    minimized_sql: Optional[str] = None

    def summary(self) -> str:
        head = f"[{self.config}] {self.minimized_sql or self.sql}"
        if self.error:
            return f"{head}\n  error: {self.error}"
        return (
            f"{head}\n  expected {len(self.expected)} rows, "
            f"got {len(self.actual)}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    queries_checked: int = 0
    configs: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok():
            return (
                f"differential: {self.queries_checked} queries × "
                f"{self.configs} configs, no divergence"
            )
        lines = [
            f"differential: {len(self.divergences)} divergence(s) over "
            f"{self.queries_checked} queries:"
        ]
        lines.extend(d.summary() for d in self.divergences)
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Canonicalization
# --------------------------------------------------------------------------- #


def _normalize(value: Value) -> Value:
    """Collapse float noise to 10 significant digits (fold-order safety)."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def _value_key(value: Value):
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, 1, 0.0) if value != value else (1, 0, float(value))  # NaN: last, tied
    if isinstance(value, str):
        return (2, value)
    return (3, repr(value))


def _row_key(row: Row):
    return tuple(_value_key(value) for value in row) + (repr(row),)


def canonicalize(rows: Sequence[Row], ordered: bool) -> List[Row]:
    """Normalize rows for comparison; sort them unless the query is ordered."""
    normalized = [tuple(_normalize(value) for value in row) for row in rows]
    if ordered:
        return normalized
    return sorted(normalized, key=_row_key)


# --------------------------------------------------------------------------- #
# The naive reference executor
# --------------------------------------------------------------------------- #


def _is_join_equality(expression: Expression) -> bool:
    return (
        isinstance(expression, Comparison)
        and expression.op == "="
        and isinstance(expression.left, ColumnRef)
        and isinstance(expression.right, ColumnRef)
        and expression.left.aliases() != expression.right.aliases()
    )


def reference_rows(catalog: Catalog, parsed: ParsedQuery) -> List[Row]:
    """Evaluate a parsed query naively, with no planner and no engines."""
    core = [item for item in parsed.from_items if item.join_type == "inner"]
    outer = [item for item in parsed.from_items if item.join_type == "left"]

    where = conjuncts(parsed.where)
    joins = [c for c in where if _is_join_equality(c)]
    filters = [c for c in where if not _is_join_equality(c)]

    # Nested-loop join over row environments, applying each conjunct as soon
    # as every alias it references is bound.
    envs: List[Dict[str, Value]] = [{}]
    bound: set = set()
    pending_joins = list(joins)
    pending_filters = list(filters)
    for item in core:
        table = catalog.get(item.table)
        columns = [f"{item.alias}.{name}" for name in table.column_names]
        rows = table.to_rows()
        bound.add(item.alias)
        ready_joins = [c for c in pending_joins if c.aliases() <= bound]
        ready_filters = [c for c in pending_filters if c.aliases() <= bound]
        pending_joins = [c for c in pending_joins if c.aliases() - bound]
        pending_filters = [c for c in pending_filters if c.aliases() - bound]
        extended: List[Dict[str, Value]] = []
        for env in envs:
            for row in rows:
                candidate = dict(env)
                candidate.update(zip(columns, row))
                # Join-variable unification: raw value equality, NULL included.
                if any(
                    candidate[c.left.qualified_name] != candidate[c.right.qualified_name]
                    for c in ready_joins
                ):
                    continue
                if any(not c.evaluate(candidate) for c in ready_filters):
                    continue
                extended.append(candidate)
        envs = extended
    for conjunct in pending_filters:  # constant predicates over no aliases
        envs = [env for env in envs if conjunct.evaluate(env)]

    for item in outer:
        table = catalog.get(item.table)
        columns = [f"{item.alias}.{name}" for name in table.column_names]
        rows = table.to_rows()
        on = conjuncts(item.on)
        extended = []
        for env in envs:
            matched = False
            for row in rows:
                candidate = dict(env)
                candidate.update(zip(columns, row))
                if all(c.evaluate(candidate) for c in on):
                    matched = True
                    extended.append(candidate)
            if not matched:
                padded = dict(env)
                padded.update({column: None for column in columns})
                extended.append(padded)
        envs = extended

    star_keys = [
        f"{item.alias}.{name}"
        for item in list(core) + list(outer)
        for name in catalog.get(item.table).column_names
    ]
    output = _reference_output(parsed, star_keys, envs)

    if parsed.distinct:
        output = list(dict.fromkeys(output))
    if parsed.order_by:
        positions = _order_positions(parsed, star_keys)
        output = sorted(output, key=_row_key)
        for order_item, position in reversed(list(zip(parsed.order_by, positions))):
            output = sorted(
                output,
                key=lambda row, p=position: _value_key(row[p]),
                reverse=order_item.descending,
            )
    if parsed.limit is not None:
        if not parsed.order_by:
            output = sorted(output, key=_row_key)
        output = output[: parsed.limit]
    return output


def _reference_output(
    parsed: ParsedQuery,
    star_keys: List[str],
    envs: List[Dict[str, Value]],
) -> List[Row]:
    if parsed.select_star:
        return [tuple(env[key] for key in star_keys) for env in envs]

    if not any(item.function for item in parsed.select_items):
        return [
            tuple(env[item.column] for item in parsed.select_items) for env in envs
        ]

    # Aggregation: dictionary grouping over the group-by key.
    group_columns = list(parsed.group_by)
    groups: Dict[Row, List[Dict[str, Value]]] = {}
    for env in envs:
        key = tuple(env[column] for column in group_columns)
        groups.setdefault(key, []).append(env)
    if not groups and not group_columns:
        groups[()] = []

    rows: List[Row] = []
    for key in groups:
        members = groups[key]
        row: List[Value] = []
        aggregate_env: Dict[str, Value] = {}
        for item in parsed.select_items:
            if item.function is None:
                row.append(key[group_columns.index(item.column)])
                continue
            value = _reference_aggregate(item.function, item.column, members)
            row.append(value)
            aggregate_env[AggregateRef(item.function, item.column).key()] = value
        if parsed.having is not None:
            env = dict(aggregate_env)
            for column, value in zip(group_columns, key):
                env[column] = value
            if not parsed.having.evaluate(env):
                continue
        rows.append(tuple(row))
    return rows


def _reference_aggregate(
    function: str, column: Optional[str], members: Sequence[Dict[str, Value]]
) -> Value:
    if function == "COUNT" and column is None:
        return len(members)
    values = [env[column] for env in members if env[column] is not None]
    if function == "COUNT":
        return len(values)
    if not values:
        return None
    if function == "MIN":
        return min(values)
    if function == "MAX":
        return max(values)
    total = 0.0
    for value in values:
        total += float(value)
    if function == "SUM":
        return total
    if function == "AVG":
        return total / len(values)
    raise ReproError(f"unsupported aggregate {function!r}")


def _order_positions(parsed: ParsedQuery, star_keys: List[str]) -> List[int]:
    """Positions of the ORDER BY targets within the reference output row."""
    positions = []
    for order_item in parsed.order_by:
        position = None
        if parsed.select_star:
            if order_item.column in star_keys:
                position = star_keys.index(order_item.column)
        else:
            for index, item in enumerate(parsed.select_items):
                if order_item.function is not None:
                    if (
                        item.function == order_item.function
                        and item.column == order_item.column
                    ):
                        position = index
                        break
                elif item.function is None and (
                    item.column == order_item.column
                    or item.alias == order_item.column
                ):
                    position = index
                    break
        if position is None:
            raise ReproError(
                f"ORDER BY target {order_item.to_sql()!r} not found in SELECT list"
            )
        positions.append(position)
    return positions


# --------------------------------------------------------------------------- #
# Running the matrix
# --------------------------------------------------------------------------- #


class DifferentialRunner:
    """Owns the engine sessions and runs queries across the config matrix."""

    def __init__(
        self,
        catalog: Catalog,
        configs: Optional[Sequence[EngineConfig]] = None,
    ) -> None:
        self.catalog = catalog
        self.configs = list(configs) if configs is not None else default_configs()
        self._serial = Database(catalog=catalog)
        self._parallel = Database(
            catalog=catalog, parallelism=2, parallel_mode="thread"
        )
        self._process = Database(
            catalog=catalog, parallelism=2, parallel_mode="process"
        )

    def run_config(self, sql: str, config: EngineConfig) -> List[Row]:
        """Execute one query under one configuration, returning raw rows."""
        if not config.parallel:
            session = self._serial
        elif config.backend == "process":
            session = self._process
        else:
            session = self._parallel
        with kernels_enabled(config.kernels):
            return session.execute(
                sql, options=ExecOptions(engine=config.engine)
            ).rows()

    def check_sql(self, sql: str) -> List[Divergence]:
        """Run one query on every configuration against the reference."""
        parsed = parse_sql(sql)
        ordered = bool(parsed.order_by)
        expected = canonicalize(reference_rows(self.catalog, parsed), ordered)
        divergences: List[Divergence] = []
        for config in self.configs:
            try:
                actual = canonicalize(self.run_config(sql, config), ordered)
            except ReproError as exc:
                divergences.append(
                    Divergence(
                        sql=sql,
                        config=config.label(),
                        expected=expected,
                        actual=[],
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            if actual != expected:
                divergences.append(
                    Divergence(
                        sql=sql,
                        config=config.label(),
                        expected=expected,
                        actual=actual,
                    )
                )
        return divergences

    def check(
        self,
        queries: Sequence[GeneratedQuery],
        shrink: bool = True,
    ) -> DifferentialReport:
        """Run a generated corpus through the matrix, shrinking any failure."""
        report = DifferentialReport(configs=len(self.configs))
        for query in queries:
            divergences = self.check_sql(query.sql)
            report.queries_checked += 1
            if not divergences:
                continue
            minimized = None
            if shrink:
                minimized = shrink_failing_query(
                    query.parsed, lambda candidate: bool(self.check_sql(candidate.to_sql()))
                )
            for divergence in divergences:
                divergence.minimized_sql = (
                    minimized.to_sql() if minimized is not None else None
                )
            report.divergences.extend(divergences)
        return report

    def close(self) -> None:
        # The pools are process-wide, so closing either parallel session
        # tears both down; both closes are idempotent.
        self._process.close()
        self._parallel.close()


def run_differential(
    catalog: Catalog,
    queries: Sequence[GeneratedQuery],
    configs: Optional[Sequence[EngineConfig]] = None,
    shrink: bool = True,
) -> DifferentialReport:
    """Convenience wrapper: build a runner, check the corpus, close it."""
    runner = DifferentialRunner(catalog, configs=configs)
    try:
        return runner.check(queries, shrink=shrink)
    finally:
        runner.close()


# --------------------------------------------------------------------------- #
# The shrinker
# --------------------------------------------------------------------------- #


def _prune_alias(parsed: ParsedQuery, alias: str) -> Optional[ParsedQuery]:
    """Remove a FROM item and everything that references its alias."""
    candidate = copy.deepcopy(parsed)
    before = len(candidate.from_items)
    candidate.from_items = [
        item for item in candidate.from_items if item.alias != alias
    ]
    if len(candidate.from_items) == before or not candidate.from_items:
        return None

    prefix = f"{alias}."

    def references(text: Optional[str]) -> bool:
        return text is not None and prefix in text

    kept_where = [
        c for c in conjuncts(candidate.where) if alias not in c.aliases()
    ]
    candidate.where = _rebuild_and(kept_where)
    candidate.select_items = [
        item for item in candidate.select_items if not references(item.column)
    ]
    candidate.group_by = [c for c in candidate.group_by if not c.startswith(prefix)]
    candidate.order_by = [
        item for item in candidate.order_by if not references(item.column)
    ]
    if candidate.having is not None and prefix in candidate.having.to_sql():
        candidate.having = None
    if not candidate.select_items and not candidate.select_star:
        candidate.select_items = [SelectItem("COUNT", None)]
        candidate.group_by = []
        candidate.order_by = []
        candidate.having = None
        candidate.distinct = False
    return candidate


def _rebuild_and(items: List[Expression]) -> Optional[Expression]:
    from repro.query.expressions import And

    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(list(items))


def _shrink_candidates(parsed: ParsedQuery):
    """Yield progressively smaller variants of a failing query."""
    # Big structural cuts first: drop whole FROM items (left joins before
    # inner tables, never the first table).
    for item in reversed(parsed.from_items[1:]):
        candidate = _prune_alias(parsed, item.alias)
        if candidate is not None:
            yield candidate

    # Drop non-join WHERE conjuncts one at a time (join equalities stay, so
    # dropping a filter never turns the query into a cross product).
    where = conjuncts(parsed.where)
    for index, conjunct in enumerate(where):
        if _is_join_equality(conjunct):
            continue
        candidate = copy.deepcopy(parsed)
        kept = conjuncts(candidate.where)
        del kept[index]
        candidate.where = _rebuild_and(kept)
        yield candidate

    # Clause-level cuts.
    if parsed.having is not None:
        candidate = copy.deepcopy(parsed)
        candidate.having = None
        yield candidate
    if parsed.order_by:
        candidate = copy.deepcopy(parsed)
        candidate.order_by = []
        yield candidate
        for index in range(len(parsed.order_by)):
            candidate = copy.deepcopy(parsed)
            del candidate.order_by[index]
            yield candidate
    if parsed.limit is not None:
        candidate = copy.deepcopy(parsed)
        candidate.limit = None
        yield candidate
    if parsed.distinct:
        candidate = copy.deepcopy(parsed)
        candidate.distinct = False
        yield candidate

    # Shrink IN lists by halves.
    for index, conjunct in enumerate(conjuncts(parsed.where)):
        if isinstance(conjunct, InList) and len(conjunct.values) > 1:
            candidate = copy.deepcopy(parsed)
            kept = conjuncts(candidate.where)
            old = kept[index]
            # Rebuild rather than mutate: InList caches its value set.
            kept[index] = InList(
                old.operand, old.values[: max(1, len(old.values) // 2)], old.negated
            )
            candidate.where = _rebuild_and(kept)
            yield candidate

    # Drop SELECT items (only when no clause depends on output positions).
    if (
        parsed.having is None
        and not parsed.order_by
        and len(parsed.select_items) > 1
    ):
        for index in range(len(parsed.select_items)):
            candidate = copy.deepcopy(parsed)
            removed = candidate.select_items.pop(index)
            if removed.function is None and removed.column in candidate.group_by:
                continue  # selected group keys must stay selected
            yield candidate


def shrink_failing_query(
    parsed: ParsedQuery,
    still_fails: Callable[[ParsedQuery], bool],
    max_attempts: int = 300,
) -> ParsedQuery:
    """Greedily minimize a failing query while ``still_fails`` holds.

    Each round tries every candidate mutation; the first one that still
    fails becomes the new baseline and the round restarts.  Stops at a
    fixed point (no candidate fails) or after ``max_attempts`` candidate
    evaluations, whichever comes first.  The returned query is guaranteed
    to still fail (the original is returned unchanged if nothing smaller
    does).
    """
    current = copy.deepcopy(parsed)
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if attempts > max_attempts:
                break
            try:
                failing = still_fails(candidate)
            except ReproError:
                failing = False  # a candidate the planner rejects is useless
            if failing:
                current = candidate
                progress = True
                break
    return current
