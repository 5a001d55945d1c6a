"""Translate parsed SQL into conjunctive queries against a catalog.

The planner performs the logical rewrites the paper assumes before joining
(Section 2.1):

* selections (single-table predicates) are pushed into the base tables,
* equality join predicates are turned into shared query variables,
* projections and aggregates are deferred until after the full join,
* self-joins are handled by giving each occurrence its own alias.

The output is a :class:`LogicalQuery`: a full
:class:`~repro.query.conjunctive.ConjunctiveQuery` plus the deferred
post-join work (residual predicates, aggregates, group-by, HAVING,
ORDER BY / LIMIT / DISTINCT, and left-outer extensions).

``LEFT OUTER JOIN`` items are *excluded* from the conjunctive query — the
core inner join runs unchanged on whichever engine was selected (the
vectorized kernels still apply to it) and each optional table becomes a
:class:`LeftJoinSpec` the final pipeline's sink applies as a hash extension
(:class:`repro.engine.aggregates.PostJoinSink`): matching rows are appended,
unmatched core rows are NULL-padded.  Single-alias conjuncts
of the ``ON`` condition are pushed down into the optional table at plan
time, exactly like WHERE pushdown on core atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, islice
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import QueryError
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.expressions import (
    AggregateRef,
    ColumnRef,
    Comparison,
    Expression,
    conjuncts,
)
from repro.query.sql import FromItem, OrderItem, ParsedQuery, SelectItem, parse_sql
from repro.storage.catalog import Catalog
from repro.storage.table import Table


@dataclass
class ResolvedSelectItem:
    """A SELECT item with its column resolved to a query variable."""

    function: Optional[str]  # None for plain column, else COUNT/MIN/MAX/SUM/AVG
    variable: Optional[str]  # None only for COUNT(*)
    label: str

    def is_aggregate(self) -> bool:
        """Whether this item aggregates over the join result."""
        return self.function is not None


@dataclass
class ResolvedOrderItem:
    """One ORDER BY key, resolved to a position in the final output row."""

    position: int
    descending: bool


@dataclass
class LeftJoinSpec:
    """One LEFT OUTER JOIN, lowered for the session's post-join extension.

    ``table`` already has the single-alias ``ON`` conjuncts pushed down.
    ``keys`` pairs each equality key's core-side query variable with the
    optional table's column index; ``variables`` are the fresh variables
    assigned to the optional table's columns (appended to the join-result
    layout by the extension, NULL-padded for unmatched core rows).
    """

    alias: str
    table: Table
    keys: List[Tuple[str, int]]
    variables: List[str]


@dataclass
class LogicalQuery:
    """A planned query: full conjunctive join plus deferred post-join work.

    Read-only once planned: nothing in ``src/`` writes to a ``LogicalQuery``,
    its atoms or their tables after :meth:`Planner.plan` returns, so one
    instance is shared by every execution that hits the session's
    prepared-query cache (:meth:`repro.engine.session.Database._prepare`),
    concurrent ones included.

    ``sources`` is what the plan was derived from: for every FROM item
    (inner and LEFT JOIN) the catalog name, the ``Table`` the planner
    resolved it to and that table's ``version`` at that moment.  Atoms of
    unfiltered tables *share* the catalog table's columns, so a plan whose
    sources changed must not be executed again.
    """

    query: ConjunctiveQuery
    select_items: List[ResolvedSelectItem]
    select_star: bool
    group_by: List[str]
    residual_predicates: List[Expression] = field(default_factory=list)
    column_to_variable: Dict[str, str] = field(default_factory=dict)
    left_joins: List[LeftJoinSpec] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[ResolvedOrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    sources: List[Tuple[str, Table, int]] = field(default_factory=list)

    def staleness(self, catalog: Catalog) -> Optional[str]:
        """Why this plan must not run against ``catalog`` again, if anything.

        ``"replaced"``: a source name now resolves to another table (or to
        none); ``"version"``: a source was appended to since planning.  The
        first stale source in FROM order decides.
        """
        for name, table, version in self.sources:
            if catalog.maybe_get(name) is not table:
                return "replaced"
            if table.version != version:
                return "version"
        return None

    def has_aggregates(self) -> bool:
        """Whether any SELECT item is an aggregate."""
        return any(item.is_aggregate() for item in self.select_items)

    def only_count_star(self) -> bool:
        """Whether the SELECT list is grouping-free ``COUNT(*)`` items only.

        A bare row count answers such a query: the session picks a count-only
        sink for it and the aggregation reads the total off the join result.
        """
        return (
            not self.select_star
            and bool(self.select_items)
            and not self.group_by
            and all(
                item.function == "COUNT" and item.variable is None
                for item in self.select_items
            )
        )

    def needs_final_pass(self) -> bool:
        """Whether the query has post-aggregation work (HAVING/ORDER/LIMIT/DISTINCT)."""
        return (
            self.having is not None
            or bool(self.order_by)
            or self.limit is not None
            or self.distinct
        )

    def needed_variables(self) -> Tuple[str, ...]:
        """The core-query variables anything after the join reads.

        SELECT items first (so a plain projection of distinct columns is the
        identity over the join rows), then GROUP BY, LEFT JOIN keys and
        residual-predicate operands; every core variable for ``SELECT *``.
        This is the final pipeline's output: a variable not listed here is
        never decoded, and a probe that binds only such variables folds into
        the bag multiplicity.
        """
        head = self.query.output_variables
        if self.select_star:
            return tuple(head)
        read = [item.variable for item in self.select_items]
        read += self.group_by
        read += [variable for spec in self.left_joins for variable, _column in spec.keys]
        residual = {n.split(".", 1)[1] for p in self.residual_predicates for n in p.columns()}
        read += [variable for variable in head if variable in residual]
        # LEFT JOIN columns (and COUNT(*)'s ``None``) are not core variables.
        return tuple(dict.fromkeys(variable for variable in read if variable in head))

    def result_variables(self) -> List[str]:
        """The join-result row layout after left-outer extensions."""
        variables = list(self.needed_variables())
        for spec in self.left_joins:
            variables.extend(spec.variables)
        return variables

    def output_labels(self) -> List[str]:
        """Labels of the result columns, in SELECT order."""
        if self.select_star:
            return self.result_variables()
        return [item.label for item in self.select_items]


class _UnionFind:
    """Union-find over qualified column names, for join-variable classes."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, first: str, second: str) -> None:
        root_first = self.find(first)
        root_second = self.find(second)
        if root_first != root_second:
            self._parent[root_second] = root_first

    def groups(self) -> Dict[str, List[str]]:
        result: Dict[str, List[str]] = {}
        for item in self._parent:
            result.setdefault(self.find(item), []).append(item)
        return {root: sorted(members) for root, members in result.items()}


class Planner:
    """Plans parsed SQL queries against a :class:`~repro.storage.catalog.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def plan_sql(self, sql_text: str, name: str = "") -> LogicalQuery:
        """Parse and plan a SQL string."""
        return self.plan(parse_sql(sql_text), name=name)

    def plan(self, parsed: ParsedQuery, name: str = "") -> LogicalQuery:
        """Plan an already-parsed query."""
        alias_tables = self._resolve_from(parsed.from_items)
        # Versions are read before any table is (the pushdown filters scan
        # them): an append racing the planner leaves a source that reads stale.
        sources = [
            (item.table, alias_tables[item.alias], alias_tables[item.alias].version)
            for item in parsed.from_items
        ]
        core_tables = {
            item.alias: alias_tables[item.alias]
            for item in parsed.from_items
            if item.join_type == "inner"
        }
        outer_items = [item for item in parsed.from_items if item.join_type == "left"]
        outer_aliases = {item.alias for item in outer_items}

        where_conjuncts = [
            self._qualify(conjunct, alias_tables) for conjunct in conjuncts(parsed.where)
        ]
        for conjunct in where_conjuncts:
            touched = conjunct.aliases() & outer_aliases
            if touched:
                raise QueryError(
                    f"WHERE predicate references LEFT JOIN alias(es) "
                    f"{sorted(touched)}; filter optional tables in their ON "
                    f"condition instead (WHERE would turn the outer join back "
                    f"into an inner join)"
                )

        join_classes, intra_equalities = self._join_classes(where_conjuncts, core_tables)
        pushdown, residual = self._split_predicates(where_conjuncts)
        variables, column_to_variable = self._assign_variables(
            core_tables, join_classes
        )

        atoms = self._build_atoms(
            core_tables, pushdown, intra_equalities, variables
        )
        query = ConjunctiveQuery(atoms, name=name)

        left_joins = self._resolve_left_joins(
            outer_items, alias_tables, outer_aliases, column_to_variable
        )

        select_items = self._resolve_select(
            parsed.select_items, parsed.select_star, alias_tables, column_to_variable
        )
        group_by = [
            self._resolve_column(column, alias_tables, column_to_variable)
            for column in parsed.group_by
        ]
        residual = [self._rewrite_to_variables(expr, column_to_variable) for expr in residual]

        result_variables = list(query.output_variables)
        for spec in left_joins:
            result_variables.extend(spec.variables)

        having = self._resolve_having(
            parsed, select_items, alias_tables, column_to_variable
        )
        order_by = self._resolve_order_by(
            parsed, select_items, alias_tables, column_to_variable, result_variables
        )

        return LogicalQuery(
            query=query,
            select_items=select_items,
            select_star=parsed.select_star,
            group_by=group_by,
            residual_predicates=residual,
            column_to_variable=column_to_variable,
            left_joins=left_joins,
            having=having,
            order_by=order_by,
            limit=parsed.limit,
            distinct=parsed.distinct,
            sources=sources,
        )

    # ------------------------------------------------------------------ #
    # FROM resolution
    # ------------------------------------------------------------------ #

    def _resolve_from(self, from_items: Sequence[FromItem]) -> Dict[str, Table]:
        alias_tables: Dict[str, Table] = {}
        for item in from_items:
            if item.alias in alias_tables:
                raise QueryError(f"duplicate alias {item.alias!r} in FROM clause")
            alias_tables[item.alias] = self.catalog.get(item.table)
        return alias_tables

    # ------------------------------------------------------------------ #
    # Column qualification
    # ------------------------------------------------------------------ #

    def _qualify(self, expression: Expression, alias_tables: Dict[str, Table]) -> Expression:
        """Rewrite bare column references to ``alias.column`` form."""
        if isinstance(expression, ColumnRef):
            return ColumnRef(self._qualify_name(expression.qualified_name, alias_tables))
        for attribute in ("left", "right", "operand", "low", "high"):
            if hasattr(expression, attribute):
                setattr(
                    expression,
                    attribute,
                    self._qualify(getattr(expression, attribute), alias_tables),
                )
        if hasattr(expression, "operands"):
            expression.operands = [
                self._qualify(op, alias_tables) for op in expression.operands
            ]
        return expression

    def _qualify_name(self, name: str, alias_tables: Dict[str, Table]) -> str:
        if "." in name:
            alias, column = name.split(".", 1)
            if alias not in alias_tables:
                raise QueryError(f"unknown alias {alias!r} in column {name!r}")
            if not alias_tables[alias].has_column(column):
                raise QueryError(
                    f"table aliased {alias!r} has no column {column!r}"
                )
            return name
        owners = [
            alias for alias, table in alias_tables.items() if table.has_column(name)
        ]
        if not owners:
            raise QueryError(f"column {name!r} not found in any FROM table")
        if len(owners) > 1:
            raise QueryError(
                f"column {name!r} is ambiguous across aliases {sorted(owners)}"
            )
        return f"{owners[0]}.{name}"

    # ------------------------------------------------------------------ #
    # Predicate classification
    # ------------------------------------------------------------------ #

    @staticmethod
    def _is_cross_alias_equality(expression: Expression) -> bool:
        return isinstance(expression, Comparison) and expression.is_equi_join()

    @staticmethod
    def _is_same_alias_column_equality(expression: Expression) -> bool:
        return (
            isinstance(expression, Comparison)
            and expression.op == "="
            and isinstance(expression.left, ColumnRef)
            and isinstance(expression.right, ColumnRef)
            and expression.left.aliases() == expression.right.aliases()
        )

    def _join_classes(
        self,
        where_conjuncts: Sequence[Expression],
        alias_tables: Dict[str, Table],
    ) -> Tuple[_UnionFind, Dict[str, List[Expression]]]:
        """Build join-variable equivalence classes and same-alias equalities."""
        union_find = _UnionFind()
        intra: Dict[str, List[Expression]] = {alias: [] for alias in alias_tables}
        for conjunct in where_conjuncts:
            if self._is_cross_alias_equality(conjunct):
                union_find.union(
                    conjunct.left.qualified_name, conjunct.right.qualified_name
                )
            elif self._is_same_alias_column_equality(conjunct):
                alias = next(iter(conjunct.left.aliases()))
                intra[alias].append(conjunct)
        return union_find, intra

    def _split_predicates(
        self, where_conjuncts: Sequence[Expression]
    ) -> Tuple[Dict[str, List[Expression]], List[Expression]]:
        """Split conjuncts into per-alias pushdowns and residual predicates."""
        pushdown: Dict[str, List[Expression]] = {}
        residual: List[Expression] = []
        for conjunct in where_conjuncts:
            if self._is_cross_alias_equality(conjunct):
                continue  # becomes a shared variable, not a filter
            aliases = conjunct.aliases()
            if len(aliases) == 1:
                alias = next(iter(aliases))
                pushdown.setdefault(alias, []).append(conjunct)
            elif len(aliases) == 0:
                # Constant predicate: treat as a residual filter.
                residual.append(conjunct)
            else:
                residual.append(conjunct)
        return pushdown, residual

    # ------------------------------------------------------------------ #
    # Variable assignment
    # ------------------------------------------------------------------ #

    def _assign_variables(
        self,
        alias_tables: Dict[str, Table],
        join_classes: _UnionFind,
    ) -> Tuple[Dict[str, Dict[str, str]], Dict[str, str]]:
        """Assign a variable name to every (alias, column).

        Columns connected by equality join predicates share a variable.  If a
        class contains two columns of the *same* alias, only the first keeps
        the shared variable; the others get fresh variables (the planner also
        pushes an equality filter for them, see ``_build_atoms``), preserving
        the paper's requirement that atom variables be distinct.
        """
        class_members = join_classes.groups()
        column_class: Dict[str, str] = {}
        for root, members in class_members.items():
            for member in members:
                column_class[member] = root

        used_names: Set[str] = set()
        class_variable: Dict[str, str] = {}
        column_to_variable: Dict[str, str] = {}
        variables: Dict[str, Dict[str, str]] = {alias: {} for alias in alias_tables}

        def fresh(base: str) -> str:
            candidate = base
            suffix = 1
            while candidate in used_names:
                suffix += 1
                candidate = f"{base}_{suffix}"
            used_names.add(candidate)
            return candidate

        for alias, table in alias_tables.items():
            for column in table.column_names:
                qualified = f"{alias}.{column}"
                root = column_class.get(qualified)
                if root is not None:
                    if root not in class_variable:
                        class_variable[root] = fresh(root.replace(".", "_"))
                    variable = class_variable[root]
                    if variable in variables[alias].values():
                        # Same-alias collision within a join class: give this
                        # column its own variable instead.
                        variable = fresh(qualified.replace(".", "_"))
                else:
                    variable = fresh(qualified.replace(".", "_"))
                variables[alias][column] = variable
                column_to_variable[qualified] = variable
        return variables, column_to_variable

    # ------------------------------------------------------------------ #
    # Atom construction (selection pushdown)
    # ------------------------------------------------------------------ #

    def _build_atoms(
        self,
        alias_tables: Dict[str, Table],
        pushdown: Dict[str, List[Expression]],
        intra_equalities: Dict[str, List[Expression]],
        variables: Dict[str, Dict[str, str]],
    ) -> List[Atom]:
        atoms: List[Atom] = []
        for alias, table in alias_tables.items():
            predicates = list(pushdown.get(alias, []))
            # Same-alias equalities coming from join classes collapsing two
            # columns of this alias: enforce them as filters.
            predicates.extend(intra_equalities.get(alias, []))
            base = _pushed_down(table, alias, predicates)
            atom_variables = [variables[alias][column] for column in table.column_names]
            atoms.append(Atom(alias, base, atom_variables))
        return atoms

    # ------------------------------------------------------------------ #
    # SELECT resolution
    # ------------------------------------------------------------------ #

    def _resolve_column(
        self,
        column: str,
        alias_tables: Dict[str, Table],
        column_to_variable: Dict[str, str],
    ) -> str:
        qualified = self._qualify_name(column, alias_tables)
        return column_to_variable[qualified]

    def _resolve_select(
        self,
        select_items: Sequence[SelectItem],
        select_star: bool,
        alias_tables: Dict[str, Table],
        column_to_variable: Dict[str, str],
    ) -> List[ResolvedSelectItem]:
        if select_star:
            return []
        resolved = []
        for item in select_items:
            if item.function is not None and item.column is None:
                resolved.append(ResolvedSelectItem(item.function, None, item.label()))
                continue
            variable = self._resolve_column(
                item.column, alias_tables, column_to_variable
            )
            resolved.append(ResolvedSelectItem(item.function, variable, item.label()))
        return resolved

    # ------------------------------------------------------------------ #
    # LEFT OUTER JOIN lowering
    # ------------------------------------------------------------------ #

    def _resolve_left_joins(
        self,
        outer_items: Sequence[FromItem],
        alias_tables: Dict[str, Table],
        outer_aliases: Set[str],
        column_to_variable: Dict[str, str],
    ) -> List[LeftJoinSpec]:
        """Lower LEFT JOIN items into post-join extension specs.

        Splits each ``ON`` condition into equality key pairs (core variable
        vs. optional column) and single-alias pushdown filters; anything
        else — non-equality cross conjuncts, references to other optional
        aliases, conjuncts not touching the joined table — is rejected.
        Fresh variables for the optional columns are appended to
        ``column_to_variable`` so SELECT/GROUP BY/ORDER BY can reference
        them like any other column.
        """
        specs: List[LeftJoinSpec] = []
        used_names = set(column_to_variable.values())

        def fresh(base: str) -> str:
            candidate = base
            suffix = 1
            while candidate in used_names:
                suffix += 1
                candidate = f"{base}_{suffix}"
            used_names.add(candidate)
            return candidate

        for item in outer_items:
            alias = item.alias
            table = alias_tables[alias]
            on_conjuncts = [
                self._qualify(conjunct, alias_tables) for conjunct in conjuncts(item.on)
            ]
            key_columns: List[Tuple[str, str]] = []  # (core qualified, opt column)
            local: List[Expression] = []
            for conjunct in on_conjuncts:
                refs = conjunct.aliases()
                if refs == {alias} or not refs:
                    local.append(conjunct)
                    continue
                if alias not in refs:
                    raise QueryError(
                        f"LEFT JOIN {alias!r}: ON conjunct must reference the "
                        f"joined table (got aliases {sorted(refs)})"
                    )
                others = refs - {alias}
                if others & outer_aliases:
                    raise QueryError(
                        f"LEFT JOIN {alias!r}: ON condition may not reference "
                        f"other LEFT JOIN aliases {sorted(others & outer_aliases)}"
                    )
                if not self._is_cross_alias_equality(conjunct):
                    raise QueryError(
                        f"LEFT JOIN {alias!r}: only column equalities between "
                        f"the joined table and core tables are supported in ON"
                    )
                left_name = conjunct.left.qualified_name
                right_name = conjunct.right.qualified_name
                if left_name.split(".", 1)[0] == alias:
                    opt_name, core_name = left_name, right_name
                else:
                    opt_name, core_name = right_name, left_name
                key_columns.append((core_name, opt_name.split(".", 1)[1]))
            if not key_columns:
                raise QueryError(
                    f"LEFT JOIN {alias!r}: ON condition needs at least one "
                    f"equality against a core table column"
                )
            filtered = _pushed_down(table, alias, local)
            key_pairs = [
                (column_to_variable[core_name], table.column_index(opt_column))
                for core_name, opt_column in key_columns
            ]
            opt_variables = [
                fresh(f"{alias}_{column}") for column in table.column_names
            ]
            for column, variable in zip(table.column_names, opt_variables):
                column_to_variable[f"{alias}.{column}"] = variable
            specs.append(LeftJoinSpec(alias, filtered, key_pairs, opt_variables))
        return specs

    # ------------------------------------------------------------------ #
    # HAVING / ORDER BY resolution
    # ------------------------------------------------------------------ #

    def _resolve_having(
        self,
        parsed: ParsedQuery,
        select_items: List[ResolvedSelectItem],
        alias_tables: Dict[str, Table],
        column_to_variable: Dict[str, str],
    ) -> Optional[Expression]:
        """Rewrite the HAVING condition to reference final output positions.

        Aggregate references and group-by columns are both resolved to the
        position of the matching SELECT item and rewritten to
        ``ColumnRef("_out.<position>")``; the post-aggregation pass
        (:func:`repro.engine.aggregates.apply_having`) evaluates the
        condition against each finalized output row.
        """
        if parsed.having is None:
            return None
        if parsed.select_star or not any(item.is_aggregate() for item in select_items):
            raise QueryError(
                "HAVING requires an aggregated SELECT list "
                "(it filters groups after aggregation)"
            )
        return self._rewrite_having(
            parsed.having, select_items, alias_tables, column_to_variable
        )

    def _rewrite_having(
        self,
        expression: Expression,
        select_items: List[ResolvedSelectItem],
        alias_tables: Dict[str, Table],
        column_to_variable: Dict[str, str],
    ) -> Expression:
        if isinstance(expression, AggregateRef):
            variable = None
            if expression.column is not None:
                variable = self._resolve_column(
                    expression.column, alias_tables, column_to_variable
                )
            for position, item in enumerate(select_items):
                if item.function == expression.function and item.variable == variable:
                    return ColumnRef(f"_out.{position}")
            raise QueryError(
                f"HAVING aggregate {expression.to_sql()} must also appear in "
                f"the SELECT list"
            )
        if isinstance(expression, ColumnRef):
            variable = self._resolve_column(
                expression.qualified_name, alias_tables, column_to_variable
            )
            for position, item in enumerate(select_items):
                if item.function is None and item.variable == variable:
                    return ColumnRef(f"_out.{position}")
            raise QueryError(
                f"HAVING column {expression.qualified_name!r} must be a "
                f"selected GROUP BY column"
            )
        for attribute in ("left", "right", "operand", "low", "high"):
            if hasattr(expression, attribute):
                setattr(
                    expression,
                    attribute,
                    self._rewrite_having(
                        getattr(expression, attribute),
                        select_items,
                        alias_tables,
                        column_to_variable,
                    ),
                )
        if hasattr(expression, "operands"):
            expression.operands = [
                self._rewrite_having(
                    operand, select_items, alias_tables, column_to_variable
                )
                for operand in expression.operands
            ]
        return expression

    def _resolve_order_by(
        self,
        parsed: ParsedQuery,
        select_items: List[ResolvedSelectItem],
        alias_tables: Dict[str, Table],
        column_to_variable: Dict[str, str],
        result_variables: List[str],
    ) -> List[ResolvedOrderItem]:
        """Resolve ORDER BY items to positions in the final output row."""
        resolved: List[ResolvedOrderItem] = []
        for item in parsed.order_by:
            position = self._order_position(
                item,
                select_items,
                parsed.select_star,
                alias_tables,
                column_to_variable,
                result_variables,
            )
            resolved.append(ResolvedOrderItem(position, item.descending))
        return resolved

    def _order_position(
        self,
        item: OrderItem,
        select_items: List[ResolvedSelectItem],
        select_star: bool,
        alias_tables: Dict[str, Table],
        column_to_variable: Dict[str, str],
        result_variables: List[str],
    ) -> int:
        if select_star:
            if item.function is not None:
                raise QueryError(
                    "ORDER BY aggregates require an aggregated SELECT list"
                )
            variable = self._resolve_column(
                item.column, alias_tables, column_to_variable
            )
            return result_variables.index(variable)
        if item.function is not None:
            variable = None
            if item.column is not None:
                variable = self._resolve_column(
                    item.column, alias_tables, column_to_variable
                )
            for position, selected in enumerate(select_items):
                if selected.function == item.function and selected.variable == variable:
                    return position
            raise QueryError(
                f"ORDER BY aggregate {item.to_sql()} must also appear in the "
                f"SELECT list"
            )
        if item.column is not None:
            # Output labels (including AS aliases) win over column resolution.
            for position, selected in enumerate(select_items):
                if selected.label == item.column:
                    return position
            variable = self._resolve_column(
                item.column, alias_tables, column_to_variable
            )
            for position, selected in enumerate(select_items):
                if selected.function is None and selected.variable == variable:
                    return position
        raise QueryError(
            f"ORDER BY item {item.to_sql()!r} is not in the SELECT list"
        )

    # ------------------------------------------------------------------ #
    # Residual predicate rewriting
    # ------------------------------------------------------------------ #

    def _rewrite_to_variables(
        self, expression: Expression, column_to_variable: Dict[str, str]
    ) -> Expression:
        """Rewrite qualified column refs to variable refs for post-join eval.

        Residual predicates are compiled against join rows, whose positions
        are named ``_var.<variable>``, so column references are renamed in
        place.
        """
        if isinstance(expression, ColumnRef):
            variable = column_to_variable[expression.qualified_name]
            # Variables contain no dot, but ColumnRef requires one; store the
            # variable under a reserved pseudo-alias.
            rewritten = ColumnRef(f"_var.{variable}")
            return rewritten
        for attribute in ("left", "right", "operand", "low", "high"):
            if hasattr(expression, attribute):
                setattr(
                    expression,
                    attribute,
                    self._rewrite_to_variables(
                        getattr(expression, attribute), column_to_variable
                    ),
                )
        if hasattr(expression, "operands"):
            expression.operands = [
                self._rewrite_to_variables(op, column_to_variable)
                for op in expression.operands
            ]
        return expression


#: Rows a pushdown filter masks per batch (bounds the row tuples held at once).
PUSHDOWN_BATCH_ROWS = 4096


def _pushed_down(table: Table, alias: str, predicates: Sequence[Expression]) -> Table:
    """``table`` as ``alias``, less the rows the single-alias ``predicates`` reject.

    The filters compile once (:func:`repro.kernels.predicates.compile_batch_predicate`,
    over ``alias.column`` names) and mask the rows a batch at a time.
    """
    # Imported here: the kernels import the engine, which imports this module.
    from repro.kernels.predicates import compile_batch_predicate

    mask = compile_batch_predicate(predicates, [f"{alias}.{name}" for name in table.column_names])
    if mask is None:
        return Table(alias, table.columns)
    rows = table.iter_rows()
    keep = chain.from_iterable(
        mask(list(islice(rows, PUSHDOWN_BATCH_ROWS)))
        for _ in range(0, table.num_rows, PUSHDOWN_BATCH_ROWS)
    )
    return table.take(list(compress(range(table.num_rows), keep)), name=alias)
