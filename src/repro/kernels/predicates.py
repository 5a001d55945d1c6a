"""Batch predicate evaluation: the one compiler of WHERE / ON filters.

Evaluating a predicate row at a time costs one environment dict plus one
AST walk per row.  This module compiles a predicate list against a fixed
row layout ONCE, into plain closures over tuple positions, and evaluates
whole row batches through them — the batch analogue of the join kernels.
Both kinds of filter go through it: pushdown filters over a base table's
rows (names ``alias.column``) at plan time, and residual predicates over
join rows (names ``_var.<variable>``) in the final pipeline's
:class:`~repro.engine.aggregates.PostJoinSink`.

The compiled form is exactly ``evaluate()``-equivalent, including the
three-valued-logic conventions (``None`` operands make comparisons, LIKE,
IN, and BETWEEN false).  Unknown future AST nodes fall back to the generic
``evaluate(env)`` path per row, so the compiler can never change semantics.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import QueryError
from repro.query.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    _COMPARISONS,
)

RowTest = Callable[[tuple], bool]


def _compile_value(expression: Expression, positions):
    """A ``row -> value`` getter for a scalar sub-expression."""
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ColumnRef):
        name = expression.qualified_name
        try:
            index = positions[name]
        except KeyError:
            raise QueryError(
                f"column {name!r} is not bound in the environment"
            ) from None
        return lambda row: row[index]
    return None


def _compile_test(expression: Expression, positions, names) -> RowTest:
    """A ``row -> bool`` test equivalent to ``expression.evaluate``."""
    if isinstance(expression, Comparison):
        left = _compile_value(expression.left, positions)
        right = _compile_value(expression.right, positions)
        if left is not None and right is not None:
            op = _COMPARISONS[expression.op]

            def test(row, _l=left, _r=right, _op=op):
                lv = _l(row)
                rv = _r(row)
                if lv is None or rv is None:
                    return False
                return _op(lv, rv)

            return test
    elif isinstance(expression, And):
        tests = [_compile_test(op, positions, names) for op in expression.operands]
        return lambda row: all(test(row) for test in tests)
    elif isinstance(expression, Or):
        tests = [_compile_test(op, positions, names) for op in expression.operands]
        return lambda row: any(test(row) for test in tests)
    elif isinstance(expression, Not):
        inner = _compile_test(expression.operand, positions, names)
        return lambda row: not inner(row)
    elif isinstance(expression, Like):
        operand = _compile_value(expression.operand, positions)
        if operand is not None:
            match = expression._regex.match
            negated = expression.negated

            def test(row, _get=operand, _match=match, _negated=negated):
                value = _get(row)
                if value is None:
                    return False
                matched = bool(_match(str(value)))
                return (not matched) if _negated else matched

            return test
    elif isinstance(expression, InList):
        operand = _compile_value(expression.operand, positions)
        if operand is not None:
            members = expression._value_set
            negated = expression.negated

            def test(row, _get=operand, _members=members, _negated=negated):
                value = _get(row)
                if value is None:
                    return False
                member = value in _members
                return (not member) if _negated else member

            return test
    elif isinstance(expression, Between):
        operand = _compile_value(expression.operand, positions)
        low = _compile_value(expression.low, positions)
        high = _compile_value(expression.high, positions)
        if operand is not None and low is not None and high is not None:

            def test(row, _get=operand, _low=low, _high=high):
                value = _get(row)
                lo = _low(row)
                hi = _high(row)
                if value is None or lo is None or hi is None:
                    return False
                return lo <= value <= hi

            return test
    elif isinstance(expression, IsNull):
        operand = _compile_value(expression.operand, positions)
        if operand is not None:
            negated = expression.negated
            if negated:
                return lambda row, _get=operand: _get(row) is not None
            return lambda row, _get=operand: _get(row) is None

    # Nested scalar expressions or unknown node types: generic per-row
    # evaluation against an environment keyed by the row's names.
    def fallback(row, _expr=expression, _names=names):
        return bool(_expr.evaluate(dict(zip(_names, row))))

    return fallback


def compile_batch_predicate(
    predicates: Sequence[Expression], names: Sequence[str]
) -> Optional[Callable[[Sequence[tuple]], List[bool]]]:
    """Compile a conjunction of predicates into a batch mask function.

    ``names`` are the qualified names the expressions reference, one per
    row position: ``alias.column`` for a pushdown filter over a base table,
    ``_var.<variable>`` for a residual predicate over join rows (the planner
    rewrites residual column references onto join variables under that
    prefix).  Returns ``None`` when there is nothing to filter; otherwise a
    callable mapping a batch of row tuples to a keep-mask.
    """
    if not predicates:
        return None
    names = tuple(names)
    positions = {name: index for index, name in enumerate(names)}
    tests = [_compile_test(p, positions, names) for p in predicates]
    if len(tests) == 1:
        single = tests[0]
        return lambda rows: [single(row) for row in rows]
    return lambda rows: [all(test(row) for test in tests) for row in rows]
