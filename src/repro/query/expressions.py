"""Scalar and boolean expressions used for selection pushdown.

The paper assumes that base-table selections are pushed below the join
(Section 2.1).  The SQL planner uses this expression AST to represent WHERE
predicates and decide which atom each predicate belongs to;
:mod:`repro.kernels.predicates` compiles predicates into batch masks, for
pushdown and for residual predicates alike.

Expressions are evaluated against an *environment*: a mapping from qualified
column name (``alias.column``) to value.
"""

from __future__ import annotations

import decimal
import re
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.datatypes import Value
from repro.errors import QueryError

Environment = Dict[str, Value]


class Expression:
    """Base class of the expression AST."""

    def evaluate(self, env: Environment) -> Value:
        """Evaluate the expression against an environment."""
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """Qualified column names referenced by this expression."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render the expression back to SQL text.

        Round-trips through the parser: ``parse(expr.to_sql())`` is
        structurally equal to ``expr`` (every node defines ``__eq__``), which
        is what lets the workload generator emit SQL from an AST and the
        differential shrinker re-parse its own minimized output.
        """
        raise NotImplementedError

    def aliases(self) -> FrozenSet[str]:
        """Table aliases referenced by this expression.

        Unqualified column references contribute no alias; the planner
        qualifies every reference before alias information is relied upon.
        """
        return frozenset(
            col.split(".", 1)[0] for col in self.columns() if "." in col
        )


class ColumnRef(Expression):
    """Reference to a column, e.g. ``t.production_year``.

    References may be temporarily unqualified (no ``alias.`` prefix) as they
    come out of the SQL parser; the planner qualifies them against the FROM
    list before any evaluation happens.
    """

    __slots__ = ("qualified_name",)

    def __init__(self, qualified_name: str) -> None:
        if not qualified_name:
            raise QueryError("column reference must be non-empty")
        self.qualified_name = qualified_name

    def evaluate(self, env: Environment) -> Value:
        try:
            return env[self.qualified_name]
        except KeyError:
            raise QueryError(
                f"column {self.qualified_name!r} is not bound in the environment"
            ) from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.qualified_name})

    def to_sql(self) -> str:
        return self.qualified_name

    def __repr__(self) -> str:
        return f"ColumnRef({self.qualified_name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnRef) and self.qualified_name == other.qualified_name

    def __hash__(self) -> int:
        return hash(("ColumnRef", self.qualified_name))


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self.value = value

    def evaluate(self, env: Environment) -> Value:
        return self.value

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def to_sql(self) -> str:
        return render_literal(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Literal", self.value))


class AggregateRef(Expression):
    """Reference to an aggregate value, e.g. ``COUNT(*)`` or ``MIN(t.year)``.

    Appears only in post-aggregate contexts (HAVING conditions and ORDER BY
    items); the planner resolves it against the SELECT list, and the
    differential reference executor evaluates it against an environment
    keyed by :meth:`key`.
    """

    __slots__ = ("function", "column")

    def __init__(self, function: str, column: Optional[str]) -> None:
        if not function:
            raise QueryError("aggregate reference requires a function name")
        self.function = function.upper()
        self.column = column  # None means '*'

    def key(self) -> str:
        """Canonical environment key, e.g. ``count(*)`` / ``min(t.year)``."""
        return f"{self.function.lower()}({self.column or '*'})"

    def evaluate(self, env: Environment) -> Value:
        try:
            return env[self.key()]
        except KeyError:
            raise QueryError(
                f"aggregate {self.key()!r} is not bound in the environment"
            ) from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column}) if self.column else frozenset()

    def to_sql(self) -> str:
        return f"{self.function}({self.column or '*'})"

    def __repr__(self) -> str:
        return f"AggregateRef({self.function!r}, {self.column!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AggregateRef)
            and self.function == other.function
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash(("AggregateRef", self.function, self.column))


def render_literal(value: Value) -> str:
    """Render a literal value as SQL text the tokenizer round-trips.

    Floats that would print in scientific notation (the tokenizer has no
    exponent syntax) are expanded to positional notation.
    """
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        text = repr(value)
        if "e" in text or "E" in text:
            # Expand via Decimal so very small magnitudes keep their digits
            # (a fixed ".17f" format would round 1e-300 down to zero).
            text = format(decimal.Decimal(text), "f")
            if "." not in text:
                text += ".0"
        return text
    return str(value)


_COMPARISONS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Comparison(Expression):
    """A binary comparison between two expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARISONS:
            raise QueryError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env: Environment) -> bool:
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if left is None or right is None:
            return False
        return _COMPARISONS[self.op](left, right)

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def is_equi_join(self) -> bool:
        """Whether this is an equality between columns of two different aliases."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
            and self.left.aliases() != self.right.aliases()
        )

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"

    def __repr__(self) -> str:
        return f"Comparison({self.op!r}, {self.left!r}, {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("Comparison", self.op, self.left, self.right))


class And(Expression):
    """Logical conjunction of sub-expressions."""

    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise QueryError("AND requires at least one operand")
        self.operands = list(operands)

    def evaluate(self, env: Environment) -> bool:
        return all(bool(op.evaluate(env)) for op in self.operands)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for op in self.operands:
            result |= op.columns()
        return result

    def to_sql(self) -> str:
        rendered = [
            f"({op.to_sql()})" if isinstance(op, Or) else op.to_sql()
            for op in self.operands
        ]
        return " AND ".join(rendered)

    def __repr__(self) -> str:
        return f"And({self.operands!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("And", tuple(self.operands)))


class Or(Expression):
    """Logical disjunction of sub-expressions."""

    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[Expression]) -> None:
        if not operands:
            raise QueryError("OR requires at least one operand")
        self.operands = list(operands)

    def evaluate(self, env: Environment) -> bool:
        return any(bool(op.evaluate(env)) for op in self.operands)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for op in self.operands:
            result |= op.columns()
        return result

    def to_sql(self) -> str:
        return " OR ".join(op.to_sql() for op in self.operands)

    def __repr__(self) -> str:
        return f"Or({self.operands!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.operands == other.operands

    def __hash__(self) -> int:
        return hash(("Or", tuple(self.operands)))


class Not(Expression):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, env: Environment) -> bool:
        return not bool(self.operand.evaluate(env))

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def to_sql(self) -> str:
        if isinstance(self.operand, (And, Or)):
            return f"NOT ({self.operand.to_sql()})"
        return f"NOT {self.operand.to_sql()}"

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return hash(("Not", self.operand))


class Like(Expression):
    """SQL ``LIKE`` pattern matching (``%`` and ``_`` wildcards)."""

    __slots__ = ("operand", "pattern", "negated", "_regex")

    def __init__(self, operand: Expression, pattern: str, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = re.compile(_like_to_regex(pattern), re.DOTALL)

    def evaluate(self, env: Environment) -> bool:
        value = self.operand.evaluate(env)
        if value is None:
            return False
        matched = bool(self._regex.match(str(value)))
        return (not matched) if self.negated else matched

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand.to_sql()} {keyword} {render_literal(self.pattern)}"

    def __repr__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"Like({self.operand!r} {keyword} {self.pattern!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Like)
            and self.operand == other.operand
            and self.pattern == other.pattern
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash(("Like", self.operand, self.pattern, self.negated))


class InList(Expression):
    """SQL ``IN (v1, v2, ...)`` membership test."""

    __slots__ = ("operand", "values", "negated")

    def __init__(self, operand: Expression, values: Sequence[Value], negated: bool = False) -> None:
        self.operand = operand
        self.values = list(values)
        self.negated = negated
        self._value_set = set(self.values)

    def evaluate(self, env: Environment) -> bool:
        value = self.operand.evaluate(env)
        if value is None:
            return False
        member = value in self._value_set
        return (not member) if self.negated else member

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        values = ", ".join(render_literal(value) for value in self.values)
        return f"{self.operand.to_sql()} {keyword} ({values})"

    def __repr__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"InList({self.operand!r} {keyword} {self.values!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InList)
            and self.operand == other.operand
            and self.values == other.values
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash(("InList", self.operand, tuple(self.values), self.negated))


class Between(Expression):
    """SQL ``BETWEEN low AND high`` (inclusive)."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expression, low: Expression, high: Expression) -> None:
        self.operand = operand
        self.low = low
        self.high = high

    def evaluate(self, env: Environment) -> bool:
        value = self.operand.evaluate(env)
        low = self.low.evaluate(env)
        high = self.high.evaluate(env)
        if value is None or low is None or high is None:
            return False
        return low <= value <= high

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()

    def to_sql(self) -> str:
        return (
            f"{self.operand.to_sql()} BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()}"
        )

    def __repr__(self) -> str:
        return f"Between({self.operand!r}, {self.low!r}, {self.high!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Between)
            and self.operand == other.operand
            and self.low == other.low
            and self.high == other.high
        )

    def __hash__(self) -> int:
        return hash(("Between", self.operand, self.low, self.high))


class IsNull(Expression):
    """SQL ``IS [NOT] NULL`` test."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def evaluate(self, env: Environment) -> bool:
        value = self.operand.evaluate(env)
        return (value is not None) if self.negated else (value is None)

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {keyword}"

    def __repr__(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"IsNull({self.operand!r} {keyword})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IsNull)
            and self.operand == other.operand
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash(("IsNull", self.operand, self.negated))


def _like_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern to an anchored regular expression."""
    parts: List[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return "^" + "".join(parts) + "$"


def conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Flatten nested AND expressions into a list of conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, And):
        result: List[Expression] = []
        for operand in expression.operands:
            result.extend(conjuncts(operand))
        return result
    return [expression]
