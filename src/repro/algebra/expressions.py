"""Scalar expression trees.

Expressions serve three masters:

1. **JIT codegen** — :meth:`Expression.source` renders the expression as a
   Python/NumPy source fragment that the pipeline compiler splices into the
   generated pipeline body (the reproduction's analogue of emitting LLVM IR);
2. **the reference executor** — :meth:`Expression.evaluate` interprets the
   tree directly over a column environment, providing the correctness
   oracle the generated code is tested against;
3. **the cost model** — :meth:`Expression.op_counts` reports per-tuple
   operation counts, which codegen converts into cycle/op estimates through
   :data:`repro.hardware.costmodel.CYCLES`.

String predicates are *canonicalised away* before execution: the plan
binder rewrites comparisons on dictionary-encoded string columns into
integer comparisons on the codes (see :func:`bind_strings`), matching how
columnar engines (and the paper's Proteus) evaluate SSB's string filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Union

import numpy as np

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "Arithmetic",
    "Comparison",
    "BooleanOp",
    "Not",
    "Between",
    "InList",
    "col",
    "lit",
    "OpCounts",
    "bind_strings",
    "UnboundStringComparison",
]


@dataclass
class OpCounts:
    """Per-tuple operation counts used for cost estimation."""

    predicates: int = 0
    arithmetic: int = 0
    string_compares: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.predicates + other.predicates,
            self.arithmetic + other.arithmetic,
            self.string_compares + other.string_compares,
        )


class UnboundStringComparison(TypeError):
    """A string comparison reached execution without dictionary binding."""


class Expression:
    """Base class; subclasses are immutable value objects."""

    def columns(self) -> set[str]:
        raise NotImplementedError

    def source(self, var_of: Callable[[str], str]) -> str:
        """Python source for this expression; ``var_of`` names column arrays."""
        raise NotImplementedError

    def evaluate(self, env: dict[str, np.ndarray]) -> Union[np.ndarray, int, float]:
        raise NotImplementedError

    def op_counts(self) -> OpCounts:
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------

    def _wrap(self, other: Any) -> "Expression":
        return other if isinstance(other, Expression) else Literal(other)

    def __add__(self, other):
        return Arithmetic("+", self, self._wrap(other))

    def __radd__(self, other):
        return Arithmetic("+", self._wrap(other), self)

    def __sub__(self, other):
        return Arithmetic("-", self, self._wrap(other))

    def __rsub__(self, other):
        return Arithmetic("-", self._wrap(other), self)

    def __mul__(self, other):
        return Arithmetic("*", self, self._wrap(other))

    def __rmul__(self, other):
        return Arithmetic("*", self._wrap(other), self)

    def __lt__(self, other):
        return Comparison("<", self, self._wrap(other))

    def __le__(self, other):
        return Comparison("<=", self, self._wrap(other))

    def __gt__(self, other):
        return Comparison(">", self, self._wrap(other))

    def __ge__(self, other):
        return Comparison(">=", self, self._wrap(other))

    def __eq__(self, other):  # type: ignore[override]
        return Comparison("==", self, self._wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison("!=", self, self._wrap(other))

    def __and__(self, other):
        return BooleanOp("&", self, self._wrap(other))

    def __or__(self, other):
        return BooleanOp("|", self, self._wrap(other))

    def __invert__(self):
        return Not(self)

    def between(self, low: Any, high: Any) -> "Between":
        """Inclusive range predicate (SQL BETWEEN)."""
        return Between(self, self._wrap(low), self._wrap(high))

    def isin(self, values: Iterable[Any]) -> "InList":
        return InList(self, list(values))

    def __hash__(self):  # expressions are used in dict keys during codegen
        return id(self)

    def __bool__(self):
        raise TypeError(
            "expressions are not truthy; use & / | / ~ to combine predicates"
        )


class ColumnRef(Expression):
    """Reference to a column by name."""

    def __init__(self, name: str):
        self.name = name

    def columns(self) -> set[str]:
        return {self.name}

    def source(self, var_of: Callable[[str], str]) -> str:
        return var_of(self.name)

    def evaluate(self, env: dict[str, np.ndarray]) -> np.ndarray:
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(
                f"column {self.name!r} not in scope; available: {sorted(env)}"
            ) from None

    def op_counts(self) -> OpCounts:
        return OpCounts()

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant. Strings must be bound to dictionary codes before use."""

    def __init__(self, value: Any):
        self.value = value

    def columns(self) -> set[str]:
        return set()

    def source(self, var_of: Callable[[str], str]) -> str:
        if isinstance(self.value, str):
            raise UnboundStringComparison(
                f"string literal {self.value!r} was not bound to a dictionary "
                "code; run bind_strings() with the catalog first"
            )
        return repr(self.value)

    def evaluate(self, env: dict[str, np.ndarray]) -> Any:
        if isinstance(self.value, str):
            raise UnboundStringComparison(
                f"string literal {self.value!r} reached evaluation unbound"
            )
        return self.value

    def op_counts(self) -> OpCounts:
        return OpCounts()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Arithmetic(Expression):
    """Binary arithmetic on numeric expressions."""

    OPS = {"+", "-", "*"}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ValueError(f"unsupported arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def source(self, var_of) -> str:
        return f"({self.left.source(var_of)} {self.op} {self.right.source(var_of)})"

    def evaluate(self, env):
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        return left * right

    def op_counts(self) -> OpCounts:
        return self.left.op_counts() + self.right.op_counts() + OpCounts(arithmetic=1)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(Expression):
    """Binary comparison producing a boolean mask."""

    OPS = {"<", "<=", ">", ">=", "==", "!="}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def source(self, var_of) -> str:
        return f"({self.left.source(var_of)} {self.op} {self.right.source(var_of)})"

    def evaluate(self, env):
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        if self.op == ">=":
            return left >= right
        if self.op == "==":
            return left == right
        return left != right

    def op_counts(self) -> OpCounts:
        return self.left.op_counts() + self.right.op_counts() + OpCounts(predicates=1)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanOp(Expression):
    """Conjunction / disjunction of boolean masks."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in {"&", "|"}:
            raise ValueError(f"unsupported boolean operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def source(self, var_of) -> str:
        return f"({self.left.source(var_of)} {self.op} {self.right.source(var_of)})"

    def evaluate(self, env):
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        return (left & right) if self.op == "&" else (left | right)

    def op_counts(self) -> OpCounts:
        return self.left.op_counts() + self.right.op_counts()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Not(Expression):
    """Negation of a boolean mask."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def columns(self) -> set[str]:
        return self.operand.columns()

    def source(self, var_of) -> str:
        return f"(~{self.operand.source(var_of)})"

    def evaluate(self, env):
        return ~self.operand.evaluate(env)

    def op_counts(self) -> OpCounts:
        return self.operand.op_counts() + OpCounts(predicates=1)

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


class Between(Expression):
    """Inclusive range predicate."""

    def __init__(self, operand: Expression, low: Expression, high: Expression):
        self.operand = operand
        self.low = low
        self.high = high

    def columns(self) -> set[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()

    def source(self, var_of) -> str:
        operand = self.operand.source(var_of)
        return (
            f"(({operand} >= {self.low.source(var_of)}) & "
            f"({operand} <= {self.high.source(var_of)}))"
        )

    def evaluate(self, env):
        value = self.operand.evaluate(env)
        return (value >= self.low.evaluate(env)) & (value <= self.high.evaluate(env))

    def op_counts(self) -> OpCounts:
        return (
            self.operand.op_counts()
            + self.low.op_counts()
            + self.high.op_counts()
            + OpCounts(predicates=2)
        )

    def __repr__(self) -> str:
        return f"{self.operand!r}.between({self.low!r}, {self.high!r})"


class InList(Expression):
    """Membership in a small literal list (SQL IN)."""

    def __init__(self, operand: Expression, values: list[Any]):
        if not values:
            raise ValueError("IN list must not be empty")
        self.operand = operand
        self.values = values

    def columns(self) -> set[str]:
        return self.operand.columns()

    def _require_bound(self) -> None:
        if any(isinstance(v, str) for v in self.values):
            raise UnboundStringComparison(
                f"IN list {self.values!r} contains unbound string literals"
            )

    def source(self, var_of) -> str:
        self._require_bound()
        operand = self.operand.source(var_of)
        parts = [f"({operand} == {v!r})" for v in self.values]
        return "(" + " | ".join(parts) + ")"

    def evaluate(self, env):
        self._require_bound()
        value = self.operand.evaluate(env)
        mask = value == self.values[0]
        for v in self.values[1:]:
            mask = mask | (value == v)
        return mask

    def op_counts(self) -> OpCounts:
        return self.operand.op_counts() + OpCounts(predicates=len(self.values))

    def __repr__(self) -> str:
        return f"{self.operand!r}.isin({self.values!r})"


def col(name: str) -> ColumnRef:
    """Shorthand column reference for the plan DSL."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand literal for the plan DSL."""
    return Literal(value)


# ---------------------------------------------------------------------------
# String binding
# ---------------------------------------------------------------------------

#: resolver(column_name) -> StringDictionary or None
Resolver = Callable[[str], Optional[object]]

_FALSE = Literal(False)


def _dictionary_for(expr: Expression, resolver: Resolver):
    if isinstance(expr, ColumnRef):
        return resolver(expr.name)
    return None


def bind_strings(expr: Expression, resolver: Resolver) -> Expression:
    """Rewrite string comparisons into integer comparisons on codes.

    Rules (``d`` = dictionary of the string column, sorted codes):

    * ``c == 'v'``  -> ``c == d.encode(v)``; false literal if absent;
    * ``c != 'v'``  -> ``~(c == d.encode(v))``; true literal if absent;
    * ``c <  'v'``  -> ``c <  bisect_left(v)``
    * ``c <= 'v'``  -> ``c <  bisect_right(v)``
    * ``c >  'v'``  -> ``c >= bisect_right(v)``
    * ``c >= 'v'``  -> ``c >= bisect_left(v)``
    * ``c.between(lo, hi)`` -> ``(c >= bisect_left(lo)) & (c < bisect_right(hi))``
    * ``c.isin([...])`` -> IN over the codes of present values.

    Non-string parts of the tree are rebuilt unchanged.
    """
    if isinstance(expr, (ColumnRef, Literal)):
        return expr
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op, bind_strings(expr.left, resolver), bind_strings(expr.right, resolver)
        )
    if isinstance(expr, BooleanOp):
        return BooleanOp(
            expr.op, bind_strings(expr.left, resolver), bind_strings(expr.right, resolver)
        )
    if isinstance(expr, Not):
        operand = bind_strings(expr.operand, resolver)
        # fold ~True / ~False: on a Python bool ``~`` is integer negation
        if isinstance(operand, Literal) and isinstance(operand.value, (bool, np.bool_)):
            return Literal(not operand.value)
        return Not(operand)
    if isinstance(expr, Comparison):
        return _bind_comparison(expr, resolver)
    if isinstance(expr, Between):
        return _bind_between(expr, resolver)
    if isinstance(expr, InList):
        return _bind_inlist(expr, resolver)
    raise TypeError(f"cannot bind expression of type {type(expr).__name__}")


def _bind_comparison(expr: Comparison, resolver: Resolver) -> Expression:
    left, right = expr.left, expr.right
    # normalise to column-on-the-left when a literal faces a column
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
        return _bind_comparison(Comparison(flip[expr.op], right, left), resolver)
    dictionary = _dictionary_for(left, resolver)
    if dictionary is None or not isinstance(right, Literal) or not isinstance(right.value, str):
        return Comparison(
            expr.op, bind_strings(left, resolver), bind_strings(right, resolver)
        )
    value = right.value
    lo = dictionary.encode_bound(value)
    hi = dictionary.encode_upper_bound(value)
    present = hi > lo
    if expr.op == "==":
        return Comparison("==", left, Literal(lo)) if present else _FALSE
    if expr.op == "!=":
        return Not(Comparison("==", left, Literal(lo))) if present else Literal(True)
    if expr.op == "<":
        return Comparison("<", left, Literal(lo))
    if expr.op == "<=":
        return Comparison("<", left, Literal(hi))
    if expr.op == ">":
        return Comparison(">=", left, Literal(hi))
    return Comparison(">=", left, Literal(lo))  # op == ">="


def _bind_between(expr: Between, resolver: Resolver) -> Expression:
    dictionary = _dictionary_for(expr.operand, resolver)
    is_string_range = (
        dictionary is not None
        and isinstance(expr.low, Literal)
        and isinstance(expr.low.value, str)
        and isinstance(expr.high, Literal)
        and isinstance(expr.high.value, str)
    )
    if not is_string_range:
        return Between(
            bind_strings(expr.operand, resolver),
            bind_strings(expr.low, resolver),
            bind_strings(expr.high, resolver),
        )
    lo = dictionary.encode_bound(expr.low.value)
    hi = dictionary.encode_upper_bound(expr.high.value)
    return BooleanOp(
        "&",
        Comparison(">=", expr.operand, Literal(lo)),
        Comparison("<", expr.operand, Literal(hi)),
    )


def _bind_inlist(expr: InList, resolver: Resolver) -> Expression:
    dictionary = _dictionary_for(expr.operand, resolver)
    if dictionary is None or not any(isinstance(v, str) for v in expr.values):
        return InList(bind_strings(expr.operand, resolver), expr.values)
    codes = []
    for value in expr.values:
        lo = dictionary.encode_bound(value)
        hi = dictionary.encode_upper_bound(value)
        if hi > lo:
            codes.append(lo)
    if not codes:
        return _FALSE
    return InList(expr.operand, codes)
