"""Scalar expression language for the relational frontend.

Expressions evaluate over columnar batches (dicts of numpy arrays), which
is what both the reference interpreter and the engine models execute, and
they can be lowered to :class:`~repro.core.functions.Predicate` /
:class:`~repro.core.functions.TupleFunction` objects for the Modularis
sub-operator plans — the reproduction's analogue of the paper's UDF
compilation through Numba.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.errors import TypeCheckError

__all__ = [
    "Expression",
    "col",
    "lit",
    "Column",
    "Literal",
    "days_from_date",
    "infer_atom_type",
]

_EPOCH_DAYS_IN_YEAR = 365.2425


def days_from_date(text: str) -> int:
    """Days since 1970-01-01 for an ISO ``YYYY-MM-DD`` date string.

    The storage layer keeps dates as INT64 day counts; this is the only
    date parsing the library needs.
    """
    return int(np.datetime64(text, "D").astype(np.int64))


class Expression:
    """Base class; composes through operator overloading.

    ``evaluate`` receives a mapping from column names to numpy arrays and
    returns a numpy array (or scalar broadcastable against them).
    """

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def references(self) -> set[str]:
        """Names of the columns this expression reads."""
        raise NotImplementedError

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other: object) -> "Expression":  # type: ignore[override]
        return BinaryOp("==", self, _wrap(other))

    def __ne__(self, other: object) -> "Expression":  # type: ignore[override]
        return BinaryOp("!=", self, _wrap(other))

    def __lt__(self, other: object) -> "Expression":
        return BinaryOp("<", self, _wrap(other))

    def __le__(self, other: object) -> "Expression":
        return BinaryOp("<=", self, _wrap(other))

    def __gt__(self, other: object) -> "Expression":
        return BinaryOp(">", self, _wrap(other))

    def __ge__(self, other: object) -> "Expression":
        return BinaryOp(">=", self, _wrap(other))

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: object) -> "Expression":
        return BinaryOp("+", self, _wrap(other))

    def __radd__(self, other: object) -> "Expression":
        return BinaryOp("+", _wrap(other), self)

    def __sub__(self, other: object) -> "Expression":
        return BinaryOp("-", self, _wrap(other))

    def __rsub__(self, other: object) -> "Expression":
        return BinaryOp("-", _wrap(other), self)

    def __mul__(self, other: object) -> "Expression":
        return BinaryOp("*", self, _wrap(other))

    def __rmul__(self, other: object) -> "Expression":
        return BinaryOp("*", _wrap(other), self)

    def __truediv__(self, other: object) -> "Expression":
        return BinaryOp("/", self, _wrap(other))

    def __rtruediv__(self, other: object) -> "Expression":
        return BinaryOp("/", _wrap(other), self)

    # -- boolean connectives -------------------------------------------------------

    def __and__(self, other: object) -> "Expression":
        return BinaryOp("&", self, _wrap(other))

    def __or__(self, other: object) -> "Expression":
        return BinaryOp("|", self, _wrap(other))

    def __invert__(self) -> "Expression":
        return UnaryOp("~", self)

    # -- SQL-ish helpers --------------------------------------------------------------

    def isin(self, values: Iterable[object]) -> "Expression":
        return IsIn(self, tuple(values))

    def between(self, low: object, high: object) -> "Expression":
        """Inclusive range check, like SQL BETWEEN."""
        return (self >= _wrap(low)) & (self <= _wrap(high))

    def startswith(self, prefix: str) -> "Expression":
        return StartsWith(self, prefix)

    def __hash__(self) -> int:  # needed because __eq__ builds expressions
        return id(self)

    def __bool__(self) -> bool:
        raise TypeCheckError(
            "expressions are symbolic; use & | ~ instead of and/or/not"
        )


def _wrap(value: object) -> Expression:
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Column(Expression):
    """A reference to a named input column."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        try:
            return columns[self.name]
        except KeyError:
            raise TypeCheckError(
                f"unknown column {self.name!r}; have {sorted(columns)}"
            ) from None

    def references(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant."""

    def __init__(self, value: object) -> None:
        self.value = value

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.value  # broadcasts

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"lit({self.value!r})"


_BINARY: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
}


class BinaryOp(Expression):
    """A binary arithmetic/comparison/boolean node."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _BINARY:
            raise TypeCheckError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return _BINARY[self.op](self.left.evaluate(columns), self.right.evaluate(columns))

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expression):
    """Unary negation (boolean NOT)."""

    def __init__(self, op: str, operand: Expression) -> None:
        if op != "~":
            raise TypeCheckError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return ~np.asarray(self.operand.evaluate(columns))

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"~{self.operand!r}"


class IsIn(Expression):
    """SQL ``IN`` over a literal value set."""

    def __init__(self, operand: Expression, values: tuple) -> None:
        self.operand = operand
        self.values = values

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        data = np.asarray(self.operand.evaluate(columns))
        # A literal the column's dtype cannot hold ('MAILBOX' in <U4, 1.5 in
        # int64) matches nothing, as under ``==``; cast, it would match its
        # truncation.
        values = [v for v in self.values if np.asarray(v, dtype=data.dtype).item() == v]
        return np.isin(data, np.asarray(values, dtype=data.dtype))

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.operand!r}.isin({list(self.values)!r})"


class StartsWith(Expression):
    """SQL ``LIKE 'prefix%'`` over a string column."""

    def __init__(self, operand: Expression, prefix: str) -> None:
        self.operand = operand
        self.prefix = prefix

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        data = np.asarray(self.operand.evaluate(columns), dtype=str)
        return np.char.startswith(data, self.prefix)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.operand!r}.startswith({self.prefix!r})"


def substitute_columns(expr: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace column references per ``mapping`` (used to push filters
    through projections: a predicate over projection aliases becomes a
    predicate over the projection's input columns)."""
    if isinstance(expr, Column):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute_columns(expr.operand, mapping))
    if isinstance(expr, IsIn):
        return IsIn(substitute_columns(expr.operand, mapping), expr.values)
    if isinstance(expr, StartsWith):
        return StartsWith(substitute_columns(expr.operand, mapping), expr.prefix)
    raise TypeCheckError(f"cannot substitute into {expr!r}")


def infer_atom_type(expr: Expression, schema: "TupleType") -> "AtomType":
    """The atom type an expression produces over inputs typed by ``schema``.

    Promotion rules: comparisons and boolean connectives over booleans give
    BOOL; arithmetic promotes BOOL→INT64 and INT64→FLOAT64 as needed.
    """
    from repro.types.atoms import BOOL, FLOAT64, INT64, STRING

    if isinstance(expr, Column):
        item = schema[expr.name]
        if not isinstance(item, type(INT64)):
            raise TypeCheckError(f"column {expr.name!r} is not an atom")
        return item
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return BOOL
        if isinstance(expr.value, int):
            return INT64
        if isinstance(expr.value, float):
            return FLOAT64
        if isinstance(expr.value, str):
            return STRING
        raise TypeCheckError(f"cannot type literal {expr.value!r}")
    if isinstance(expr, (IsIn, StartsWith)):
        return BOOL
    if isinstance(expr, UnaryOp):
        return BOOL
    if isinstance(expr, BinaryOp):
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            return BOOL
        left = infer_atom_type(expr.left, schema)
        right = infer_atom_type(expr.right, schema)
        if expr.op in ("&", "|"):
            return BOOL if left == BOOL and right == BOOL else INT64
        if expr.op == "/" or FLOAT64 in (left, right):
            return FLOAT64
        return INT64
    raise TypeCheckError(f"cannot infer type of {expr!r}")


def col(name: str) -> Column:
    """Reference a column by name."""
    return Column(name)


def lit(value: object) -> Literal:
    """Embed a constant in an expression."""
    return Literal(value)
