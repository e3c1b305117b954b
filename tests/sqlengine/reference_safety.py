"""The two hand-kept "can this raise" analyses the compiler replaced.

The engine now asks its expression compiler (``_Val.safe``, exposed as
:attr:`repro.sqlengine.expressions.FusedBatch.safe` and
:func:`repro.sqlengine.expressions.never_raises`) whether an expression
can raise.  Before that, two tree walks answered the same question:

- :func:`_never_raises` with :func:`_type_class`, which gated the zone
  skip, the top-N segment skip, LEFT JOIN null-side pushdown and DML's
  conjunct split;
- :func:`_value_class` with :func:`_safe_compare`, which decided the
  hash LEFT JOIN's residuals and the top-N bound's other expressions.

They are kept here unchanged as the precision oracle: where either says
an expression is safe, the compiler must say so too, except for the
shapes ``tests/property/test_property_never_raises.py`` lists.
"""

from __future__ import annotations

import datetime

from repro.errors import SqlTypeError
from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.sqlengine.expressions import _COMPARISONS, _FUNCTION_CLASS
from repro.sqlengine.types import SqlType, parse_date

# ---------------------------------------------------------------------------
# static error analysis: can this expression raise on some row?
# ---------------------------------------------------------------------------

_NUMERIC_TYPES = (SqlType.INTEGER, SqlType.REAL)


def _column_type(ref: ColumnRef, columns) -> "SqlType | None":
    """*ref*'s SqlType; *columns* is a Table or a ``ref -> SqlType | None``."""
    if callable(columns):
        return columns(ref)
    if not columns.has_column(ref.column):
        return None
    return columns.column(ref.column).sql_type


def _type_class(expr: Expr, columns) -> "str | None":
    """The value class of *expr* — ``num``/``str``/``date``/``bool`` —
    or None when unknown or mixed (which :func:`_never_raises` treats
    as fallible)."""
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return "num"
        if isinstance(value, str):
            return "str"
        if isinstance(value, datetime.date):
            return "date"
        return None  # NULL literal: class unknown
    if isinstance(expr, ColumnRef):
        sql_type = _column_type(expr, columns)
        if sql_type is None:
            return None
        if sql_type in _NUMERIC_TYPES:
            return "num"
        if sql_type is SqlType.TEXT:
            return "str"
        if sql_type is SqlType.DATE:
            return "date"
        return "bool"
    if isinstance(expr, BinaryOp):
        if expr.op in ("+", "-", "*", "/"):
            return "num"
        if expr.op == "||":
            return "str"
        return "bool"  # comparisons, AND, OR
    if isinstance(expr, (UnaryOp, Like, IsNull)):
        if isinstance(expr, UnaryOp) and expr.op == "-":
            return "num"
        return "bool"
    if isinstance(expr, FuncCall):
        if expr.name in _FUNCTION_CLASS:
            return _FUNCTION_CLASS[expr.name]
        if expr.name == "coalesce":
            classes = {_type_class(arg, columns) for arg in expr.args}
            classes.discard(None)
            return classes.pop() if len(classes) == 1 else None
    return None


def _never_raises(expr: Expr, columns) -> bool:
    """Conservatively True when evaluating *expr* cannot raise on any row.

    *columns* types the column references: a
    :class:`~repro.sqlengine.catalog.Table` (every reference is one of
    its columns) or a callable mapping a ColumnRef to its SqlType, None
    when it does not resolve.  The whitelist leans on the engine's type
    invariants (a coerced INTEGER column holds only ``int``/``None``)
    and literal operands; anything unrecognised is treated as fallible.
    This one analysis gates every rewrite that must not change which
    error surfaces: DML's vectorized SET, the LEFT JOIN null-side
    pushdown and zone-map segment skipping.
    """
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, ColumnRef):
        return _column_type(expr, columns) is not None
    if isinstance(expr, BinaryOp):
        left_safe = _never_raises(expr.left, columns)
        right_safe = _never_raises(expr.right, columns)
        if not (left_safe and right_safe):
            return False
        if expr.op in ("AND", "OR", "||"):
            # 3VL short-circuits and concat tolerate NULL; neither raises
            return True
        left_class = _type_class(expr.left, columns)
        right_class = _type_class(expr.right, columns)
        if expr.op in ("+", "-", "*"):
            return left_class == "num" and right_class == "num"
        if expr.op == "/":
            # only a provably nonzero literal divisor is safe
            return (
                left_class == "num"
                and isinstance(expr.right, Literal)
                and isinstance(expr.right.value, (int, float))
                and not isinstance(expr.right.value, bool)
                and expr.right.value != 0
            )
        if expr.op in _COMPARISONS:
            # same class compares cleanly; date-vs-string would parse
            return left_class is not None and left_class == right_class
        return False
    if isinstance(expr, UnaryOp):
        if not _never_raises(expr.operand, columns):
            return False
        operand_class = _type_class(expr.operand, columns)
        if expr.op == "-":
            return operand_class == "num"
        return operand_class == "bool"  # NOT
    if isinstance(expr, Like):
        return (
            _never_raises(expr.operand, columns)
            and _type_class(expr.operand, columns) == "str"
            and isinstance(expr.pattern, Literal)
            and isinstance(expr.pattern.value, str)
        )
    if isinstance(expr, IsNull):
        return _never_raises(expr.operand, columns)
    if isinstance(expr, FuncCall):
        if expr.star or expr.distinct:
            return False
        if not all(_never_raises(arg, columns) for arg in expr.args):
            return False
        if expr.name in ("lower", "upper", "length"):
            return (
                len(expr.args) == 1
                and _type_class(expr.args[0], columns) == "str"
            )
        if expr.name == "abs":
            return (
                len(expr.args) == 1
                and _type_class(expr.args[0], columns) == "num"
            )
        if expr.name in ("year", "month"):
            return (
                len(expr.args) == 1
                and _type_class(expr.args[0], columns) == "date"
            )
        if expr.name == "coalesce":
            return len(expr.args) > 0
        return False
    return False


#: scalar functions that can never raise, whatever their input
_SAFE_FUNCTIONS = {"lower", "upper", "length", "coalesce"}


def _value_class(expr, class_of) -> tuple:
    """``(safe, class)``: can *expr* never raise, and what does it yield?

    *class_of* maps a ColumnRef to its ``_VALUE_CLASS`` entry (or None
    when unresolvable).  ``safe`` is conservative: False means "could
    raise a data-dependent error", not "will".  A safe expression with
    class None (e.g. CASE) still composes under operators that accept
    any value (NOT, AND/OR, LIKE, ``||``) but blocks comparisons.
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return True, "null"
        if isinstance(value, bool):
            return True, "bool"
        if isinstance(value, (int, float)):
            return True, "num"
        if isinstance(value, str):
            return True, "str"
        if isinstance(value, datetime.date):
            return True, "date"
        return True, None
    if isinstance(expr, ColumnRef):
        cls = class_of(expr)
        return cls is not None, cls
    if isinstance(expr, UnaryOp):
        safe, cls = _value_class(expr.operand, class_of)
        if expr.op == "NOT":  # `not value` never raises
            return safe, "bool"
        if expr.op == "-":  # raises on non-numbers
            return safe and cls in ("num", "null"), "num"
        return False, None
    if isinstance(expr, BinaryOp):
        op = expr.op
        left_safe, left_cls = _value_class(expr.left, class_of)
        right_safe, right_cls = _value_class(expr.right, class_of)
        if not (left_safe and right_safe):
            return False, None
        if op in ("AND", "OR"):  # identity checks only, never raise
            return True, "bool"
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _safe_compare(expr.left, left_cls, expr.right,
                                 right_cls), "bool"
        if op in ("+", "-", "*"):  # raise on non-numbers only
            return (left_cls in ("num", "null")
                    and right_cls in ("num", "null")), "num"
        if op == "||":  # str() never raises
            return True, "str"
        return False, None  # '/' can divide by zero
    if isinstance(expr, Like):  # str()/regex never raise
        operand_safe, __ = _value_class(expr.operand, class_of)
        pattern_safe, __ = _value_class(expr.pattern, class_of)
        return operand_safe and pattern_safe, "bool"
    if isinstance(expr, IsNull):
        safe, __ = _value_class(expr.operand, class_of)
        return safe, "bool"
    if isinstance(expr, Between):
        operand_safe, operand_cls = _value_class(expr.operand, class_of)
        low_safe, low_cls = _value_class(expr.low, class_of)
        high_safe, high_cls = _value_class(expr.high, class_of)
        safe = (
            operand_safe and low_safe and high_safe
            and _safe_compare(expr.operand, operand_cls, expr.low, low_cls)
            and _safe_compare(expr.operand, operand_cls, expr.high, high_cls)
        )
        return safe, "bool"
    if isinstance(expr, InList):
        operand_safe, operand_cls = _value_class(expr.operand, class_of)
        if not operand_safe:
            return False, None
        for item in expr.items:
            item_safe, item_cls = _value_class(item, class_of)
            if not item_safe or not _safe_compare(
                expr.operand, operand_cls, item, item_cls
            ):
                return False, None
        return True, "bool"
    if isinstance(expr, CaseWhen):
        for condition, value in expr.branches:
            if not _value_class(condition, class_of)[0]:
                return False, None
            if not _value_class(value, class_of)[0]:
                return False, None
        if expr.default is not None and not _value_class(
            expr.default, class_of
        )[0]:
            return False, None
        return True, None
    if isinstance(expr, FuncCall):
        if expr.name not in _SAFE_FUNCTIONS:
            return False, None
        for arg in expr.args:
            if not _value_class(arg, class_of)[0]:
                return False, None
        if expr.name in ("lower", "upper"):
            return True, "str"
        if expr.name == "length":
            return True, "num"
        return True, None  # coalesce: class depends on its arguments
    return False, None


def _safe_compare(left_expr, left_cls, right_expr, right_cls) -> bool:
    """Can ``compare_values(left, right)`` never raise for these shapes?"""
    if left_cls == "null" or right_cls == "null":
        return True
    if left_cls is None or right_cls is None:
        return False
    if left_cls == right_cls and left_cls in ("num", "str", "bool", "date"):
        return True
    # DATE against a string literal parses the literal — validate it now
    for date_cls, other_cls, other_expr in (
        (left_cls, right_cls, right_expr),
        (right_cls, left_cls, left_expr),
    ):
        if (
            date_cls == "date"
            and other_cls == "str"
            and isinstance(other_expr, Literal)
        ):
            try:
                parse_date(other_expr.value)
            except SqlTypeError:
                return False
            return True
    return False
