"""Expression compilation and evaluation.

Expressions are compiled against a :class:`Scope` (the column layout of
the batches flowing through an operator) by :func:`compile_expr_batch`
into closures that evaluate a whole column batch per call.  Three-valued
logic is used throughout: a predicate evaluates to ``True``, ``False``
or ``None`` (unknown), and WHERE keeps only rows where the predicate is
``True``.  Anything that needs one value — constant folding, row-major
DML — evaluates a one-row batch.  A ``LIKE`` with a literal pattern
runs its regex once per distinct string of a batch, through a
``{value: result}`` table built per call.

:func:`fuse_batch_exprs` is the second compilation tier: it translates a
plan's filter/projection expression trees into *generated Python source*
— one function per batch, no per-row closure dispatch — for the subset
of expressions it can prove never raise.  Anything it cannot prove falls
back to the closure chain, so fused execution is byte-identical to the
closures (results and errors).  The physical planner always fuses; the
closures run only what the fuser refuses.  :func:`fuse_grouping` puts
the GROUP BY above a scan into the same generated loop.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Callable, Sequence

from repro.errors import SqlCatalogError, SqlExecutionError, SqlTypeError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
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
from repro.sqlengine.types import (
    SqlType,
    compare_values,
    parse_date,
    values_equal,
)


class Scope:
    """Column layout of rows produced by an operator.

    A scope is an ordered list of ``(binding, column)`` pairs where
    *binding* is the table alias (or ``None`` for computed columns).
    """

    def __init__(self, pairs: Sequence[tuple]) -> None:
        self.pairs = list(pairs)
        self._qualified: dict[tuple, int] = {}
        self._unqualified: dict[str, list[int]] = {}
        for index, (binding, column) in enumerate(self.pairs):
            self._qualified[(binding, column)] = index
            self._unqualified.setdefault(column, []).append(index)

    def __len__(self) -> int:
        return len(self.pairs)

    def concat(self, other: "Scope") -> "Scope":
        return Scope(self.pairs + other.pairs)

    def resolve(self, ref: ColumnRef) -> int:
        """Resolve a column reference to a row index."""
        if ref.table is not None:
            key = (ref.table, ref.column)
            if key in self._qualified:
                return self._qualified[key]
            raise SqlCatalogError(
                f"unknown column {ref.table}.{ref.column} "
                f"(available: {self._describe()})"
            )
        indexes = self._unqualified.get(ref.column, [])
        if not indexes:
            raise SqlCatalogError(
                f"unknown column {ref.column!r} (available: {self._describe()})"
            )
        if len(indexes) > 1:
            raise SqlCatalogError(
                f"ambiguous column {ref.column!r}; qualify it with a table name"
            )
        return indexes[0]

    def try_resolve(self, ref: ColumnRef) -> int | None:
        try:
            return self.resolve(ref)
        except SqlCatalogError:
            return None

    def bindings(self) -> set[str]:
        return {binding for binding, __ in self.pairs if binding is not None}

    def _describe(self) -> str:
        shown = ", ".join(
            f"{binding}.{column}" if binding else column
            for binding, column in self.pairs[:12]
        )
        if len(self.pairs) > 12:
            shown += ", ..."
        return shown


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


def _fn_lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


def _fn_upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


def _fn_length(value: Any) -> Any:
    return None if value is None else len(str(value))


def _fn_abs(value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlTypeError(f"abs() expects a number, got {value!r}")
    return abs(value)


def _fn_year(value: Any) -> Any:
    if value is None:
        return None
    if hasattr(value, "year"):
        return value.year
    raise SqlTypeError(f"year() expects a DATE, got {value!r}")


def _fn_month(value: Any) -> Any:
    if value is None:
        return None
    if hasattr(value, "month"):
        return value.month
    raise SqlTypeError(f"month() expects a DATE, got {value!r}")


def _fn_coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "lower": _fn_lower,
    "upper": _fn_upper,
    "length": _fn_length,
    "abs": _fn_abs,
    "year": _fn_year,
    "month": _fn_month,
    "coalesce": _fn_coalesce,
}


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern to a compiled regex (case-insensitive)."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

#: a batch expression: ``fn(cols, n) -> list`` where *cols* is a sequence
#: of aligned per-column value lists (each of length *n*) laid out by the
#: operator's :class:`Scope`, and the result is one value list of length
#: *n*.  Returned lists may alias input columns — callers must not mutate
#: them.
BatchFn = Callable[[Sequence[list], int], list]


def gather_columns(cols: Sequence[list], indices: Sequence[int]) -> list:
    """Compact every column of a batch down to the selected row indices."""
    return [[column[i] for i in indices] for column in cols]


def compile_expr_batch(
    expr: Expr,
    scope: Scope,
    agg_slots: "dict[FuncCall, int] | None" = None,
) -> BatchFn:
    """Compile *expr* into a function evaluating it over a column batch.

    One call evaluates a whole batch with row-at-a-time semantics:
    three-valued logic, ``compare_values`` ordering and the same errors.
    Sub-expressions a row-at-a-time evaluation would skip via
    short-circuiting (the right side of AND/OR, CASE branch values, IN
    list items) are evaluated only over the rows that actually reach
    them, by compacting the batch through a selection vector first — so
    data-dependent errors (division by zero, type errors) surface
    exactly when they would row-at-a-time.

    *agg_slots* maps aggregate FuncCall nodes to column indexes; the
    aggregation operator supplies it so post-aggregation expressions
    (select items, HAVING, ORDER BY) read aggregate results.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda cols, n: [value] * n

    if isinstance(expr, ColumnRef):
        index = scope.resolve(expr)
        return lambda cols, n: cols[index]

    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            if agg_slots is None or expr not in agg_slots:
                raise SqlExecutionError(
                    f"aggregate {expr.to_sql()} used outside aggregation context"
                )
            slot = agg_slots[expr]
            return lambda cols, n: cols[slot]
        if expr.name not in SCALAR_FUNCTIONS:
            raise SqlExecutionError(
                f"unknown function {expr.name!r} in {expr.to_sql()} "
                f"(available: {', '.join(sorted(SCALAR_FUNCTIONS))})"
            )
        fn = SCALAR_FUNCTIONS[expr.name]
        arg_fns = [
            compile_expr_batch(arg, scope, agg_slots) for arg in expr.args
        ]
        if len(arg_fns) == 1:
            arg_fn = arg_fns[0]
            return lambda cols, n: [fn(value) for value in arg_fn(cols, n)]

        def _call(cols: Sequence[list], n: int) -> list:
            arg_cols = [arg_fn(cols, n) for arg_fn in arg_fns]
            if not arg_cols:
                return [fn() for __ in range(n)]
            return [fn(*args) for args in zip(*arg_cols)]

        return _call

    if isinstance(expr, UnaryOp):
        operand = compile_expr_batch(expr.operand, scope, agg_slots)
        if expr.op == "NOT":
            return lambda cols, n: [
                None if value is None else not value
                for value in operand(cols, n)
            ]
        if expr.op == "-":
            rendered = expr.to_sql()

            def _neg_value(value: Any) -> Any:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SqlTypeError(f"cannot negate {value!r} in {rendered}")
                return -value

            return lambda cols, n: [
                None if value is None else _neg_value(value)
                for value in operand(cols, n)
            ]
        raise SqlExecutionError(
            f"unknown unary operator {expr.op!r} in {expr.to_sql()}"
        )

    if isinstance(expr, BinaryOp):
        return _compile_binary_batch(expr, scope, agg_slots)

    if isinstance(expr, Like):
        operand = compile_expr_batch(expr.operand, scope, agg_slots)
        negated = expr.negated
        if isinstance(expr.pattern, Literal):
            if expr.pattern.value is None:
                def _null_pattern(cols: Sequence[list], n: int) -> list:
                    operand(cols, n)  # operand errors must still surface
                    return [None] * n

                return _null_pattern
            match = like_to_regex(str(expr.pattern.value)).match

            def _like_literal(cols: Sequence[list], n: int) -> list:
                values = operand(cols, n)
                # the regex runs once per distinct string of the batch:
                # a {value: result} table local to this call, so plans
                # shared across threads and pins share no state
                distinct = set(values)
                distinct.discard(None)
                if all(type(value) is str for value in distinct):
                    if negated:
                        table = {v: match(v) is None for v in distinct}
                    else:
                        table = {v: match(v) is not None for v in distinct}
                    table[None] = None
                    return list(map(table.__getitem__, values))
                # 1, 1.0 and True hash alike but render differently:
                # a batch holding non-strings matches row by row
                if negated:
                    return [
                        None if value is None else match(str(value)) is None
                        for value in values
                    ]
                return [
                    None if value is None else match(str(value)) is not None
                    for value in values
                ]

            return _like_literal
        pattern_fn = compile_expr_batch(expr.pattern, scope, agg_slots)

        def _like(cols: Sequence[list], n: int) -> list:
            values = operand(cols, n)
            patterns = pattern_fn(cols, n)
            out: list = []
            for value, pattern in zip(values, patterns):
                if value is None or pattern is None:
                    out.append(None)
                    continue
                matched = (
                    like_to_regex(str(pattern)).match(str(value)) is not None
                )
                out.append((not matched) if negated else matched)
            return out

        return _like

    if isinstance(expr, InList):
        return _compile_in_list_batch(expr, scope, agg_slots)

    if isinstance(expr, Between):
        operand = compile_expr_batch(expr.operand, scope, agg_slots)
        low_fn = compile_expr_batch(expr.low, scope, agg_slots)
        high_fn = compile_expr_batch(expr.high, scope, agg_slots)
        negated = expr.negated

        def _between(cols: Sequence[list], n: int) -> list:
            values = operand(cols, n)
            lows = low_fn(cols, n)
            highs = high_fn(cols, n)
            out: list = []
            for value, low, high in zip(values, lows, highs):
                cmp_low = compare_values(value, low)
                cmp_high = compare_values(value, high)
                if cmp_low is None or cmp_high is None:
                    out.append(None)
                    continue
                inside = cmp_low >= 0 and cmp_high <= 0
                out.append((not inside) if negated else inside)
            return out

        return _between

    if isinstance(expr, IsNull):
        operand = compile_expr_batch(expr.operand, scope, agg_slots)
        if expr.negated:
            return lambda cols, n: [
                value is not None for value in operand(cols, n)
            ]
        return lambda cols, n: [value is None for value in operand(cols, n)]

    if isinstance(expr, CaseWhen):
        branch_fns = [
            (compile_expr_batch(condition, scope, agg_slots),
             compile_expr_batch(value, scope, agg_slots))
            for condition, value in expr.branches
        ]
        default_fn = (
            compile_expr_batch(expr.default, scope, agg_slots)
            if expr.default is not None
            else None
        )

        def _case(cols: Sequence[list], n: int) -> list:
            out: list = [None] * n
            live = list(range(n))  # absolute row indices still undecided
            sub_cols: Sequence[list] = cols
            for condition_fn, value_fn in branch_fns:
                if not live:
                    return out
                conditions = condition_fn(sub_cols, len(live))
                taken = [j for j, c in enumerate(conditions) if c is True]
                if not taken:
                    continue
                if len(taken) == len(live):
                    values = value_fn(sub_cols, len(live))
                    for j, i in enumerate(live):
                        out[i] = values[j]
                    return out
                values = value_fn(gather_columns(sub_cols, taken), len(taken))
                for j, position in enumerate(taken):
                    out[live[position]] = values[j]
                kept = [j for j, c in enumerate(conditions) if c is not True]
                live = [live[j] for j in kept]
                sub_cols = gather_columns(sub_cols, kept)
            if default_fn is not None and live:
                values = default_fn(sub_cols, len(live))
                for j, i in enumerate(live):
                    out[i] = values[j]
            return out

        return _case

    raise SqlExecutionError(f"cannot compile expression: {expr!r}")


#: post-``compare_values`` checks, shared by the generic comparison path
_COMPARE_CHECKS: dict[str, Callable[[int], bool]] = {
    "=": lambda r: r == 0,
    "<>": lambda r: r != 0,
    "<": lambda r: r < 0,
    "<=": lambda r: r <= 0,
    ">": lambda r: r > 0,
    ">=": lambda r: r >= 0,
}


def _compile_binary_batch(
    expr: BinaryOp, scope: Scope, agg_slots: "dict[FuncCall, int] | None"
) -> BatchFn:
    op = expr.op

    if op == "AND":
        left = compile_expr_batch(expr.left, scope, agg_slots)
        right = compile_expr_batch(expr.right, scope, agg_slots)

        def _and(cols: Sequence[list], n: int) -> list:
            lhs = left(cols, n)
            live = [i for i, value in enumerate(lhs) if value is not False]
            if not live:
                return lhs  # everything False already
            if len(live) == n:
                rhs = right(cols, n)
                return [
                    False if b is False
                    else (None if a is None or b is None else True)
                    for a, b in zip(lhs, rhs)
                ]
            # evaluate the right side only where a row-at-a-time
            # evaluation would
            rhs = right(gather_columns(cols, live), len(live))
            out: list = [False] * n
            for j, i in enumerate(live):
                b = rhs[j]
                if b is False:
                    continue
                out[i] = None if lhs[i] is None or b is None else True
            return out

        return _and

    if op == "OR":
        left = compile_expr_batch(expr.left, scope, agg_slots)
        right = compile_expr_batch(expr.right, scope, agg_slots)

        def _or(cols: Sequence[list], n: int) -> list:
            lhs = left(cols, n)
            live = [i for i, value in enumerate(lhs) if value is not True]
            if not live:
                return lhs  # everything True already
            if len(live) == n:
                rhs = right(cols, n)
                return [
                    True if b is True
                    else (None if a is None or b is None else False)
                    for a, b in zip(lhs, rhs)
                ]
            rhs = right(gather_columns(cols, live), len(live))
            out: list = [True] * n
            for j, i in enumerate(live):
                b = rhs[j]
                if b is True:
                    out[i] = True
                    continue
                out[i] = None if lhs[i] is None or b is None else False
            return out

        return _or

    if op in _COMPARE_CHECKS:
        fast = _compile_compare_fast_path(expr, scope)
        if fast is not None:
            return fast
        left = compile_expr_batch(expr.left, scope, agg_slots)
        right = compile_expr_batch(expr.right, scope, agg_slots)
        check = _COMPARE_CHECKS[op]

        def _compare(cols: Sequence[list], n: int) -> list:
            return [
                None if (result := compare_values(a, b)) is None
                else check(result)
                for a, b in zip(left(cols, n), right(cols, n))
            ]

        return _compare

    if op in ("+", "-", "*", "/"):
        left = compile_expr_batch(expr.left, scope, agg_slots)
        right = compile_expr_batch(expr.right, scope, agg_slots)
        rendered = expr.to_sql()

        def _num(value: Any) -> Any:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SqlTypeError(
                    f"arithmetic on non-number {value!r} in {rendered}"
                )
            return value

        if op == "+":
            return lambda cols, n: [
                None if a is None or b is None else _num(a) + _num(b)
                for a, b in zip(left(cols, n), right(cols, n))
            ]
        if op == "-":
            return lambda cols, n: [
                None if a is None or b is None else _num(a) - _num(b)
                for a, b in zip(left(cols, n), right(cols, n))
            ]
        if op == "*":
            return lambda cols, n: [
                None if a is None or b is None else _num(a) * _num(b)
                for a, b in zip(left(cols, n), right(cols, n))
            ]

        def _div(a: Any, b: Any) -> Any:
            a, b = _num(a), _num(b)
            if b == 0:
                raise SqlExecutionError(f"division by zero in {rendered}")
            return a / b

        return lambda cols, n: [
            None if a is None or b is None else _div(a, b)
            for a, b in zip(left(cols, n), right(cols, n))
        ]

    if op == "||":
        left = compile_expr_batch(expr.left, scope, agg_slots)
        right = compile_expr_batch(expr.right, scope, agg_slots)
        return lambda cols, n: [
            None if a is None or b is None else str(a) + str(b)
            for a, b in zip(left(cols, n), right(cols, n))
        ]

    raise SqlExecutionError(
        f"unknown binary operator {op!r} in {expr.to_sql()}"
    )


def _compile_compare_fast_path(
    expr: BinaryOp, scope: Scope
) -> "BatchFn | None":
    """Specialized ``column <op> literal`` comparisons.

    The hottest predicate shape gets a single list comprehension with no
    per-row function calls.  Equality is phrased through ``<``/``>`` so
    the result matches :func:`compare_values` for every input it accepts
    (including NaN); values the fast type test rejects fall back to
    ``compare_values``, which raises the identical type errors.
    """
    column_side, literal_side, op = expr.left, expr.right, expr.op
    if isinstance(column_side, Literal) and isinstance(literal_side, ColumnRef):
        column_side, literal_side = literal_side, column_side
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        op = flip.get(op, op)
    if not (
        isinstance(column_side, ColumnRef) and isinstance(literal_side, Literal)
    ):
        return None
    lit = literal_side.value
    if lit is None:
        return lambda cols, n: [None] * n
    if isinstance(lit, bool) or not isinstance(lit, (int, float, str)):
        return None
    index = scope.resolve(column_side)
    check = _COMPARE_CHECKS[op]
    # exact-type membership is call-free per row; anything else (bool,
    # date, cross-type) drops to compare_values for identical semantics
    ok = frozenset((str,)) if isinstance(lit, str) else frozenset((int, float))

    if op == "=":
        def _eq(cols: Sequence[list], n: int) -> list:
            return [
                None if v is None
                else (not (v < lit or v > lit) if type(v) in ok
                      else check(compare_values(v, lit)))
                for v in cols[index]
            ]

        return _eq
    if op == "<>":
        def _ne(cols: Sequence[list], n: int) -> list:
            return [
                None if v is None
                else ((v < lit or v > lit) if type(v) in ok
                      else check(compare_values(v, lit)))
                for v in cols[index]
            ]

        return _ne
    if op == "<":
        def _lt(cols: Sequence[list], n: int) -> list:
            return [
                None if v is None
                else (v < lit if type(v) in ok
                      else check(compare_values(v, lit)))
                for v in cols[index]
            ]

        return _lt
    if op == "<=":
        def _le(cols: Sequence[list], n: int) -> list:
            return [
                None if v is None
                else (not (v > lit) if type(v) in ok
                      else check(compare_values(v, lit)))
                for v in cols[index]
            ]

        return _le
    if op == ">":
        def _gt(cols: Sequence[list], n: int) -> list:
            return [
                None if v is None
                else (v > lit if type(v) in ok
                      else check(compare_values(v, lit)))
                for v in cols[index]
            ]

        return _gt

    def _ge(cols: Sequence[list], n: int) -> list:
        return [
            None if v is None
            else (not (v < lit) if type(v) in ok
                  else check(compare_values(v, lit)))
            for v in cols[index]
        ]

    return _ge


def _compile_in_list_batch(
    expr: InList, scope: Scope, agg_slots: "dict[FuncCall, int] | None"
) -> BatchFn:
    operand = compile_expr_batch(expr.operand, scope, agg_slots)
    negated = expr.negated

    # fast path: a homogeneous list of non-NULL literals becomes one set
    # membership test per row (falling back where the type test fails so
    # mixed-type errors still surface via values_equal)
    literals = [
        item.value for item in expr.items if isinstance(item, Literal)
    ]
    if len(literals) == len(expr.items) and literals:
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in literals
        )
        textual = all(type(v) is str for v in literals)
        if numeric or textual:
            member_set = set(literals)

            def _in_set(cols: Sequence[list], n: int) -> list:
                values = operand(cols, n)
                out: list = []
                for value in values:
                    if value is None:
                        out.append(None)
                        continue
                    if numeric:
                        # NaN must take the values_equal walk below:
                        # compare_values treats NaN as equal to any
                        # number, set membership would never match it
                        ok = type(value) is int or (
                            type(value) is float and value == value
                        )
                    else:
                        ok = type(value) is str
                    if ok:
                        out.append(
                            (value not in member_set)
                            if negated
                            else (value in member_set)
                        )
                        continue
                    # mixed types: mirror the per-row item walk so the
                    # same SqlTypeError surfaces from values_equal
                    hit = False
                    for item in literals:
                        if values_equal(value, item):
                            out.append(not negated)
                            hit = True
                            break
                    if not hit:
                        out.append(negated)
                return out

            return _in_set

    item_fns = [
        compile_expr_batch(item, scope, agg_slots) for item in expr.items
    ]

    def _in(cols: Sequence[list], n: int) -> list:
        values = operand(cols, n)
        out: list = [None] * n  # NULL operands stay NULL
        live = [i for i, value in enumerate(values) if value is not None]
        if not live:
            return out
        # each item expression is evaluated only over the rows that
        # actually reach it (no earlier item matched), mirroring row
        # mode's per-row early exit and its error behavior
        if len(live) == n:
            sub_cols: Sequence[list] = cols
        else:
            sub_cols = gather_columns(cols, live)
        live_values = [values[i] for i in live]
        null_flags = [False] * len(live)
        for item_fn in item_fns:
            if not live:
                break
            item_col = item_fn(sub_cols, len(live))
            kept: list = []
            for position, value in enumerate(live_values):
                equal = values_equal(value, item_col[position])
                if equal is None:
                    null_flags[position] = True
                elif equal:
                    out[live[position]] = not negated
                    continue
                kept.append(position)
            if len(kept) != len(live):
                live = [live[p] for p in kept]
                live_values = [live_values[p] for p in kept]
                null_flags = [null_flags[p] for p in kept]
                sub_cols = gather_columns(sub_cols, kept)
        for position, i in enumerate(live):
            out[i] = None if null_flags[position] else negated
        return out

    return _in


# ---------------------------------------------------------------------------
# fused expression codegen
# ---------------------------------------------------------------------------

#: compiled code objects keyed by generated source, so plans that fuse
#: to identical shapes share one ``compile()`` (constants are bound per
#: plan at exec time)
_FUSED_CODE_CACHE: dict[str, Any] = {}
_FUSED_CODE_CACHE_MAX = 512

#: sources above this size fall back to closures: deeply nested trees
#: duplicate NULL guards, and past this point codegen stops paying off
_FUSION_MAX_SOURCE = 20000

_FUSIBLE_COMPARES = frozenset(("=", "<>", "<", "<=", ">", ">="))

_NEGATED_COMPARE = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


def _cmp_formula(op: str, a: str, b: str, cls: str, positive: bool) -> str:
    """A Python expression deciding ``a <op> b`` for non-NULL operands.

    Numeric equality is phrased through ``<``/``>`` (and ``<=``/``>=``
    as negations) so NaN behaves exactly like :func:`compare_values`,
    which reports 0 for NaN against any number.  Strings and dates are
    total orders, where the direct operators agree with compare_values.
    """
    if not positive:
        op = _NEGATED_COMPARE[op]
    if op == "=":
        if cls == "num":
            return f"not ({a} < {b} or {a} > {b})"
        return f"{a} == {b}"
    if op == "<>":
        if cls == "num":
            return f"({a} < {b} or {a} > {b})"
        return f"{a} != {b}"
    if op == "<":
        return f"{a} < {b}"
    if op == "<=":
        return f"not ({a} > {b})"
    if op == ">":
        return f"{a} > {b}"
    return f"not ({a} < {b})"


class _Unfusible(Exception):
    """Raised by the codegen visitor on any node it cannot prove safe."""


class _Val:
    """A generated value expression: code string + value class + literal."""

    __slots__ = ("code", "cls", "lit", "is_lit")

    def __init__(self, code, cls, lit=None, is_lit=False) -> None:
        self.code = code
        self.cls = cls
        self.lit = lit
        self.is_lit = is_lit


class FusedBatch:
    """One generated batch function produced by :func:`fuse_batch_exprs`.

    ``fn(cols, n)`` evaluates the fused expressions over a column batch:
    in filter mode it returns the selected row indices (all conjuncts
    True); in value mode it returns a tuple of output columns, one per
    fused expression.  ``consumed`` is the number of leading predicates
    folded in (filter mode); ``indexes`` the positions of the fused
    expressions (value mode).  ``source`` keeps the generated Python for
    EXPLAIN-style debugging and tests.
    """

    __slots__ = ("fn", "consumed", "indexes", "source")

    def __init__(self, fn, consumed, indexes, source) -> None:
        self.fn = fn
        self.consumed = consumed
        self.indexes = indexes
        self.source = source


class _Fuser:
    """Codegen state shared across the expressions of one fuse call."""

    def __init__(self, scope: Scope, class_of) -> None:
        self.scope = scope
        self.class_of = class_of
        #: scope index -> variable id; insertion order assigns
        #: deterministic ids
        self.cols: dict[int, int] = {}
        self.consts: dict[str, Any] = {}
        #: row-local variable ids used by the expression being generated
        self.current_used: list[int] = []

    # -- rollback ------------------------------------------------------
    def snapshot(self):
        return dict(self.cols), dict(self.consts)

    def restore(self, snap) -> None:
        self.cols, self.consts = snap[0], snap[1]

    # -- registration --------------------------------------------------
    def use_col(self, index: int) -> str:
        """The row variable of scope column *index* (``_x<id>``)."""
        vid = self.cols.setdefault(index, len(self.cols))
        if vid not in self.current_used:
            self.current_used.append(vid)
        return f"_x{vid}"

    def const(self, value: Any) -> str:
        name = f"_k{len(self.consts)}"
        self.consts[name] = value
        return name

    def resolve_col(self, ref: ColumnRef) -> int:
        try:
            return self.scope.resolve(ref)
        except SqlCatalogError:
            raise _Unfusible from None

    def col_class(self, index: int) -> "str | None":
        binding, column = self.scope.pairs[index]
        return self.class_of(binding, column)

    # -- boolean-context generation ------------------------------------
    def boolish(self, expr: Expr) -> bool:
        """True when *expr* can only evaluate to True/False/None — the
        precondition for distributing NOT/AND/OR over it."""
        if isinstance(expr, (Between, InList, IsNull, Like)):
            return True
        if isinstance(expr, BinaryOp):
            return expr.op in ("AND", "OR") or expr.op in _FUSIBLE_COMPARES
        if isinstance(expr, UnaryOp):
            return expr.op == "NOT"
        if isinstance(expr, Literal):
            return isinstance(expr.value, bool) or expr.value is None
        if isinstance(expr, ColumnRef):
            return self.col_class(self.resolve_col(expr)) == "bool"
        return False

    def gen_bool(self, expr: Expr, positive: bool) -> str:
        """Code for t(expr) (``positive``) or f(expr): a plain Python
        bool deciding whether the 3VL value is True (resp. False)."""
        if isinstance(expr, Literal):
            hit = expr.value is True if positive else expr.value is False
            return "True" if hit else "False"
        if isinstance(expr, UnaryOp) and expr.op == "NOT":
            # NOT of a non-boolean uses Python truthiness per row;
            # only distribute over operands confined to 3VL values
            if not self.boolish(expr.operand):
                raise _Unfusible
            return self.gen_bool(expr.operand, not positive)
        if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
            if not (self.boolish(expr.left) and self.boolish(expr.right)):
                raise _Unfusible
            # t(AND)=t∧t, f(AND)=f∨f, t(OR)=t∨t, f(OR)=f∧f
            lhs = self.gen_bool(expr.left, positive)
            rhs = self.gen_bool(expr.right, positive)
            if expr.op == "AND":
                joiner = "and" if positive else "or"
            else:
                joiner = "or" if positive else "and"
            return f"(({lhs}) {joiner} ({rhs}))"
        if isinstance(expr, BinaryOp) and expr.op in _FUSIBLE_COMPARES:
            parts = self._compare_parts(expr.left, expr.right)
            if parts is None:  # comparison against a NULL literal
                return "False"
            a, b, cls, nonlit = parts
            formula = _cmp_formula(expr.op, a, b, cls, positive)
            guards = [f"{code} is not None" for code in nonlit]
            return "(" + " and ".join(guards + [f"({formula})"]) + ")"
        if isinstance(expr, Between):
            a, low, high, cls, nonlit = self._between_parts(expr)
            inside = positive ^ expr.negated
            if inside:
                formula = f"not ({a} < {low}) and not ({a} > {high})"
            else:
                formula = f"(({a} < {low}) or ({a} > {high}))"
            guards = [f"{code} is not None" for code in nonlit]
            return "(" + " and ".join(guards + [f"({formula})"]) + ")"
        if isinstance(expr, InList):
            member, operand = self._in_parts(expr)
            want = positive ^ expr.negated
            test = f"({member})" if want else f"not ({member})"
            return f"({operand} is not None and {test})"
        if isinstance(expr, IsNull):
            code = self._is_null_operand(expr)
            test = "is None" if (positive ^ expr.negated) else "is not None"
            return f"({code} {test})"
        # generic fallback: the mask semantics are `value is True`; the
        # False polarity additionally requires a genuinely boolean value
        value = self.gen_value(expr)
        if positive:
            return f"(({value.code}) is True)"
        if value.cls != "bool":
            raise _Unfusible
        return f"(({value.code}) is False)"

    # -- value generation ----------------------------------------------
    def gen_value(self, expr: Expr) -> _Val:
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return _Val("None", None, None, True)
            if isinstance(value, bool):
                return _Val("True" if value else "False", "bool", value, True)
            if isinstance(value, (int, float)):
                return _Val(self.const(value), "num", value, True)
            if isinstance(value, str):
                return _Val(self.const(value), "str", value, True)
            if isinstance(value, datetime.date):
                return _Val(self.const(value), "date", value, True)
            raise _Unfusible

        if isinstance(expr, ColumnRef):
            index = self.resolve_col(expr)
            cls = self.col_class(index)
            if cls is None:
                raise _Unfusible
            return _Val(self.use_col(index), cls)

        if isinstance(expr, FuncCall):
            return self._gen_func(expr)

        if isinstance(expr, UnaryOp):
            if expr.op == "NOT":
                value = self.gen_value(expr.operand)
                return _Val(
                    f"(None if {value.code} is None else not {value.code})",
                    "bool",
                )
            if expr.op == "-":
                value = self.gen_value(expr.operand)
                if value.cls != "num":
                    raise _Unfusible
                return _Val(
                    f"(None if {value.code} is None else -({value.code}))",
                    "num",
                )
            raise _Unfusible

        if isinstance(expr, BinaryOp):
            return self._gen_binary_value(expr)

        if isinstance(expr, Between):
            a, low, high, cls, nonlit = self._between_parts(expr)
            if expr.negated:
                formula = f"(({a} < {low}) or ({a} > {high}))"
            else:
                formula = f"(not ({a} < {low}) and not ({a} > {high}))"
            if not nonlit:
                return _Val(formula, "bool")
            nulls = " or ".join(f"{code} is None" for code in nonlit)
            return _Val(f"(None if {nulls} else {formula})", "bool")

        if isinstance(expr, InList):
            member, operand = self._in_parts(expr)
            test = f"not ({member})" if expr.negated else f"({member})"
            return _Val(f"(None if {operand} is None else {test})", "bool")

        if isinstance(expr, IsNull):
            code = self._is_null_operand(expr)
            test = "is not None" if expr.negated else "is None"
            return _Val(f"({code} {test})", "bool")

        if isinstance(expr, CaseWhen):
            return self._gen_case(expr)

        raise _Unfusible

    def _gen_func(self, expr: FuncCall) -> _Val:
        if expr.name in AGGREGATE_FUNCTIONS:
            raise _Unfusible
        if expr.name in ("lower", "upper") and len(expr.args) == 1:
            value = self.gen_value(expr.args[0])
            code = (
                f"(None if {value.code} is None"
                f" else str({value.code}).{expr.name}())"
            )
            return _Val(code, "str")
        if expr.name == "length" and len(expr.args) == 1:
            value = self.gen_value(expr.args[0])
            return _Val(
                f"(None if {value.code} is None else len(str({value.code})))",
                "num",
            )
        if expr.name == "coalesce" and expr.args:
            values = [self.gen_value(arg) for arg in expr.args]
            classes = {v.cls for v in values if v.cls is not None}
            if len(classes) > 1:
                raise _Unfusible
            cls = classes.pop() if classes else None
            code = "None"
            for value in reversed(values):
                code = f"({value.code} if {value.code} is not None else {code})"
            return _Val(code, cls)
        raise _Unfusible

    def _gen_binary_value(self, expr: BinaryOp) -> _Val:
        op = expr.op
        if op in ("AND", "OR"):
            a = self.gen_value(expr.left)
            b = self.gen_value(expr.right)
            if op == "AND":
                code = (
                    f"(False if {a.code} is False or {b.code} is False"
                    f" else (None if {a.code} is None or {b.code} is None"
                    f" else True))"
                )
            else:
                code = (
                    f"(True if {a.code} is True or {b.code} is True"
                    f" else (None if {a.code} is None or {b.code} is None"
                    f" else False))"
                )
            return _Val(code, "bool")
        if op in _FUSIBLE_COMPARES:
            parts = self._compare_parts(expr.left, expr.right)
            if parts is None:
                return _Val("None", "bool")
            a, b, cls, nonlit = parts
            formula = f"({_cmp_formula(op, a, b, cls, True)})"
            if not nonlit:
                return _Val(formula, "bool")
            nulls = " or ".join(f"{code} is None" for code in nonlit)
            return _Val(f"(None if {nulls} else {formula})", "bool")
        if op in ("+", "-", "*", "/"):
            a = self.gen_value(expr.left)
            b = self.gen_value(expr.right)
            if a.cls != "num" or b.cls != "num":
                raise _Unfusible
            if op == "/":
                # only a provably nonzero literal divisor cannot raise
                if not (b.is_lit and b.lit != 0):
                    raise _Unfusible
            formula = f"({a.code} {op} {b.code})"
            nonlit = [v.code for v in (a, b) if not (v.is_lit and v.lit is not None)]
            if not nonlit:
                return _Val(formula, "num")
            nulls = " or ".join(f"{code} is None" for code in nonlit)
            return _Val(f"(None if {nulls} else {formula})", "num")
        if op == "||":
            a = self.gen_value(expr.left)
            b = self.gen_value(expr.right)
            formula = f"(str({a.code}) + str({b.code}))"
            nonlit = [v.code for v in (a, b) if not (v.is_lit and v.lit is not None)]
            if not nonlit:
                return _Val(formula, "str")
            nulls = " or ".join(f"{code} is None" for code in nonlit)
            return _Val(f"(None if {nulls} else {formula})", "str")
        raise _Unfusible

    def _gen_case(self, expr: CaseWhen) -> _Val:
        branches = [
            (self.gen_bool(condition, True), self.gen_value(value))
            for condition, value in expr.branches
        ]
        default = (
            self.gen_value(expr.default) if expr.default is not None else None
        )
        values = [value for __, value in branches]
        if default is not None:
            values.append(default)
        classes = {v.cls for v in values if v.cls is not None}
        if len(classes) > 1:
            raise _Unfusible
        cls = classes.pop() if classes else None
        code = default.code if default is not None else "None"
        for condition, value in reversed(branches):
            code = f"(({value.code}) if ({condition}) else {code})"
        return _Val(code, cls)

    # -- comparison plumbing -------------------------------------------
    def _compare_parts(self, left: Expr, right: Expr):
        """Aligned operand codes for a comparison, or None when one side
        is a NULL literal (a constant-NULL comparison).

        Returns ``(a, b, cls, nonlit)`` where *nonlit* lists the operand
        codes needing NULL guards.
        """
        a = self.gen_value(left)
        b = self.gen_value(right)
        if (a.is_lit and a.lit is None) or (b.is_lit and b.lit is None):
            return None
        cls = self._align(a, b)
        nonlit = [v.code for v in (a, b) if not (v.is_lit and v.lit is not None)]
        return a.code, b.code, cls, nonlit

    def _align(self, a: _Val, b: _Val) -> str:
        """The common comparison class, parsing a string literal against
        a date side at codegen time exactly as compare_values would per
        row (an unparsable literal would raise per row: unfusible)."""
        if a.cls == b.cls and a.cls in ("num", "str", "date"):
            return a.cls
        for date_side, str_side in ((a, b), (b, a)):
            if date_side.cls == "date" and str_side.cls == "str" and str_side.is_lit:
                try:
                    parsed = parse_date(str_side.lit)
                except SqlTypeError:
                    raise _Unfusible from None
                self.consts[str_side.code] = parsed
                str_side.cls = "date"
                return "date"
        raise _Unfusible

    def _between_parts(self, expr: Between):
        a = self.gen_value(expr.operand)
        low = self.gen_value(expr.low)
        high = self.gen_value(expr.high)
        cls = self._align(a, low)
        if self._align(a, high) != cls:
            raise _Unfusible
        values = (a, low, high)
        nonlit = [v.code for v in values if not (v.is_lit and v.lit is not None)]
        return a.code, low.code, high.code, cls, nonlit

    def _in_parts(self, expr: InList):
        """``(member_test_code, operand_code)`` for a literal IN list."""
        literals = []
        for item in expr.items:
            if not isinstance(item, Literal) or item.value is None:
                raise _Unfusible
            literals.append(item.value)
        if not literals:
            raise _Unfusible
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in literals
        )
        textual = all(type(v) is str for v in literals)
        if not (numeric or textual):
            raise _Unfusible
        value = self.gen_value(expr.operand)
        if numeric:
            if value.cls != "num":
                raise _Unfusible
            members = self.const(frozenset(literals))
            # NaN: compare_values calls it equal to any number, so a NaN
            # operand matches the first item — membership alone wouldn't
            return (
                f"{value.code} in {members} or {value.code} != {value.code}",
                value.code,
            )
        if value.cls != "str":
            raise _Unfusible
        members = self.const(frozenset(literals))
        return f"{value.code} in {members}", value.code

    def _is_null_operand(self, expr: IsNull) -> str:
        if isinstance(expr.operand, ColumnRef):
            index = self.resolve_col(expr.operand)
            if self.col_class(index) is None:
                raise _Unfusible
            return self.use_col(index)
        return self.gen_value(expr.operand).code

    def gen_bound(self, index: int, descending: bool, null: bool) -> str:
        """A top-N bound conjunct on column *index*: false iff the key
        sorts strictly past the bound ``_b`` in ``sort_key`` order (NULL
        and NaN first); ties stay for a secondary key to decide.  *null*:
        the bound is NULL, ascending, and only NULL / NaN are not past."""
        x = self.use_col(index)
        if null:
            return f"({x} is None or {x} != {x})"
        if descending:
            return f"({x} is not None and {x} >= _b)"
        return f"({x} is None or not ({x} > _b))"

    # -- source assembly -----------------------------------------------
    def column_decls(self) -> list[str]:
        return [f"    _v{vid} = cols[{index}]" for index, vid in self.cols.items()]


def _row_iter(used: Sequence[int], with_index: bool) -> str:
    """The ``for`` clause iterating the used columns' row values."""
    if len(used) == 1:
        target = f"_x{used[0]}"
        source = f"_v{used[0]}"
    else:
        target = "(" + ", ".join(f"_x{vid}" for vid in used) + ")"
        source = "zip(" + ", ".join(f"_v{vid}" for vid in used) + ")"
    if with_index:
        return f"for _i, {target} in enumerate({source})"
    if len(used) > 1:
        target = target[1:-1]  # bare tuple target reads better in a comp
    return f"for {target} in {source}"


def _instantiate(source: str, consts: dict) -> Callable:
    code = _FUSED_CODE_CACHE.get(source)
    if code is None:
        if len(_FUSED_CODE_CACHE) >= _FUSED_CODE_CACHE_MAX:
            _FUSED_CODE_CACHE.clear()
        code = compile(source, "<fused-batch-exprs>", "exec")
        _FUSED_CODE_CACHE[source] = code
    namespace = dict(consts)
    exec(code, namespace)
    return namespace["_fused"]


def fuse_batch_exprs(
    exprs: Sequence[Expr],
    scope: Scope,
    class_of: Callable[["str | None", str], "str | None"],
    mode: str = "value",
    bound: "tuple | None" = None,
) -> "FusedBatch | None":
    """Compile expression trees into one generated function per batch.

    *class_of* maps a scope pair ``(binding, column)`` to its value
    class (``"num"``/``"str"``/``"date"``/``"bool"``) or None for
    columns of unknown provenance; the generator refuses any node whose
    semantics it cannot pin down from those classes, so everything it
    emits is provably identical to the closure tier — results *and*
    errors (fused nodes never raise, making evaluation order and
    short-circuit differences unobservable).

    ``mode="filter"``: *exprs* are conjuncts applied in order; the
    longest fusible prefix becomes one function returning the selected
    row indices.  Remaining conjuncts must keep running as closures, in
    order, to preserve error semantics.  A prefix that is every conjunct
    ends with the top-N *bound* test when given (:meth:`_Fuser.gen_bound`
    arguments), comparing with the function's third argument.

    ``mode="value"``: each fusible compound expression becomes one
    output column of the generated function (bare column refs and
    literals are excluded — the existing closures alias them for free).

    Returns None when nothing worthwhile could be fused.
    """
    if mode not in ("filter", "value"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    fuser = _Fuser(scope, class_of)

    if mode == "filter":
        conds: list[str] = []
        for expr in exprs:
            snap = fuser.snapshot()
            try:
                conds.append(fuser.gen_bool(expr, True))
            except _Unfusible:
                fuser.restore(snap)
                break
        consumed = len(conds)
        if bound is not None and consumed == len(exprs):
            conds.append(fuser.gen_bound(*bound))
        if not conds or not fuser.cols:
            return None
        lines = ["def _fused(cols, n, _b=None):"]
        lines += fuser.column_decls()
        condition = " and ".join(f"({c})" for c in conds)
        used = sorted(fuser.cols.values())
        lines.append(f"    return [_i {_row_iter(used, True)} if {condition}]")
        source = "\n".join(lines) + "\n"
        if len(source) > _FUSION_MAX_SOURCE:
            return None
        fn = _instantiate(source, fuser.consts)
        return FusedBatch(fn, consumed, None, source)

    outputs: list[tuple] = []
    for position, expr in enumerate(exprs):
        if not isinstance(expr, Expr) or isinstance(expr, (Literal, ColumnRef)):
            continue
        snap = fuser.snapshot()
        fuser.current_used = []
        try:
            value = fuser.gen_value(expr)
        except _Unfusible:
            fuser.restore(snap)
            continue
        if not fuser.current_used:
            fuser.restore(snap)
            continue
        outputs.append((position, value.code, sorted(fuser.current_used)))
    if not outputs:
        return None
    lines = ["def _fused(cols, n):"]
    lines += fuser.column_decls()
    names = []
    for slot, (__, code, used) in enumerate(outputs):
        names.append(f"_o{slot}")
        lines.append(f"    _o{slot} = [{code} {_row_iter(used, False)}]")
    lines.append(f"    return ({', '.join(names)}{',' if len(names) == 1 else ''})")
    source = "\n".join(lines) + "\n"
    if len(source) > _FUSION_MAX_SOURCE:
        return None
    fn = _instantiate(source, fuser.consts)
    return FusedBatch(fn, None, [position for position, __, __ in outputs], source)


#: each call :func:`fuse_grouping` folds inline and its state in a new
#: group: a closed form for count/min/max, the values for sum/avg
_FOLD_INITIAL = {"count": "0", "min": "None", "max": "None", "sum": "[]",
                 "avg": "[]"}


def fuse_grouping(
    predicates: Sequence[Expr],
    keys: Sequence[Expr],
    calls: Sequence[Expr],
    rep: Sequence[int],
    scope: Scope,
    class_of: Callable[["str | None", str], "str | None"],
) -> "FusedBatch | None":
    """Filter, group and aggregate a batch in one generated row loop.

    ``fn(cols, n, groups)`` runs the *predicates*; per surviving row it
    gets ``groups[key]`` (keyed as the batch path does), made ``[rep_row,
    state, ...]`` at the key's first row (*rep*: its scope columns), and
    applies the row-at-a-time rule: ``count`` adds one per non-NULL
    value, ``min`` / ``max`` take a value below / above the state,
    ``sum`` / ``avg`` append it.  It returns the surviving row count.

    None (the batch path) unless every call is a non-DISTINCT ``count``
    / ``count(*)`` / ``min`` / ``max`` / ``sum`` / ``avg`` (numbers only)
    and every predicate, key and argument fuses, so no row can raise;
    also None with neither a key nor a predicate (whole columns feed the
    accumulators faster) and past ``_FUSION_MAX_SOURCE``.
    """
    if not predicates and not keys:
        return None
    fuser = _Fuser(scope, class_of)
    try:
        conds = [fuser.gen_bool(predicate, True) for predicate in predicates]
        key_codes = [fuser.gen_value(key).code for key in keys]
        args = []
        for call in calls:
            if call.distinct or call.name not in _FOLD_INITIAL or (
                call.star and call.name != "count"
            ):
                raise _Unfusible
            value = None if call.star else fuser.gen_value(call.args[0])
            if call.name in ("sum", "avg") and value.cls != "num":
                raise _Unfusible
            args.append(None if value is None else value.code)
    except _Unfusible:
        return None
    rep_code = "(" + "".join(f"{fuser.use_col(i)}, " for i in rep) + ")"
    initial = ", ".join([rep_code] + [_FOLD_INITIAL[c.name] for c in calls])
    body = []
    if conds:
        condition = " and ".join(f"({c})" for c in conds)
        body += [f"if not ({condition}): continue", "n += 1"]
    key = key_codes[0] if len(key_codes) == 1 else (
        "(" + "".join(f"{code}, " for code in key_codes) + ")"
    )
    if not key_codes:  # one global group, looked up once per batch
        body.append(f"if _a is None: _a = _g[()] = [{initial}]")
    else:
        if not key.isidentifier():
            body.append(f"_key = {key}")
            key = "_key"
        body += [f"_a = _get({key})",
                 f"if _a is None: _a = _g[{key}] = [{initial}]"]
    for slot, (call, code) in enumerate(zip(calls, args), start=1):
        state = f"_a[{slot}]"
        if code is None:
            body.append(f"{state} += 1")
            continue
        if not code.isidentifier():  # a compound argument: evaluate once
            body.append(f"_t{slot} = {code}")
            code = f"_t{slot}"
        if call.name == "count":
            body.append(f"if {code} is not None: {state} += 1")
        elif call.name in ("min", "max"):
            op = "<" if call.name == "min" else ">"
            body.append(f"if {code} is not None and ({state} is None"
                        f" or {code} {op} {state}): {state} = {code}")
        else:
            body.append(f"if {code} is not None: {state}.append({code})")
    used = sorted(fuser.cols.values())
    if not used:  # nothing read per row: the batch path counts faster
        return None
    lines = ["def _fused(cols, n, _g):"] + fuser.column_decls()
    lines.append("    _get = _g.get" if key_codes else "    _a = _g.get(())")
    if conds:
        lines.append("    n = 0  # now the survivors")
    lines.append(f"    {_row_iter(used, False)}:")
    lines += [f"        {line}" for line in body] + ["    return n"]
    source = "\n".join(lines) + "\n"
    if len(source) > _FUSION_MAX_SOURCE:
        return None
    return FusedBatch(_instantiate(source, fuser.consts), None, None, source)


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Split an expression on top-level ANDs.

    >>> from repro.sqlengine.parser import parse_select
    >>> stmt = parse_select("SELECT * FROM t WHERE a = 1 AND b = 2")
    >>> len(split_conjuncts(stmt.where))
    2
    """
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


# ---------------------------------------------------------------------------
# static error analysis: can this expression raise on some row?
# ---------------------------------------------------------------------------

_NUMERIC_TYPES = (SqlType.INTEGER, SqlType.REAL)
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


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
        if expr.name in ("lower", "upper"):
            return "str"
        if expr.name in ("length", "abs", "year", "month"):
            return "num"
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
