"""Expression compilation and evaluation.

:func:`compile_batch` is the one expression evaluator: it compiles
expression trees against a :class:`Scope` (the column layout of the
batches flowing through an operator) into *generated Python source* —
one function per batch, each row's values computed inline in one loop.
Three-valued logic is used throughout: a predicate evaluates to
``True``, ``False`` or ``None`` (unknown), and WHERE keeps only rows
where the predicate is ``True``.  Results and errors are those of the
row-at-a-time reference interpreter: a node whose value classes are
known gets an inline formula, any other calls the reference's helpers
(``compare_values``, ``values_equal``, the scalar functions, the
arithmetic checks); AND / OR / CASE / IN evaluate a part only on the
rows that reach it, and the conjuncts of a filter or the targets of a
projection run row by row, so the first error raised is the
reference's.  The source grows linearly with the tree.  Anything that
needs one value — constant folding — evaluates a one-row batch.  A
``LIKE`` with a literal pattern runs its regex once per distinct string
that reaches it in a batch, through a ``{value: result}`` table that
fills per call.
The compiler is also the engine's only "can this raise" analysis:
while it generates a node it records whether that node's code can
raise (``_Val.safe``), exposed as :attr:`FusedBatch.safe` and, for
decisions taken before any batch function exists, as
:func:`never_raises`.
:func:`fuse_grouping` puts the GROUP BY above a scan into the same
generated loop, and with :func:`fuse_merge` the one above a hash join.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Callable, Sequence

from repro.errors import (
    SqlCatalogError,
    SqlError,
    SqlExecutionError,
    SqlTypeError,
)
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
# compilation: expression trees -> generated Python, one function per batch
# ---------------------------------------------------------------------------

def gather_columns(cols: Sequence[list], indices: Sequence[int]) -> list:
    """Compact every column of a batch down to the selected row indices."""
    return [[column[i] for i in indices] for column in cols]


# -- what generated code calls where no inline formula is exact -------------


def _num(value: Any, rendered: str) -> Any:
    """*value* if it is a number; the arithmetic type error otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlTypeError(f"arithmetic on non-number {value!r} in {rendered}")
    return value


def _div(a: Any, b: Any, rendered: str) -> Any:
    a, b = _num(a, rendered), _num(b, rendered)
    if b == 0:
        raise SqlExecutionError(f"division by zero in {rendered}")
    return a / b


def _negate(value: Any, rendered: str) -> Any:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlTypeError(f"cannot negate {value!r} in {rendered}")
    return -value


def _between(value: Any, low: Any, high: Any) -> Any:
    """3VL ``low <= value <= high``, both bounds compared."""
    cmp_low = compare_values(value, low)
    cmp_high = compare_values(value, high)
    if cmp_low is None or cmp_high is None:
        return None
    return cmp_low >= 0 and cmp_high <= 0


def _in_list(value: Any, items: Sequence, lazy: bool) -> Any:
    """3VL ``value IN items``; *lazy* items are thunks, called in order
    until one matches."""
    if value is None:
        return None
    saw_null = False
    for item in items:
        equal = values_equal(value, item() if lazy else item)
        if equal is None:
            saw_null = True
        elif equal:
            return True
    return None if saw_null else False


def _like(value: Any, pattern: Any) -> Any:
    if value is None or pattern is None:
        return None
    return like_to_regex(str(pattern)).match(str(value)) is not None


class _LikeTable(dict):
    """A literal LIKE's ``{value: result}`` table, local to one call
    (cached plans share no state): the regex runs once per distinct
    string that reaches the LIKE, and ``None`` maps to ``None``.  Only
    strings enter it — ``1``, ``1.0`` and ``True`` hash alike but render
    as ``'1'``, ``'1.0'`` and ``'True'``."""

    __slots__ = ("match",)

    def __init__(self, match) -> None:
        super().__init__({None: None})
        self.match = match

    def __missing__(self, value: Any) -> bool:
        result = self.match(str(value)) is not None
        if type(value) is str:
            self[value] = result
        return result


#: the globals of every generated function besides its constants
_RUNTIME = {
    "_num": _num, "_div": _div, "_negate": _negate, "_cmp": compare_values,
    "_between": _between, "_in_list": _in_list, "_like": _like,
    "_LikeTable": _LikeTable,
}

#: compiled code objects keyed by generated source, so plans that compile
#: to identical shapes share one ``compile()`` (constants are bound per
#: plan at exec time)
_FUSED_CODE_CACHE: dict[str, Any] = {}
_FUSED_CODE_CACHE_MAX = 512

#: nesting levels one generated function holds; a deeper subtree becomes
#: a function of its own (the tokenizer stops at 200 open parentheses,
#: and a node opens at most three)
_MAX_DEPTH = 32

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

_NEGATED_COMPARE = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

#: the test on a ``compare_values`` result, per operator
_COMPARE_RESULT = {
    "=": "== 0", "<>": "!= 0", "<": "< 0", "<=": "<= 0", ">": "> 0",
    ">=": ">= 0",
}

#: result class of a scalar function call that returns
_FUNCTION_CLASS = {
    "lower": "str", "upper": "str", "length": "num", "abs": "num",
    "year": "num", "month": "num",
}

_FREE_NAME = re.compile(r"\b_[xm]\d+\b")


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


class _Val:
    """Generated code for one node: its value class, literal, whether it
    can raise (``safe`` if not) and its nesting depth."""

    __slots__ = ("code", "cls", "lit", "is_lit", "safe", "depth")

    def __init__(self, code, cls, lit=None, is_lit=False, safe=True,
                 depth=0) -> None:
        self.code = code
        self.cls = cls
        self.lit = lit
        self.is_lit = is_lit
        self.safe = safe
        self.depth = depth

    @property
    def null(self) -> bool:
        return self.is_lit and self.lit is None


_NULL = _Val("None", None, None, True)


def _common_class(values) -> "str | None":
    """The one class of *values* (NULL literals aside), else None."""
    classes = {value.cls for value in values if not value.null}
    return classes.pop() if len(classes) == 1 else None


class FusedBatch:
    """One batch function produced by :func:`compile_batch` or
    :func:`fuse_grouping`; ``source`` keeps the generated Python for
    debugging and tests (None when nothing was generated).  ``safe`` is
    the compiler's verdict that ``fn`` cannot raise on any batch:
    :func:`compile_batch` sets it when every filter conjunct or computed
    target compiled to code that cannot raise (``_Val.safe``); the fused
    folds leave it False.  The plan rewrites that must not change which
    error surfaces — zone skips, the top-N bound — read it."""

    __slots__ = ("fn", "source", "safe")

    def __init__(self, fn, source, safe: bool = False) -> None:
        self.fn = fn
        self.source = source
        self.safe = safe


class _Fuser:
    """Codegen state shared across the expressions of one compile call.

    Every node evaluates exactly the sub-expressions the reference
    interpreter evaluates for the same row, in its order, and raises its
    errors: AND / OR / CASE / IN evaluate their later parts only on the
    rows that reach them, and a shortcut that would skip a part is taken
    only when that part cannot raise (``_Val.safe``).  A compound operand
    a formula reads twice is bound once (``:=``), so the source grows
    linearly with the tree.
    """

    def __init__(self, scope: Scope, class_of, agg_slots=None) -> None:
        self.scope = scope
        self.class_of = class_of
        self.agg_slots = agg_slots
        #: scope index -> variable id; insertion order assigns
        #: deterministic ids
        self.cols: dict[int, int] = {}
        self.consts: dict[str, Any] = {}
        #: row-local variable ids used by the expression being generated
        self.current_used: list[int] = []
        #: per-call setup lines (LIKE tables) and split-out subtrees
        self.prelude: list[str] = []
        self.helpers: list[str] = []
        self.temps = 0

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

    def col_class(self, index: int) -> "str | None":
        if self.class_of is None:
            return None
        binding, column = self.scope.pairs[index]
        return self.class_of(binding, column)

    def bind(self, val: _Val) -> tuple:
        """``(first, ref)``: *val*'s code binding a temporary, then the
        name later reads use — the code itself when it is a name."""
        if val.code.isidentifier():
            return val.code, val.code
        self.temps += 1
        name = f"_t{self.temps}"
        return f"({name} := {val.code})", name

    def node(self, code: str, cls, children, safe: bool = True) -> _Val:
        """A compound value one level deeper than *children*, safe when
        they all are and *safe*; at ``_MAX_DEPTH`` it becomes a call."""
        depth = 1 + max((child.depth for child in children), default=0)
        safe = safe and all(child.safe for child in children)
        if depth >= _MAX_DEPTH:
            params = ", ".join(dict.fromkeys(_FREE_NAME.findall(code)))
            name = f"_s{len(self.helpers)}"
            self.helpers.append(f"def {name}({params}):\n    return {code}")
            code, depth = f"{name}({params})", 1
        return _Val(code, cls, safe=safe, depth=depth)

    def guard(self, vals, present: bool) -> tuple:
        """``(test, refs)`` for operands the reference evaluates all of
        before its NULL check: *test* binds and tests each operand that
        can be NULL — true when any is NULL, or with *present* when none
        is — and evaluates every later one that can raise even past a
        NULL; *refs* name the operands for the formula."""
        refs, tests, tested = [], [], []
        for val in vals:
            if val.is_lit and not val.null:
                refs.append(val.code)
                continue
            first, ref = self.bind(val)
            refs.append(ref)
            tests.append(f"{first} is {'not ' if present else ''}None")
            tested.append(val)
        if not tests:
            return None, refs
        if all(val.safe for val in tested[1:]):
            return f" {'and' if present else 'or'} ".join(tests), refs
        joiner = " & " if present else " | "
        return joiner.join(f"({test})" for test in tests), refs

    def guarded(self, test, formula: str, polarity) -> str:
        """*formula* under a :meth:`guard` test, as a value (polarity
        None) or a t()/f() test."""
        if test is None:
            return f"({formula})"
        if polarity is None:
            return f"(None if {test} else ({formula}))"
        return f"({test} and ({formula}))"

    @staticmethod
    def decide(code: str, polarity: bool) -> str:
        """t() (*polarity* True) or f() of a 3VL value *code*."""
        return f"({code} is {polarity})"

    def negate(self, val: _Val) -> _Val:
        first, ref = self.bind(val)
        return self.node(f"(None if {first} is None else not {ref})", "bool",
                         [val])

    # -- boolean-context generation ------------------------------------
    def boolish(self, expr: Expr) -> bool:
        """True when *expr* can only evaluate to True/False/None — the
        precondition for distributing NOT/AND/OR over it."""
        if isinstance(expr, (Between, InList, IsNull, Like)):
            return True
        if isinstance(expr, BinaryOp):
            return expr.op in ("AND", "OR") or expr.op in _COMPARISONS
        if isinstance(expr, UnaryOp):
            return expr.op == "NOT"
        if isinstance(expr, Literal):
            return isinstance(expr.value, bool) or expr.value is None
        if isinstance(expr, ColumnRef):
            return self.col_class(self.scope.resolve(expr)) == "bool"
        return False

    def gen_bool(self, expr: Expr, positive: bool) -> _Val:
        """Code for t(expr) (``positive``) or f(expr): truthy exactly
        when the 3VL value is True (resp. False)."""
        if isinstance(expr, Literal):
            return _Val(str(expr.value is positive), "bool")
        if isinstance(expr, UnaryOp) and expr.op == "NOT" \
                and self.boolish(expr.operand):
            return self.gen_bool(expr.operand, not positive)
        if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR") \
                and self.boolish(expr.left) and self.boolish(expr.right):
            return self._gen_junction(expr, positive)
        if isinstance(expr, BinaryOp) and expr.op in _COMPARISONS:
            return self._gen_compare(expr, positive)
        if isinstance(expr, Between):
            return self._gen_between(expr, positive)
        if isinstance(expr, InList):
            return self._gen_in(expr, positive)
        if isinstance(expr, IsNull):
            operand = self.gen_value(expr.operand)
            test = "" if positive ^ expr.negated else "not "
            return self.node(f"({operand.code} is {test}None)", "bool",
                             [operand])
        if isinstance(expr, Like):
            match = self._gen_like(expr)
            if positive ^ expr.negated:  # True, False or None: truthy if True
                return match
            return self.node(self.decide(match.code, False), "bool", [match])
        value = self.gen_value(expr)
        return self.node(self.decide(value.code, positive), "bool", [value])

    def _gen_junction(self, expr: BinaryOp, positive: bool) -> _Val:
        """t/f of AND / OR over boolish sides: t(AND)=t∧t, f(AND)=f∨f,
        t(OR)=t∨t, f(OR)=f∧f.  The right side runs where the left did
        not decide the value; t(AND) and f(OR) skip it on a NULL left
        side, so a right side that can raise takes the left's value."""
        both = (expr.op == "AND") == positive
        right = self.gen_bool(expr.right, positive)
        if both and not right.safe:
            left = self.gen_value(expr.left)
            first, ref = self.bind(left)
            stop = "False" if expr.op == "AND" else "True"
            code = (f"({first} is not {stop} and {right.code}"
                    f" and {ref} is {positive})")
        else:
            left = self.gen_bool(expr.left, positive)
            joiner = "and" if both else "or"
            code = f"(({left.code}) {joiner} ({right.code}))"
        return self.node(code, "bool", [left, right])

    # -- value generation ----------------------------------------------
    def gen_value(self, expr: Expr) -> _Val:
        if isinstance(expr, Literal):
            value = expr.value
            if value is None:
                return _NULL
            if isinstance(value, bool):
                return _Val(str(value), "bool", value, True)
            if isinstance(value, (int, float)):
                cls = "num"
            elif isinstance(value, str):
                cls = "str"
            elif isinstance(value, datetime.date):
                cls = "date"
            else:
                cls = None
            return _Val(self.const(value), cls, value, True)

        if isinstance(expr, ColumnRef):
            index = self.scope.resolve(expr)
            return _Val(self.use_col(index), self.col_class(index))

        if isinstance(expr, FuncCall):
            return self._gen_func(expr)

        if isinstance(expr, UnaryOp):
            operand = self.gen_value(expr.operand)
            if expr.op == "NOT":
                return self.negate(operand)
            if expr.op != "-":
                raise SqlExecutionError(
                    f"unknown unary operator {expr.op!r} in {expr.to_sql()}"
                )
            first, ref = self.bind(operand)
            if operand.cls == "num":
                return self.node(f"(None if {first} is None else -{ref})",
                                 "num", [operand])
            rendered = self.const(expr.to_sql())
            return self.node(
                f"(None if {first} is None else _negate({ref}, {rendered}))",
                "num", [operand], safe=False,
            )

        if isinstance(expr, BinaryOp):
            if expr.op in _COMPARISONS:
                return self._gen_compare(expr, None)
            return self._gen_binary(expr)

        if isinstance(expr, Between):
            return self._gen_between(expr, None)

        if isinstance(expr, InList):
            return self._gen_in(expr, None)

        if isinstance(expr, IsNull):
            operand = self.gen_value(expr.operand)
            test = "is not" if expr.negated else "is"
            return self.node(f"({operand.code} {test} None)", "bool",
                             [operand])

        if isinstance(expr, Like):
            match = self._gen_like(expr)
            return self.negate(match) if expr.negated else match

        if isinstance(expr, CaseWhen):
            branches = [
                (self.gen_bool(condition, True), self.gen_value(value))
                for condition, value in expr.branches
            ]
            rest = _NULL if expr.default is None else self.gen_value(
                expr.default
            )
            cls = _common_class([value for __, value in branches] + [rest])
            for condition, value in reversed(branches):
                rest = self.node(
                    f"({value.code} if {condition.code} else {rest.code})",
                    cls, [condition, value, rest],
                )
            return rest

        raise SqlExecutionError(f"cannot compile expression: {expr!r}")

    def _gen_func(self, expr: FuncCall) -> _Val:
        name = expr.name
        if name in AGGREGATE_FUNCTIONS:
            if self.agg_slots is None or expr not in self.agg_slots:
                raise SqlExecutionError(
                    f"aggregate {expr.to_sql()} used outside aggregation context"
                )
            return _Val(self.use_col(self.agg_slots[expr]), None)
        if name not in SCALAR_FUNCTIONS:
            raise SqlExecutionError(
                f"unknown function {name!r} in {expr.to_sql()} "
                f"(available: {', '.join(sorted(SCALAR_FUNCTIONS))})"
            )
        args = [self.gen_value(arg) for arg in expr.args]
        if name == "coalesce" and args and all(a.safe for a in args[1:]):
            # the reference evaluates every argument: lazy only when the
            # skipped ones cannot raise
            cls = _common_class(args)
            rest = _NULL
            for arg in reversed(args):
                first, ref = self.bind(arg)
                rest = self.node(
                    f"({ref} if {first} is not None else {rest.code})",
                    cls, [arg, rest],
                )
            return rest
        if len(args) == 1:
            arg = args[0]
            first, ref = self.bind(arg)
            inline = None
            if name in ("lower", "upper"):
                inline = f"str({ref}).{name}()"
            elif name == "length":
                inline = f"len(str({ref}))"
            elif name == "abs" and arg.cls == "num":
                inline = f"abs({ref})"
            elif name in ("year", "month") and arg.cls == "date":
                inline = f"{ref}.{name}"
            if inline is not None:
                return self.node(f"(None if {first} is None else {inline})",
                                 _FUNCTION_CLASS[name], args)
        fn = self.const(SCALAR_FUNCTIONS[name])
        code = f"{fn}({', '.join(arg.code for arg in args)})"
        cls = _common_class(args) if name == "coalesce" else \
            _FUNCTION_CLASS[name]
        return self.node(code, cls, args, safe=name == "coalesce")

    def _gen_binary(self, expr: BinaryOp) -> _Val:
        op = expr.op
        if op not in ("AND", "OR", "+", "-", "*", "/", "||"):
            raise SqlExecutionError(
                f"unknown binary operator {op!r} in {expr.to_sql()}"
            )
        a = self.gen_value(expr.left)
        b = self.gen_value(expr.right)
        if op in ("AND", "OR"):
            # lazy 3VL: the right side runs only where the left is not
            # decisive (False for AND, True for OR)
            first_a, ref_a = self.bind(a)
            first_b, ref_b = self.bind(b)
            stop, other = ("False", "True") if op == "AND" else ("True", "False")
            code = (
                f"({stop} if {first_a} is {stop} or {first_b} is {stop}"
                f" else (None if {ref_a} is None or {ref_b} is None"
                f" else {other}))"
            )
            return self.node(code, "bool", [a, b])
        test, (ref_a, ref_b) = self.guard([a, b], False)
        if op == "||":
            formula = f"str({ref_a}) + str({ref_b})"
            return self.node(self.guarded(test, formula, None), "str", [a, b])
        numeric = a.cls == "num" and b.cls == "num"
        if op == "/" and not (numeric and b.is_lit and b.lit != 0):
            formula = f"_div({ref_a}, {ref_b}, {self.const(expr.to_sql())})"
            numeric = False
        else:
            if not numeric:  # only a non-number can fail the type check
                rendered = self.const(expr.to_sql())
                if a.cls != "num":
                    ref_a = f"_num({ref_a}, {rendered})"
                if b.cls != "num":
                    ref_b = f"_num({ref_b}, {rendered})"
            formula = f"{ref_a} {op} {ref_b}"
        return self.node(self.guarded(test, formula, None), "num", [a, b],
                         safe=numeric)

    def _gen_compare(self, expr: BinaryOp, polarity) -> _Val:
        op = expr.op
        a = self.gen_value(expr.left)
        b = self.gen_value(expr.right)
        null = a.null or b.null
        if null and a.safe and b.safe:  # a constant-NULL comparison
            return _Val("None" if polarity is None else "False", "bool")
        cls = None if null else self._align(a, b)
        if cls is None:
            self.temps += 1
            result = f"_t{self.temps}"
            check = op if polarity is not False else _NEGATED_COMPARE[op]
            bound = f"({result} := _cmp({a.code}, {b.code}))"
            test = f"{result} {_COMPARE_RESULT[check]}"
            code = (f"(None if {bound} is None else {test})"
                    if polarity is None else f"({bound} is not None and {test})")
            return self.node(code, "bool", [a, b], safe=False)
        test, (ref_a, ref_b) = self.guard([a, b], polarity is not None)
        formula = _cmp_formula(op, ref_a, ref_b, cls, polarity is not False)
        return self.node(self.guarded(test, formula, polarity), "bool", [a, b])

    def _gen_between(self, expr: Between, polarity) -> _Val:
        vals = [self.gen_value(part) for part in (expr.operand, expr.low,
                                                   expr.high)]
        a, low, high = vals
        cls = self._align(a, low)
        if cls is None or self._align(a, high) != cls:
            inside = self.node(
                f"_between({a.code}, {low.code}, {high.code})", "bool", vals,
                safe=False,
            )
            if polarity is None:
                return self.negate(inside) if expr.negated else inside
            return self.node(self.decide(inside.code, polarity ^ expr.negated),
                             "bool", [inside])
        test, (ref, ref_low, ref_high) = self.guard(vals, polarity is not None)
        if (polarity is not False) ^ expr.negated:
            formula = f"not ({ref} < {ref_low}) and not ({ref} > {ref_high})"
        else:
            formula = f"(({ref} < {ref_low}) or ({ref} > {ref_high}))"
        return self.node(self.guarded(test, formula, polarity), "bool", vals)

    def _gen_in(self, expr: InList, polarity) -> _Val:
        value = self.gen_value(expr.operand)
        literals = [
            item.value for item in expr.items
            if isinstance(item, Literal) and item.value is not None
        ]
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in literals
        )
        textual = all(type(v) is str for v in literals)
        if literals and len(literals) == len(expr.items) and (
            (numeric and value.cls == "num") or (textual and value.cls == "str")
        ):
            first, ref = self.bind(value)
            members = self.const(frozenset(literals))
            member = f"{ref} in {members}"
            if numeric:
                # NaN: compare_values calls it equal to any number, so a
                # NaN operand matches the first item — membership alone
                # wouldn't
                member += f" or {ref} != {ref}"
            want = polarity is not False
            test = f"({member})" if want ^ expr.negated else f"not ({member})"
            if polarity is None:
                code = f"(None if {first} is None else {test})"
            else:
                code = f"({first} is not None and {test})"
            return self.node(code, "bool", [value])
        items = [self.gen_value(item) for item in expr.items]
        lazy = not all(item.safe for item in items)
        codes = "".join(
            f"(lambda: {item.code}), " if lazy else f"{item.code}, "
            for item in items
        )
        found = self.node(f"_in_list({value.code}, ({codes}), {lazy})",
                          "bool", [value] + items, safe=False)
        if polarity is None:
            return self.negate(found) if expr.negated else found
        return self.node(self.decide(found.code, polarity ^ expr.negated),
                         "bool", [found])

    def _gen_like(self, expr: Like) -> _Val:
        """``operand LIKE pattern`` before any NOT: with a literal
        pattern through a per-call table (see :class:`_LikeTable`)."""
        operand = self.gen_value(expr.operand)
        pattern = expr.pattern
        if not isinstance(pattern, Literal) or pattern.value is None:
            other = self.gen_value(pattern)
            return self.node(f"_like({operand.code}, {other.code})", "bool",
                             [operand, other])
        match = self.const(like_to_regex(str(pattern.value)).match)
        table = f"_m{len(self.prelude)}"
        self.prelude.append(f"{table} = _LikeTable({match})")
        return self.node(f"{table}[{operand.code}]", "bool", [operand])

    # -- comparison plumbing -------------------------------------------
    def _align(self, a: _Val, b: _Val) -> "str | None":
        """The common comparison class, parsing a string literal against
        a date side at codegen time exactly as compare_values would per
        row; None where compare_values must decide per row."""
        if a.cls == b.cls and a.cls in ("num", "str", "date", "bool"):
            return a.cls
        for date_side, str_side in ((a, b), (b, a)):
            if date_side.cls == "date" and str_side.cls == "str" and str_side.is_lit:
                try:
                    parsed = parse_date(str_side.lit)
                except SqlTypeError:
                    return None
                self.consts[str_side.code] = parsed
                str_side.cls = "date"
                return "date"
        return None

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
    def source(self, signature: str, body: list) -> str:
        """The module: split-out subtrees, then ``def _fused`` with its
        column reads, per-call tables and *body* lines."""
        lines = list(self.helpers) + [f"def _fused({signature}):"]
        lines += [f"    _v{vid} = cols[{index}]" for index, vid in self.cols.items()]
        lines += [f"    {line}" for line in self.prelude]
        lines += [f"    {line}" for line in body]
        return "\n".join(lines) + "\n"


def _row_iter(used: Sequence[int], with_index: bool) -> str:
    """The ``for`` clause iterating the used columns' row values."""
    if not used:
        return f"for {'_i' if with_index else '__'} in range(n)"
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


def _picker(parts: list) -> Callable:
    """``fn(cols, n)`` for outputs that alias an input column (an int)
    or repeat a literal (a 1-tuple)."""
    def pick(cols: Sequence[list], n: int) -> tuple:
        return tuple(
            cols[part] if type(part) is int else [part[0]] * n
            for part in parts
        )

    return pick


def _instantiate(source: str, consts: dict) -> Callable:
    code = _FUSED_CODE_CACHE.get(source)
    if code is None:
        if len(_FUSED_CODE_CACHE) >= _FUSED_CODE_CACHE_MAX:
            _FUSED_CODE_CACHE.clear()
        code = compile(source, "<fused-batch-exprs>", "exec")
        _FUSED_CODE_CACHE[source] = code
    namespace = {**_RUNTIME, **consts}
    exec(code, namespace)
    return namespace["_fused"]


def compile_batch(
    exprs: Sequence,
    scope: Scope,
    class_of: "Callable[[str | None, str], str | None] | None" = None,
    mode: str = "value",
    agg_slots: "dict[FuncCall, int] | None" = None,
    bound: "tuple | None" = None,
) -> FusedBatch:
    """Compile expressions into one generated function per batch.

    *class_of* maps a scope pair ``(binding, column)`` to its value
    class (``"num"``/``"str"``/``"date"``/``"bool"``) or None when
    unknown (the default for every column); known classes buy inline
    formulas, unknown ones call the reference's helpers
    (``compare_values``, ``values_equal``, the scalar functions and the
    arithmetic checks), so results and errors are the row-at-a-time
    interpreter's either way.  *agg_slots* maps aggregate calls to the
    scope columns holding their results.

    ``mode="filter"``: *exprs* are conjuncts; ``fn(cols, n, _b=None)``
    returns the indices of the rows where all are True, evaluating them
    row by row in one loop (the first error is the reference's).  A
    top-N *bound* (:meth:`_Fuser.gen_bound` arguments) is one more
    conjunct, comparing with the third argument.

    ``mode="value"``: ``fn(cols, n)`` returns one column per item of
    *exprs* — an Expr, or an int naming a scope column.  Bare columns
    alias the input and literals repeat (with nothing else, no code is
    generated); the rest are comprehensions, and two or more that can
    raise share one row loop.
    """
    if mode not in ("filter", "value"):
        raise ValueError(f"unknown compile mode {mode!r}")
    fuser = _Fuser(scope, class_of, agg_slots)
    if mode == "filter":
        conds = [fuser.gen_bool(expr, True) for expr in exprs]
        codes = [cond.code for cond in conds]
        if bound is not None:
            codes.append(fuser.gen_bound(*bound))
        condition = " and ".join(f"({c})" for c in codes)
        used = sorted(fuser.cols.values())
        body = [f"return [_i {_row_iter(used, True)} if {condition}]"]
        source = fuser.source("cols, n, _b=None", body)
        return FusedBatch(_instantiate(source, fuser.consts), source,
                          all(cond.safe for cond in conds))

    #: per target: a scope index (aliased), a 1-tuple (a repeated
    #: literal) or the name of a generated column
    parts: list = []
    computed: list[tuple] = []  # (name, value, used)
    for slot, target in enumerate(exprs):
        if isinstance(target, ColumnRef):
            target = scope.resolve(target)
        elif agg_slots and isinstance(target, FuncCall) and target in agg_slots:
            target = agg_slots[target]
        if isinstance(target, int):
            parts.append(target)
        elif isinstance(target, Literal):
            parts.append((target.value,))
        else:
            fuser.current_used = []
            value = fuser.gen_value(target)
            parts.append(f"_o{slot}")
            computed.append((f"_o{slot}", value, sorted(fuser.current_used)))
    if not computed:  # nothing to evaluate per row: no code to generate
        return FusedBatch(_picker(parts), None, True)
    # fallible columns run row by row together, so the first error is
    # the row-major one; the rest cannot raise and run one by one
    fallible = [entry for entry in computed if not entry[1].safe]
    if len(fallible) < 2:
        fallible = []
    body = [
        f"{name} = [{value.code} {_row_iter(used, False)}]"
        for name, value, used in computed if value.safe or not fallible
    ]
    if fallible:
        used = sorted({vid for __, __, vids in fallible for vid in vids})
        body += [f"{name} = []" for name, __, __ in fallible]
        body.append(f"{_row_iter(used, False)}:")
        body += [f"    {name}.append({value.code})"
                 for name, value, __ in fallible]
    results = [
        f"cols[{part}]" if isinstance(part, int)
        else f"[{fuser.const(part[0])}] * n" if isinstance(part, tuple)
        else part
        for part in parts
    ]
    body.append(f"return ({''.join(result + ', ' for result in results)})")
    source = fuser.source("cols, n", body)
    return FusedBatch(_instantiate(source, fuser.consts), source,
                      all(value.safe for __, value, __ in computed))


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
    partial: bool = False,
) -> "FusedBatch | None":
    """Filter, group and aggregate a batch in one generated row loop.

    ``fn(cols, n, groups)`` runs the *predicates*; per surviving row it
    gets ``groups[key]`` (keyed as the batch path does), made ``[rep_row,
    state, ...]`` at the key's first row (*rep*: its scope columns), and
    applies the row-at-a-time rule: ``count`` adds one per non-NULL
    value, ``min`` / ``max`` take a value below / above the state,
    ``sum`` / ``avg`` append it.  It returns the surviving row count.
    Per row, predicates, keys and arguments run in the reference's
    order, so an error is the one the row-at-a-time plan raises first.

    With *partial*, the *keys* are a hash join's build keys and each
    group is one key's partial: a row whose key holds a NULL joins
    nothing and folds nowhere, the state opens with the key's row count,
    and ``min`` / ``max`` keep two slots — the first value and the best
    non-NaN one — which merge by the row rule (a plain best does not: a
    NaN kept first must stay).  Every argument must be non-raising,
    since it runs on rows no probe row may match.

    None (the batch path) unless every call is a non-DISTINCT ``count``
    / ``count(*)`` / ``min`` / ``max`` (values of one class) / ``sum`` /
    ``avg`` (numbers only); also None with neither a key nor a predicate
    (whole columns feed the accumulators faster).
    """
    if not predicates and not keys:
        return None
    fuser = _Fuser(scope, class_of)
    conds = [fuser.gen_bool(predicate, True).code for predicate in predicates]
    key_codes = [fuser.gen_value(key).code for key in keys]
    args = []
    for call in calls:
        if call.distinct or call.name not in _FOLD_INITIAL or (
            call.star and call.name != "count"
        ):
            return None
        value = None if call.star else fuser.gen_value(call.args[0])
        if partial and value is not None and not value.safe:
            return None
        if call.name in ("sum", "avg") and value.cls != "num":
            return None
        if call.name in ("min", "max") and value.cls is None:
            return None
        args.append(None if value is None else value.code)
    rep_code = "(" + "".join(f"{fuser.use_col(i)}, " for i in rep) + ")"
    #: the state slots of each call: two for a partial's min / max
    widths = [1 + (partial and c.name in ("min", "max")) for c in calls]
    initial = ", ".join([rep_code] + ["0"] * partial + [
        _FOLD_INITIAL[c.name] for c, width in zip(calls, widths)
        for __ in range(width)
    ])
    body = []
    if conds:
        condition = " and ".join(f"({c})" for c in conds)
        body += [f"if not ({condition}): continue", "n += 1"]
    if partial:  # a NULL build key joins nothing
        nulls = " or ".join(f"{k} is None" for k in key_codes)
        body.append(f"if {nulls}: continue")
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
    if partial:
        body.append("_a[1] += 1")
    slot = 1 + partial
    for call, code, width in zip(calls, args, widths):
        state = f"_a[{slot}]"
        slot += width
        if code is None:
            body.append(f"{state} += 1")
            continue
        if not code.isidentifier():  # a compound argument: evaluate once
            body.append(f"_w{slot} = {code}")
            code = f"_w{slot}"
        if call.name == "count":
            body.append(f"if {code} is not None: {state} += 1")
        elif call.name in ("min", "max"):
            op = "<" if call.name == "min" else ">"
            test = f"{code} is not None"
            if partial:  # the first value, then the best non-NaN one
                body.append(f"if {state} is None: {state} = {code}")
                state, test = f"_a[{slot - 1}]", f"{test} and {code} == {code}"
            body.append(f"if {test} and ({state} is None"
                        f" or {code} {op} {state}): {state} = {code}")
        else:
            body.append(f"if {code} is not None: {state}.append({code})")
    used = sorted(fuser.cols.values())
    if not used:  # nothing read per row: the batch path counts faster
        return None
    lines = ["_get = _g.get" if key_codes else "_a = _g.get(())"]
    if conds:
        lines.append("n = 0  # now the survivors")
    lines.append(f"{_row_iter(used, False)}:")
    lines += [f"    {line}" for line in body] + ["return n"]
    source = fuser.source("cols, n, _g", lines)
    return FusedBatch(_instantiate(source, fuser.consts), source)


def fuse_merge(
    keys: Sequence[Expr],
    calls: Sequence[Expr],
    join_keys: Sequence[int],
    scope: Scope,
    class_of: Callable[["str | None", str], "str | None"],
) -> "FusedBatch | None":
    """Merge a hash join's partials into groups over one probe batch.

    ``fn(cols, n, groups, partials)`` looks each row's join key (the
    scope columns *join_keys*) up in *partials* (made by
    :func:`fuse_grouping` with *partial*); a row that finds one
    evaluates its group *keys* and merges the partial into
    ``groups[key]``, made ``[row + partial's rep_row, state, ...]`` at
    the key's first row: counts add, value lists extend, and a ``min``
    / ``max`` partial's first value, then its best, go through the row
    rule.  Once per matching row, so fan-out counts as the pairs would.
    It returns the pair count (the partials' row counts, summed).  None
    unless every key is proven non-raising.
    """
    fuser = _Fuser(scope, class_of)
    probes = [fuser.use_col(i) for i in join_keys]
    values = [fuser.gen_value(key) for key in keys]
    if not all(value.safe for value in values):
        return None
    key = "()" if not values else values[0].code if len(values) == 1 else (
        "(" + "".join(f"{value.code}, " for value in values) + ")"
    )
    probe = probes[0] if len(probes) == 1 else f"({', '.join(probes)},)"
    body = [f"_q = _find({probe})", "if _q is None: continue",
            "pairs += _q[1]"]
    if not key.isidentifier():
        body.append(f"_key = {key}")
        key = "_key"
    initial = ", ".join(_FOLD_INITIAL[call.name] for call in calls)
    body += [f"_a = _get({key})",
             f"if _a is None: _a = _g[{key}] = "
             f"[tuple([_c[_i] for _c in cols]) + _q[0], {initial}]"]
    part = 2  # partials: [rep_row, row count, state, ...]
    for slot, call in enumerate(calls, start=1):
        state = f"_a[{slot}]"
        if call.name not in ("min", "max"):
            body.append(f"{state} += _q[{part}]")
            part += 1
            continue
        op = "<" if call.name == "min" else ">"
        for value in (f"_q[{part}]", f"_q[{part + 1}]"):
            body.append(f"if {value} is not None and ({state} is None"
                        f" or {value} {op} {state}): {state} = {value}")
        part += 2
    lines = ["_get = _g.get", "_find = _p.get", "pairs = 0",
             f"{_row_iter(sorted(fuser.cols.values()), True)}:"]
    lines += [f"    {line}" for line in body] + ["return pairs"]
    source = fuser.source("cols, n, _g, _p", lines)
    return FusedBatch(_instantiate(source, fuser.consts), source)


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


def never_raises(
    exprs: Sequence[Expr],
    scope: Scope,
    class_of: "Callable[[str | None, str], str | None]",
) -> bool:
    """The compiler's verdict that no row makes any of *exprs* raise.

    Generates the code :func:`compile_batch` would for the conjuncts
    *exprs* (without compiling or running it) and reads ``_Val.safe``,
    so the verdict cannot drift from the code that runs.  False when an
    expression does not compile.  It decides the rewrites taken before
    any batch function exists: DML's conjunct split, LEFT JOIN null-side
    pushdown, the hash LEFT JOIN's residuals and a top-N bound's
    secondary sort keys.
    """
    fuser = _Fuser(scope, class_of)
    try:
        return all(fuser.gen_bool(expr, True).safe for expr in exprs)
    except SqlError:
        return False


#: the value class ``compile_batch`` gives a column of each SqlType
_VALUE_CLASS = {
    SqlType.INTEGER: "num",
    SqlType.REAL: "num",
    SqlType.TEXT: "str",
    SqlType.DATE: "date",
    SqlType.BOOLEAN: "bool",
}


def class_of_tables(tables: dict):
    """``(binding, column) -> value class`` for :func:`compile_batch`.

    Resolves through *tables* (``{binding: Table}``); anything it cannot
    pin to a base-table column (aggregate slots, unknown bindings) maps
    to None, which compiles to the generic forms.
    """

    def class_of(binding, column):
        table = tables.get(binding)
        if table is None or not table.has_column(column):
            return None
        return _VALUE_CLASS.get(table.column(column).sql_type)

    return class_of
