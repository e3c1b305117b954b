"""Property: the compiler's "cannot raise" verdict is sound and no less
precise than the two hand-kept analyses it replaced.

:func:`repro.sqlengine.expressions.never_raises` decides DML's conjunct
split, LEFT JOIN null-side pushdown and the hash LEFT JOIN's residuals;
``FusedBatch.safe``, computed by the same code generation, decides zone
skips and the top-N bound.  For drawn expression trees over a table
whose rows hold NULL, NaN, ±inf, -0.0, 0 and date-like strings:

1. *sound*: when ``never_raises([e])`` is True, the reference
   interpreter runs ``SELECT e FROM t`` and ``SELECT * FROM t WHERE e``
   without raising;
2. *precise*: when the old ``_never_raises`` or ``_value_class``
   (``tests/sqlengine/reference_safety.py``) calls ``e`` safe, so does
   ``never_raises`` — except for the shapes :func:`known_deviation`
   lists, each of which only sends a rare shape down the unoptimised
   path, with the same answers.

Named mutant: ``_Fuser._gen_binary`` without ``numeric = False`` on its
``_div`` branch (division by a column counts as safe) fails (1) on
``x / i``, since ``i`` holds 0.
"""

import datetime

from hypothesis import example, given, settings, strategies as st

from repro.errors import SqlError
from repro.sqlengine.ast_nodes import (
    Between,
    BinaryOp,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
)
from repro.sqlengine.database import Database
from repro.sqlengine.expressions import (
    Scope,
    class_of_tables,
    never_raises,
)
from repro.sqlengine.parser import parse_select

from tests.sqlengine.reference_engine import reference_execute
from tests.sqlengine.reference_safety import (
    _never_raises,
    _type_class,
    _value_class,
)

ROWS = [
    (0, 0.0, "2020-01-01", datetime.date(2020, 1, 1), True),
    (None, float("nan"), "nope", None, False),
    (3, float("inf"), "", datetime.date(1999, 12, 31), None),
    (-2, float("-inf"), None, datetime.date(2024, 2, 29), True),
    (7, -0.0, "Abc%", datetime.date(2020, 1, 1), False),
    (1, None, "2024-02-29", None, None),
]


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (i INT, x REAL, s TEXT, d DATE, b BOOLEAN)")
    db.insert_rows("t", ROWS)
    return db


DB = make_db()
TABLE = DB.table("t")
SCOPE = Scope([("t", column.name) for column in TABLE.columns])
CLASS_OF = class_of_tables({"t": TABLE})


def ref_class(ref):
    """The old ``_value_class`` column typing: a ColumnRef's class."""
    index = SCOPE.try_resolve(ref)
    return None if index is None else CLASS_OF(*SCOPE.pairs[index])


def known_deviation(expr) -> bool:
    """Shapes the old analyses call safe and the compiler does not.

    Three shapes the compiler is coarser on:

    - arithmetic on a NULL literal (``i + NULL``, ``-NULL``): the
      compiler checks an operand's value class, and NULL has none;
    - an IN list the compiler does not turn into a set lookup — one not
      made of number literals against a number, or of string literals
      against a string (``i IN (1, x)``, ``i IN (1, NULL)``,
      ``b IN (TRUE)``, ``d IN ('2020-01-01')``): it calls
      ``values_equal`` per item, which it treats as fallible;
    - BETWEEN with a NULL part (``i BETWEEN NULL AND 5``) or with a
      string literal operand (``'2020-01-01' BETWEEN s AND d``):
      likewise through ``_between``.

    And one where the old walk was wrong: a ``coalesce`` whose arguments
    have two classes (``-coalesce(coalesce(i, s), 0)``).  ``_type_class``
    typed it by its known arguments only, so it called the negation
    safe, yet ``'nope'`` reaches it and raises (``test_dml.py::
    TestWhereMixedCoalesce``).
    """
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*"):
        if _is_null(expr.left) or _is_null(expr.right):
            return True
    if isinstance(expr, UnaryOp) and expr.op == "-" and _is_null(expr.operand):
        return True
    if isinstance(expr, InList):
        kinds = {
            _type_class(item, TABLE) if isinstance(item, Literal) else None
            for item in expr.items
        }
        if kinds not in ({"num"}, {"str"}) \
                or kinds != {_type_class(expr.operand, TABLE)}:
            return True
    if isinstance(expr, Between):
        parts = (expr.operand, expr.low, expr.high)
        if any(_is_null(part) for part in parts) or (
            isinstance(expr.operand, Literal)
            and isinstance(expr.operand.value, str)
        ):
            return True
    if isinstance(expr, FuncCall) and expr.name == "coalesce":
        classes = {
            _type_class(arg, TABLE) for arg in expr.args if not _is_null(arg)
        }
        if len(classes) > 1 or None in classes:
            return True
    return any(known_deviation(child) for child in _children(expr))


def _is_null(expr) -> bool:
    return isinstance(expr, Literal) and expr.value is None


def _children(expr) -> list:
    """The sub-expressions of *expr*: its Expr fields, tuples flattened
    (CASE branches are ``(condition, value)`` pairs)."""

    def flat(value):
        if isinstance(value, tuple):
            for item in value:
                yield from flat(item)
        elif isinstance(value, Expr):
            yield value

    return [child for value in vars(expr).values() for child in flat(value)]


LEAVES = st.sampled_from([
    "i", "x", "s", "d", "b", "0", "2", "1.5", "NULL", "TRUE", "'a%'",
    "'2020-01-01'", "'nope'", "DATE '2020-01-01'",
])


def _compound(inner):
    binary = st.tuples(
        inner,
        st.sampled_from(["+", "-", "*", "/", "=", "<>", "<", "<=", ">",
                         ">=", "AND", "OR", "LIKE"]),
        inner,
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    return st.one_of(
        binary,
        inner.map(lambda a: f"(NOT {a})"),
        inner.map(lambda a: f"(-{a})"),
        st.tuples(inner, st.booleans()).map(
            lambda t: f"({t[0]} IS {'NOT ' if t[1] else ''}NULL)"
        ),
        st.tuples(inner, inner, inner).map(
            lambda t: f"({t[0]} BETWEEN {t[1]} AND {t[2]})"
        ),
        st.tuples(inner, st.lists(inner, min_size=1, max_size=3)).map(
            lambda t: f"({t[0]} IN ({', '.join(t[1])}))"
        ),
        st.tuples(inner, inner, st.none() | inner).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1]}"
            + ("" if t[2] is None else f" ELSE {t[2]}") + " END"
        ),
        st.tuples(inner, inner).map(lambda t: f"coalesce({t[0]}, {t[1]})"),
        st.tuples(st.sampled_from(["lower", "abs", "year"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    )


EXPRS = st.recursive(LEAVES, _compound, max_leaves=6)


def parse_expr(text: str):
    return parse_select(f"SELECT {text} FROM t").items[0].expr


@settings(max_examples=400, deadline=None)
@given(EXPRS)
@example("(x / i)")
@example("(i + NULL)")
@example("(-NULL)")
@example("(i IN (1, x))")
@example("(b = TRUE)")
@example("(d = '2020-01-01')")
def test_verdict_is_sound_and_no_less_precise(text):
    try:
        expr = parse_expr(text)
    except SqlError:
        return
    safe = never_raises([expr], SCOPE, CLASS_OF)
    if safe:
        for sql in (f"SELECT {text} FROM t", f"SELECT * FROM t WHERE {text}"):
            reference_execute(DB, sql)  # must not raise
    old_safe = _never_raises(expr, TABLE) or _value_class(expr, ref_class)[0]
    if old_safe and not safe:
        assert known_deviation(expr), text

