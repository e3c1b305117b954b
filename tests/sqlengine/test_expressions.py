"""Tests for expression compilation details (scope resolution, 3VL, LIKE).

Direct cases run through :func:`compile_batch` over one-row batches,
the way constant folding evaluates.
"""

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
    collect_column_refs,
    contains_aggregate,
)
from repro.sqlengine.expressions import (
    Scope,
    compile_batch,
    like_to_regex,
    split_conjuncts,
)
from repro.sqlengine.parser import parse_select


def where_expr(condition):
    return parse_select(f"SELECT * FROM t WHERE {condition}").where


def evaluate_row(expr, scope, row):
    """*expr* over the one-row batch holding *row*."""
    fused = compile_batch([expr], scope)
    return fused.fn([[value] for value in row], 1)[0][0]


class TestScope:
    def test_qualified_resolution(self):
        scope = Scope([("t", "a"), ("u", "a")])
        assert scope.resolve(ColumnRef("t", "a")) == 0
        assert scope.resolve(ColumnRef("u", "a")) == 1

    def test_unqualified_unique(self):
        scope = Scope([("t", "a"), ("u", "b")])
        assert scope.resolve(ColumnRef(None, "b")) == 1

    def test_unqualified_ambiguous_raises(self):
        scope = Scope([("t", "a"), ("u", "a")])
        with pytest.raises(SqlCatalogError):
            scope.resolve(ColumnRef(None, "a"))

    def test_unknown_raises_with_description(self):
        scope = Scope([("t", "a")])
        with pytest.raises(SqlCatalogError) as excinfo:
            scope.resolve(ColumnRef("t", "zzz"))
        assert "t.a" in str(excinfo.value)

    def test_try_resolve(self):
        scope = Scope([("t", "a")])
        assert scope.try_resolve(ColumnRef("t", "zzz")) is None

    def test_concat(self):
        scope = Scope([("t", "a")]).concat(Scope([("u", "b")]))
        assert len(scope) == 2
        assert scope.bindings() == {"t", "u"}


class TestThreeValuedLogic:
    def evaluate(self, condition, row, pairs):
        return evaluate_row(where_expr(condition), Scope(pairs), row)

    def test_and_false_dominates_null(self):
        # NULL AND FALSE is FALSE
        assert self.evaluate("a = 1 AND b = 1", (None, 0), [("t", "a"), ("t", "b")]) \
            is False

    def test_and_null(self):
        assert self.evaluate("a = 1 AND b = 1", (None, 1), [("t", "a"), ("t", "b")]) \
            is None

    def test_or_true_dominates_null(self):
        assert self.evaluate("a = 1 OR b = 1", (None, 1), [("t", "a"), ("t", "b")]) \
            is True

    def test_or_null(self):
        assert self.evaluate("a = 1 OR b = 1", (None, 0), [("t", "a"), ("t", "b")]) \
            is None

    def test_not_null_is_null(self):
        assert self.evaluate("NOT a = 1", (None,), [("t", "a")]) is None

    def test_comparison_with_null_is_null(self):
        assert self.evaluate("a < 5", (None,), [("t", "a")]) is None

    def test_in_with_null_item(self):
        assert self.evaluate("a IN (1, NULL)", (2,), [("t", "a")]) is None
        assert self.evaluate("a IN (2, NULL)", (2,), [("t", "a")]) is True

    def test_between_null_bound(self):
        assert self.evaluate("a BETWEEN 1 AND b", (2, None),
                             [("t", "a"), ("t", "b")]) is None

    def test_arithmetic_null_propagates(self):
        assert self.evaluate("a + 1 = 2", (None,), [("t", "a")]) is None


class TestLike:
    def test_percent(self):
        assert like_to_regex("%gold%").match("The Gold Standard")

    def test_underscore(self):
        assert like_to_regex("gol_").match("gold")
        assert not like_to_regex("gol_").match("golds")

    def test_escapes_regex_chars(self):
        assert like_to_regex("a.b%").match("a.b-rest")
        assert not like_to_regex("a.b%").match("axb-rest")

    def test_not_like(self):
        scope = Scope([("t", "a")])
        expr = where_expr("a NOT LIKE '%x%'")
        assert evaluate_row(expr, scope, ("yyy",)) is True
        assert evaluate_row(expr, scope, ("x",)) is False
        assert evaluate_row(expr, scope, (None,)) is None


class TestHelpers:
    def test_split_conjuncts(self):
        expr = where_expr("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
        parts = split_conjuncts(expr)
        assert len(parts) == 3

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_contains_aggregate(self):
        assert contains_aggregate(
            BinaryOp("+", FuncCall("sum", (ColumnRef(None, "a"),)), Literal(1))
        )
        assert not contains_aggregate(ColumnRef(None, "a"))

    def test_collect_column_refs(self):
        expr = where_expr("t.a = 1 AND lower(t.b) LIKE '%x%'")
        refs = collect_column_refs(expr)
        assert ColumnRef("t", "a") in refs
        assert ColumnRef("t", "b") in refs

    def test_aggregate_outside_context_raises(self):
        scope = Scope([("t", "a")])
        with pytest.raises(SqlExecutionError):
            compile_batch([FuncCall("sum", (ColumnRef("t", "a"),))], scope)
