"""Property-based tests for the precision/recall metric.

``TestReferenceParity`` drives the column-wise scorer against the
per-value one it replaced (``tests/core/reference_evaluation.py``) on
drawn result sets: int, float (NaN, ±inf, -0.0), bool, NULL, date and
str columns, mixed-type columns among them, one or two golds, and
labels that match exactly, by dotted suffix or not at all.  Named
mutant it kills: picking a column's rule from its first non-NULL value
(a column mixing a date and a string).
"""

import datetime

from hypothesis import given, settings, strategies as st

from repro.core.evaluation import compare_results, match_columns
from repro.sqlengine.results import ResultSet
from tests.core.reference_evaluation import (
    match_columns as reference_match_columns,
    reference_compare_results,
)

settings.register_profile("evaluation", max_examples=80, deadline=None)
settings.load_profile("evaluation")

rows = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=25
)


def rs(columns, data):
    return ResultSet(columns=list(columns), rows=[tuple(r) for r in data])


class TestBounds:
    @given(soda=rows, gold=rows)
    def test_metrics_in_unit_interval(self, soda, gold):
        metrics = compare_results(rs(["a", "b"], soda), [rs(["a", "b"], gold)])
        assert 0.0 <= metrics.precision <= 1.0
        assert 0.0 <= metrics.recall <= 1.0

    @given(data=rows)
    def test_identity_is_perfect(self, data):
        metrics = compare_results(rs(["a", "b"], data), [rs(["a", "b"], data)])
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    @given(soda=rows, gold=rows)
    def test_symmetry_swaps_precision_recall(self, soda, gold):
        # (vacuous empty-side cases excluded: they are defined asymmetric)
        if not soda or not gold:
            return
        forward = compare_results(rs(["a", "b"], soda), [rs(["a", "b"], gold)])
        backward = compare_results(rs(["a", "b"], gold), [rs(["a", "b"], soda)])
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision

    @given(gold=rows)
    def test_subset_has_full_precision(self, gold):
        subset = gold[: len(gold) // 2]
        metrics = compare_results(rs(["a", "b"], subset), [rs(["a", "b"], gold)])
        if subset:
            assert metrics.precision == 1.0

    @given(soda=rows, gold=rows)
    def test_counts_reported(self, soda, gold):
        metrics = compare_results(rs(["a", "b"], soda), [rs(["a", "b"], gold)])
        assert metrics.soda_rows == len(set(soda))
        assert metrics.gold_rows == len(set(gold))

    @given(soda=rows, gold=rows)
    def test_projection_cannot_hurt_precision(self, soda, gold):
        # on a coarser (projected) gold, every previously-correct SODA
        # tuple stays correct, so precision never drops
        full = compare_results(rs(["a", "b"], soda), [rs(["a", "b"], gold)])
        projected = compare_results(
            rs(["a", "b"], soda), [rs(["a"], [(r[0],) for r in gold])]
        )
        if gold and soda:
            assert projected.precision >= full.precision - 1e-9


# -- the column-wise scorer against the per-value oracle -------------------

NAN = float("nan")
POOLS = {
    "int": st.integers(-2, 3),
    "float": st.sampled_from(
        [0.0, -0.0, 1.0, 0.5, 0.1 + 0.2, 0.3, 3.0, NAN,
         float("inf"), float("-inf")]
    ),
    "bool": st.booleans(),
    "date": st.sampled_from(
        [datetime.date(2010, 1, 1), datetime.date(2011, 2, 3)]
    ),
    "str": st.sampled_from(["a", "b", "", "1", "2010-01-01"]),
}
KINDS = [[kind] for kind in POOLS] + [
    ["int", "float"], ["date", "str"], ["bool", "int"], list(POOLS)
]
#: bare, suffix-matched and non-overlapping labels
LABELS = ["a", "b", "t.a", "u.a", "t.b", "c", "t.c", " T.A", "B"]


@st.composite
def result_sets(draw):
    width = draw(st.integers(1, 3))
    columns = draw(st.lists(st.sampled_from(LABELS), min_size=width,
                            max_size=width))
    cells = [
        st.one_of(st.none(), *(POOLS[kind] for kind in draw(
            st.sampled_from(KINDS))))
        for __ in columns
    ]
    data = draw(st.lists(st.tuples(*cells), max_size=12))
    return rs(columns, data)


class TestReferenceParity:
    @given(soda=st.lists(st.sampled_from(LABELS), max_size=5),
           gold=st.lists(st.sampled_from(LABELS), max_size=5))
    def test_same_column_pairs(self, soda, gold):
        assert match_columns(soda, gold) == reference_match_columns(soda, gold)

    @settings(max_examples=150)
    @given(soda=result_sets(), golds=st.lists(result_sets(), min_size=1,
                                               max_size=2))
    def test_same_metrics_as_per_value_scorer(self, soda, golds):
        assert compare_results(soda, golds) == reference_compare_results(
            soda, golds
        )
