"""Property-based tests for the precision/recall metric."""

from hypothesis import given, settings, strategies as st

from repro.core.evaluation import compare_results
from repro.sqlengine.results import ResultSet

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
