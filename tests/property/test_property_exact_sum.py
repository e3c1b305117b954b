"""Property: ``sum`` / ``avg`` finish in C and stay exact.

For any list of addends — subnormals, ±0.0, near-max magnitudes, NaN,
±inf, ints beyond 2**53 and NULLs, mixed — fed to
:class:`~repro.sqlengine.functions.SumAccumulator` /
:class:`~repro.sqlengine.functions.AvgAccumulator` in slices of any
size (so the buffer compacts between slices), the result is the
correctly rounded exact sum (``Fraction`` arithmetic), ±inf beyond the
float range, and never an ``OverflowError``.  Wherever the Python
summation it replaced (``tests/sqlengine/reference_sum.py``) neither
raises nor rounds twice, the two agree bit for bit.

Named mutant: a residual chain that stops after its first ``fsum``
(``_compact`` returning ``[fsum(values)]``) drops the bits that round
away at compaction — killed by the first ``@example``, where
``1e16 + 1`` compacts to ``1e16`` and a later ``1.0`` makes the lost
unit visible.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.sqlengine.functions import AvgAccumulator, SumAccumulator

from tests.sqlengine.reference_sum import reference_avg, reference_sum

MAX = 1.7976931348623157e308
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX,
         1e308, -1e308, 1e16, 1.0, math.nan, math.inf, -math.inf]
ADDEND = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.integers(-(2**70), 2**70),
    st.none(),
)


def exact_sum(values: list):
    """The expected ``sum()``: flags as IEEE addition, else the exact
    sum — an int over ints only, a correctly rounded float otherwise."""
    present = [value for value in values if value is not None]
    if not present:
        return None
    floats = [value for value in present if isinstance(value, float)]
    if any(value != value for value in floats) or (
        math.inf in floats and -math.inf in floats
    ):
        return math.nan
    for infinity in (math.inf, -math.inf):
        if infinity in floats:
            return infinity
    exact = sum(map(Fraction, present), Fraction(0))
    if not floats:
        return int(exact)
    try:
        total = float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf
    if total == 0.0 and len(floats) == len(present) and all(
        math.copysign(1.0, value) < 0 for value in floats
    ):
        return -0.0
    return total + 0.0  # -0.0 only when every addend was -0.0


def exact_avg(values: list):
    present = [value for value in values if value is not None]
    if not present:
        return None
    total = exact_sum(present)
    return (float(total) + 0.0) / len(present)


def feed(accumulator, values: list, cuts: list):
    start = 0
    for cut in sorted(cuts) + [len(values)]:
        accumulator.add_many(values[start:cut])
        start = max(start, cut)
    return accumulator.result()


def same(a, b) -> bool:
    return repr(a) == repr(b) and type(a) is type(b)


def rounds_once(values: list) -> bool:
    """Does the old summation round once here?  It added the int total
    to the already rounded float sum."""
    present = [value for value in values if value is not None]
    ints = sum(value for value in present if type(value) is int)
    floats = [value for value in present if type(value) is float]
    if not ints or not floats or not all(map(math.isfinite, floats)):
        return True
    rounded = math.fsum(floats)
    return Fraction(rounded) == sum(map(Fraction, floats)) and \
        float(ints) == ints


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(ADDEND, max_size=1400),
    cuts=st.lists(st.integers(0, 1400), max_size=4),
)
@example(values=[1e16, 1.0] + [0.0] * 600 + [1.0], cuts=[602])
@example(values=[1e308, 1e308, -1e308], cuts=[])
@example(values=[MAX] * 600 + [-MAX] * 599, cuts=[600])
@example(values=[1, 2.0**-53, 2.0**-200], cuts=[])
def test_sum_and_avg_are_exact(values, cuts):
    got_sum = feed(SumAccumulator(), values, cuts)
    got_avg = feed(AvgAccumulator(), values, cuts)
    assert same(got_sum, exact_sum(values))
    assert same(got_avg, exact_avg(values))
    try:
        old_sum, old_avg = reference_sum(values), reference_avg(values)
    except OverflowError:
        return
    if rounds_once(values):
        assert same(got_sum, old_sum)
        assert same(got_avg, old_avg)
