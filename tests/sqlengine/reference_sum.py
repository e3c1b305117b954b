"""The exact summation ``sum`` / ``avg`` used before it finished in C.

The oracle for :class:`repro.sqlengine.functions._ExactSum`: integers
add in arbitrary precision, finite floats fold one at a time into
Shewchuk's non-overlapping partials (:func:`_fold`, pure Python), and
the result is ``int total + fsum(partials)``.  NaN / ±inf are flags and
an all ``-0.0`` sum stays ``-0.0``, as in the engine.  Where a partial
sum leaves the float range (``1e308 + 1e308 - 1e308``) the old code
raised ``OverflowError`` or folded an infinity; this copy always
raises.  It also rounds twice where an int total meets an inexact float
sum.  Everywhere else the engine must equal it bit for bit.
"""

import math


def _fold(partials: list, x: float) -> None:
    """Shewchuk insertion: fold one finite float into *partials*.

    Keeps the list's exact (infinitely precise) sum unchanged while
    keeping its entries non-overlapping, so the list stays a handful of
    elements long no matter how many addends pass through it.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        if math.isinf(hi):
            raise OverflowError("intermediate overflow in _fold")
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _compact(values: list) -> list:
    partials: list = []
    for x in values:
        _fold(partials, x)
    return partials


def _total(values: list) -> tuple:
    """``(special or None, int-only int total or float total, -0.0 only)``."""
    present = [value for value in values if value is not None]
    ints = sum(value for value in present if type(value) is int)
    floats = [value for value in present if type(value) is float]
    if any(value != value for value in floats) or (
        math.inf in floats and -math.inf in floats
    ):
        return math.nan, None, False
    for infinity in (math.inf, -math.inf):
        if infinity in floats:
            return infinity, None, False
    if not floats:
        return None, ints, False
    neg_zero_only = len(floats) == len(present) and all(
        value == 0.0 and math.copysign(1.0, value) < 0.0 for value in floats
    )
    total = math.fsum(_compact(floats))
    if ints:
        total = ints + total
    return None, total, neg_zero_only


def reference_sum(values: list):
    """``sum()`` over *values* (ints, floats and NULLs)."""
    if all(value is None for value in values):
        return None
    special, total, neg_zero_only = _total(values)
    if special is not None:
        return special
    if total == 0.0 and type(total) is float:
        return -0.0 if neg_zero_only else 0.0
    return total


def reference_avg(values: list):
    """``avg()`` over *values* (ints, floats and NULLs)."""
    count = sum(value is not None for value in values)
    if not count:
        return None
    special, total, __ = _total(values)
    if special is not None:
        return special / count
    return (float(total) or 0.0) / count
