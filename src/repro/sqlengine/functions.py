"""Aggregate function accumulators."""

from __future__ import annotations

import math
from types import NoneType
from typing import Any, Callable

from repro.errors import SqlExecutionError, SqlTypeError


def _compact(values: list) -> list:
    """Floats whose exact sum is that of the finite floats *values*.

    A ``math.fsum`` residual chain: each round sums *values* less the
    partials found so far, correctly rounded, until the residual is 0.
    Every float sum is a multiple of 2**-1074, so the chain is exact and
    ends within ~40 rounds (one to three in practice).  Raises
    OverflowError where an intermediate sum leaves the float range.
    """
    partials: list = []
    while residual := math.fsum(values + [-p for p in partials]):
        partials.append(residual)
    return partials


def _float_parts(value) -> list:
    """Floats whose exact sum is the int or Fraction *value*."""
    parts = []
    while value:
        parts.append(float(value))
        value -= type(value)(parts[-1])
    return parts


def _exact(values: list, start=0):
    """The exact sum of *start* and the floats *values*, a Fraction
    (imported here: only a sum past the float range needs one)."""
    from fractions import Fraction

    return sum(map(Fraction, values), Fraction(start))


_NUMBER_TYPES = {int, float, NoneType}


def _check_number(value: Any, name: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlTypeError(f"{name}() expects numbers, got {value!r}")


class _ExactSum:
    """Order-independent exact accumulation of int/float addends.

    Integers accumulate exactly in arbitrary precision; finite floats
    are buffered and periodically compacted (:func:`_compact`, in C), so
    the final float is the correctly rounded exact sum no matter how the
    inputs were batched: any batch split agrees bit for bit.  A sum
    beyond the float range rounds to ±inf and never raises: where
    ``fsum`` overflows, the buffer spills into the exact ``Fraction``
    total instead.  Non-finite addends become flags with the same
    outcome as sequential IEEE addition (any NaN, or both infinities, is
    NaN; otherwise the surviving infinity wins), which is likewise
    order-independent.
    """

    __slots__ = (
        "exact",
        "saw_int",
        "saw_float",
        "neg_zero_only",
        "nan",
        "pos_inf",
        "neg_inf",
        "buffer",
    )

    _COMPACT_AT = 512

    def __init__(self) -> None:
        #: the exact sum of the int addends (and of any spilled floats)
        self.exact = 0
        self.saw_int = False
        self.saw_float = False
        #: True while every addend so far was a float -0.0 — the one
        #: case where sequential IEEE addition yields -0.0
        self.neg_zero_only = True
        self.nan = False
        self.pos_inf = False
        self.neg_inf = False
        self.buffer: list = []

    def add_numbers(self, values, name: str) -> int:
        """Add the non-NULL *values*; their count.  An all-int / float
        slice splits by type in C, with no per-value type test; a
        non-number raises ``name() expects numbers``."""
        kinds = set(map(type, values))
        if not kinds <= _NUMBER_TYPES:
            for value in values:
                if value is not None:
                    _check_number(value, name)
            values = [value + 0 for value in values if value is not None]
            kinds = set(map(type, values))
        elif NoneType in kinds:
            values = [value for value in values if value is not None]
        if float not in kinds:
            ints, floats = values, []
        elif int not in kinds:
            ints, floats = [], values
        else:
            ints = [value for value in values if type(value) is int]
            floats = [value for value in values if type(value) is float]
        if ints:
            self.exact += sum(ints)
            self.saw_int = True
            self.neg_zero_only = False
        if floats:
            self.add_floats(floats)
        return len(values)

    def add_floats(self, values: list) -> None:
        if not all(map(math.isfinite, values)):
            for value in values:
                self.nan |= value != value
                self.pos_inf |= value == math.inf
                self.neg_inf |= value == -math.inf
            values = [value for value in values if math.isfinite(value)]
            self.neg_zero_only = False
        self.saw_float = True
        if self.neg_zero_only:
            for value in values:
                if value != 0.0 or math.copysign(1.0, value) > 0.0:
                    self.neg_zero_only = False
                    break
        if len(self.buffer) >= self._COMPACT_AT:  # before growing: the
            try:  # last slice of a stream is summed once, at the end
                self.buffer = _compact(self.buffer)
            except OverflowError:
                self.exact = _exact(self.buffer, self.exact)
                self.buffer = []
        self.buffer.extend(values)

    def special(self) -> "float | None":
        if self.nan or (self.pos_inf and self.neg_inf):
            return math.nan
        if self.pos_inf:
            return math.inf
        if self.neg_inf:
            return -math.inf
        return None

    def float_total(self) -> float:
        """The correctly rounded float of the exact finite sum; ±inf
        beyond the float range."""
        try:
            return math.fsum(self.buffer + _float_parts(self.exact))
        except OverflowError:
            exact = _exact(self.buffer, self.exact)
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf


class Accumulator:
    """Base class for aggregate accumulators (one instance per group).

    ``add`` is the row-at-a-time interface; the vectorized engine feeds
    whole value slices through ``add_many`` / ``add_repeat``, which
    subclasses override with bulk implementations that produce results
    identical to the equivalent sequence of ``add`` calls (same
    accumulation order, same type errors).
    """

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def add_many(self, values) -> None:
        add = self.add
        for value in values:
            add(value)

    def add_repeat(self, count: int) -> None:
        """``count`` successive ``add(1)`` calls (the ``count(*)`` shape)."""
        add = self.add
        for __ in range(count):
            add(1)

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class CountAccumulator(Accumulator):
    """``count(expr)`` — counts non-NULL values; ``count(*)`` counts rows."""

    def __init__(self, count_nulls: bool = False, distinct: bool = False) -> None:
        self._count = 0
        self._count_nulls = count_nulls
        self._distinct = distinct
        self._seen: set = set()

    def add(self, value: Any) -> None:
        if value is None and not self._count_nulls:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1

    def add_many(self, values) -> None:
        if self._distinct:
            super().add_many(values)
            return
        if self._count_nulls:
            self._count += len(values)
        else:
            self._count += len(values) - values.count(None)

    def add_repeat(self, count: int) -> None:
        if self._distinct:
            super().add_repeat(count)
            return
        self._count += count

    def result(self) -> int:
        return self._count


class SumAccumulator(Accumulator):
    """``sum(expr)`` — NULL over empty/all-NULL input.

    Accumulation is exact (:class:`_ExactSum`), rounded once at
    ``result()``: the value is a function of the *set* of addends, not
    of how they were batched, so every batch split agrees bit for bit.
    """

    def __init__(self, distinct: bool = False) -> None:
        self._sum = _ExactSum()
        self._any = False
        self._distinct = distinct
        self._seen: set = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        _check_number(value, "sum")
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._any = True
        self._sum.add_numbers([value], "sum")

    def add_many(self, values) -> None:
        if self._distinct:
            super().add_many(values)
        elif self._sum.add_numbers(values, "sum"):
            self._any = True

    def result(self) -> "int | float | None":
        if not self._any:
            return None
        total = self._sum
        special = total.special()
        if special is not None:
            return special
        if not total.saw_float:
            return total.exact
        value = total.float_total()
        if value == 0.0:
            return -0.0 if total.neg_zero_only else 0.0
        return value


class AvgAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        self._sum = _ExactSum()
        self._count = 0
        self._distinct = distinct
        self._seen: set = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        _check_number(value, "avg")
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += self._sum.add_numbers([value], "avg")

    def add_many(self, values) -> None:
        if self._distinct:
            super().add_many(values)
        else:
            self._count += self._sum.add_numbers(values, "avg")

    def result(self) -> "float | None":
        if self._count == 0:
            return None
        special = self._sum.special()
        if special is not None:
            return special / self._count
        total = self._sum.float_total()
        if total == 0.0:
            # an all-zero (or exactly cancelling) sum divides as +0.0,
            # matching sequential accumulation from a 0.0 seed
            total = 0.0
        return total / self._count


class MinAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._best is None or value < self._best:
            self._best = value

    def add_many(self, values) -> None:
        # seeded with the running best, builtin min() is the add rule
        present = [value for value in values if value is not None]
        if self._best is not None:
            present.insert(0, self._best)
        if present:
            self._best = min(present)

    def result(self) -> Any:
        return self._best


class MaxAccumulator(Accumulator):
    def __init__(self, distinct: bool = False) -> None:
        self._best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._best is None or value > self._best:
            self._best = value

    def add_many(self, values) -> None:
        # seeded with the running best, builtin max() is the add rule
        present = [value for value in values if value is not None]
        if self._best is not None:
            present.insert(0, self._best)
        if present:
            self._best = max(present)

    def result(self) -> Any:
        return self._best


def make_accumulator(name: str, star: bool, distinct: bool) -> Accumulator:
    """Instantiate the accumulator for an aggregate call."""
    if name == "count":
        return CountAccumulator(count_nulls=star, distinct=distinct)
    factories: dict[str, Callable[[bool], Accumulator]] = {
        "sum": SumAccumulator,
        "avg": AvgAccumulator,
        "min": MinAccumulator,
        "max": MaxAccumulator,
    }
    if name not in factories:
        raise SqlExecutionError(f"unknown aggregate function: {name!r}")
    return factories[name](distinct)
