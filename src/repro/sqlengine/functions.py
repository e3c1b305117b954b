"""Aggregate function accumulators."""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import SqlExecutionError, SqlTypeError


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


class _ExactSum:
    """Order-independent exact accumulation of int/float addends.

    Integers accumulate exactly in arbitrary precision; finite floats
    are buffered and periodically folded into Shewchuk partials, so the
    final float is the correctly rounded exact sum no matter how the
    inputs were batched: any batch split agrees bit for bit.
    Non-finite addends become flags with the same outcome as sequential
    IEEE addition (any NaN, or both infinities, is NaN; otherwise the
    surviving infinity wins), which is likewise order-independent.
    """

    __slots__ = (
        "int_total",
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
        self.int_total = 0
        self.saw_int = False
        self.saw_float = False
        #: True while every addend so far was a float -0.0 — the one
        #: case where sequential IEEE addition yields -0.0
        self.neg_zero_only = True
        self.nan = False
        self.pos_inf = False
        self.neg_inf = False
        self.buffer: list = []

    def add_int(self, value: int) -> None:
        self.int_total += value
        self.saw_int = True
        self.neg_zero_only = False

    def add_float(self, value: float) -> None:
        self.saw_float = True
        if value != value:
            self.nan = True
            self.neg_zero_only = False
        elif value == math.inf:
            self.pos_inf = True
            self.neg_zero_only = False
        elif value == -math.inf:
            self.neg_inf = True
            self.neg_zero_only = False
        else:
            if self.neg_zero_only and (
                value != 0.0 or math.copysign(1.0, value) > 0.0
            ):
                self.neg_zero_only = False
            buffer = self.buffer
            buffer.append(value)
            if len(buffer) >= self._COMPACT_AT:
                self.buffer = _compact(buffer)

    def add_floats(self, values: list) -> None:
        if not all(map(math.isfinite, values)):
            for value in values:
                self.add_float(value)
            return
        self.saw_float = True
        if self.neg_zero_only:
            for value in values:
                if value != 0.0 or math.copysign(1.0, value) > 0.0:
                    self.neg_zero_only = False
                    break
        buffer = self.buffer
        buffer.extend(values)
        if len(buffer) >= self._COMPACT_AT:
            self.buffer = _compact(buffer)

    def special(self) -> "float | None":
        if self.nan or (self.pos_inf and self.neg_inf):
            return math.nan
        if self.pos_inf:
            return math.inf
        if self.neg_inf:
            return -math.inf
        return None

    def float_total(self) -> float:
        """The correctly rounded float of the exact finite sum."""
        total = math.fsum(self.buffer)
        if self.int_total:
            total = self.int_total + total
        return total


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
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SqlTypeError(f"sum() expects numbers, got {value!r}")
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._any = True
        if isinstance(value, int):
            self._sum.add_int(value)
        else:
            self._sum.add_float(value)

    def add_many(self, values) -> None:
        if self._distinct:
            super().add_many(values)
            return
        ints = 0
        floats: list = []
        append = floats.append
        count = 0
        for value in values:
            if value is None:
                continue
            if type(value) is int:
                ints += value
            elif type(value) is float:
                append(value)
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SqlTypeError(f"sum() expects numbers, got {value!r}")
            elif isinstance(value, int):
                ints += value
            else:
                append(value)
            count += 1
        if not count:
            return
        self._any = True
        if len(floats) != count:
            total = self._sum
            total.int_total += ints
            total.saw_int = True
            total.neg_zero_only = False
        if floats:
            self._sum.add_floats(floats)

    def result(self) -> "int | float | None":
        if not self._any:
            return None
        total = self._sum
        special = total.special()
        if special is not None:
            return special
        if not total.saw_float:
            return total.int_total
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
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SqlTypeError(f"avg() expects numbers, got {value!r}")
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        if isinstance(value, int):
            self._sum.add_int(value)
        else:
            self._sum.add_float(value)
        self._count += 1

    def add_many(self, values) -> None:
        if self._distinct:
            super().add_many(values)
            return
        ints = 0
        floats: list = []
        append = floats.append
        count = 0
        for value in values:
            if value is None:
                continue
            if type(value) is int:
                ints += value
            elif type(value) is float:
                append(value)
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SqlTypeError(f"avg() expects numbers, got {value!r}")
            elif isinstance(value, int):
                ints += value
            else:
                append(value)
            count += 1
        if not count:
            return
        if len(floats) != count:
            total = self._sum
            total.int_total += ints
            total.saw_int = True
            total.neg_zero_only = False
        if floats:
            self._sum.add_floats(floats)
        self._count += count

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
