"""The parsed SODA input query (keywords + operators + values).

This is the AST produced by :mod:`repro.core.input_patterns` from the
paper's query language (Section 4.3)::

    <search keywords> [ [AND|OR] <search keywords> |
                        <comparison operator> <search keyword> ]
    <aggregation operator> (<aggregation attribute>)
        [<search keywords>] [group by (<attr1, ..., attrN>)]

plus the ``top N`` prefix used in Section 4.4.2.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Comparison:
    """A comparison operator bound to the word run preceding it.

    ``left_words`` is the raw word run before the operator; the lookup
    step segments it and binds the *last* segment as the compared
    attribute (the paper: "The comparison operator will later on be
    applied to the keywords before and after itself").
    """

    left_words: tuple
    op: str  # one of > >= = <= < <> like
    value: object  # date, number or string

    def describe(self) -> str:
        return f"{' '.join(self.left_words)} {self.op} {self.value!r}"


@dataclass(frozen=True)
class RangeCondition:
    """A ``between`` operator: ``<words> between date(a) date(b)``."""

    left_words: tuple
    low: object
    high: object

    def describe(self) -> str:
        return f"{' '.join(self.left_words)} between {self.low!r} {self.high!r}"


@dataclass(frozen=True)
class Aggregation:
    """An aggregation operator: ``sum(amount)`` / ``count()``.

    ``argument`` is the attribute term, or ``None`` for ``count()``
    (which the paper's Q9.0 writes as ``select count()``).
    """

    func: str  # sum | count | avg | min | max
    argument: str | None

    def describe(self) -> str:
        return f"{self.func}({self.argument or ''})"


@dataclass(frozen=True)
class SodaQuery:
    """The fully parsed input query."""

    raw: str
    keywords: tuple = ()  # residual keyword word-runs (tuples of words)
    comparisons: tuple = ()
    ranges: tuple = ()
    aggregations: tuple = ()
    group_by: tuple = ()  # attribute terms
    top_n: int | None = None
    connectors: tuple = ()  # 'and' / 'or' tokens seen (recorded only)
    #: temporal anchor from ``valid at date(...)`` — restricts historized
    #: tables to rows valid at this date (the paper's future-work item on
    #: bi-temporal historization)
    valid_at: datetime.date | None = None

    @property
    def has_aggregation(self) -> bool:
        return bool(self.aggregations) or bool(self.group_by)

    def describe(self) -> str:
        parts = []
        if self.top_n is not None:
            parts.append(f"top {self.top_n}")
        parts.extend(agg.describe() for agg in self.aggregations)
        parts.extend(" ".join(words) for words in self.keywords)
        parts.extend(comparison.describe() for comparison in self.comparisons)
        parts.extend(range_.describe() for range_ in self.ranges)
        if self.group_by:
            parts.append(f"group by ({', '.join(self.group_by)})")
        if self.valid_at is not None:
            parts.append(f"valid at {self.valid_at.isoformat()}")
        return " | ".join(parts)
