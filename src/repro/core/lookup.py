"""Step 1 — Lookup: map query terms to metadata/base-data entry points.

The lookup step matches the keywords of the input query against the
classification index (metadata terms) and the inverted index (base
data), using the longest-word-combination algorithm of Section 4.2.2.
Every term yields a set of alternative entry points; the output of the
step is the combinatorial product of all alternatives (Fig. 5 "Query
Classification"), whose size is the paper's *query complexity* metric
(Table 4, column 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.query import Aggregation, Comparison, RangeCondition, SodaQuery
from repro.index.classification import ClassificationIndex, EntrySource
from repro.index.inverted import InvertedIndex, tokenize_text
from repro.obs.metrics import registry as _metrics_registry
from repro.stamps import DependencyStamp
from repro.warehouse.graphbuilder import column_uri

_METRICS = _metrics_registry()
_MEMO_HITS = _METRICS.counter("lookup.memo.hits")
_MEMO_MISSES = _METRICS.counter("lookup.memo.misses")
_MEMO_INVALIDATIONS = _METRICS.counter("lookup.memo.invalidations")


@dataclass(frozen=True)
class EntryPoint:
    """One way a query term can anchor into the warehouse."""

    term: str
    source: EntrySource
    node: str  # metadata graph node URI (column node for base-data hits)
    table: str | None = None  # base-data hits: the posting's table
    column: str | None = None  # base-data hits: the posting's column

    @property
    def is_base_data(self) -> bool:
        return self.source is EntrySource.BASE_DATA

    def describe(self) -> str:
        if self.is_base_data:
            return f"{self.term!r} in base data ({self.table}.{self.column})"
        return f"{self.term!r} in {self.source.value} ({self.node})"

    def sort_key(self) -> tuple:
        return (self.source.value, self.node)


@dataclass
class Slot:
    """One resolved position of the query (keyword, operator operand, ...)."""

    kind: str  # keyword | comparison | range | aggregation | groupby
    term: str | None
    alternatives: tuple
    payload: object = None  # Comparison / RangeCondition / Aggregation

    def option_count(self) -> int:
        return max(1, len(self.alternatives))


@dataclass(frozen=True)
class Assignment:
    """One chosen entry point (or None) for one slot."""

    slot_index: int
    entry: EntryPoint | None


@dataclass(frozen=True)
class Interpretation:
    """One element of the combinatorial lookup product."""

    assignments: tuple

    def entry_points(self) -> list:
        return [a.entry for a in self.assignments if a.entry is not None]

    def describe(self, slots: list) -> str:
        parts = []
        for assignment in self.assignments:
            slot = slots[assignment.slot_index]
            if assignment.entry is None:
                parts.append(f"{slot.term!r}: (unresolved)")
            else:
                parts.append(assignment.entry.describe())
        return "; ".join(parts)


@dataclass
class LookupResult:
    """Everything Step 1 produces for one query."""

    query: SodaQuery
    slots: list
    interpretations: list
    complexity: int
    ignored_terms: tuple = ()
    truncated: bool = False
    #: every inverted-index token the step probed (segmentation windows
    #: and term alternatives are all phrases over these): the inverted
    #: part of the result's dependency stamp
    tokens: frozenset = frozenset()

    def classification_summary(self) -> dict:
        """term -> sorted list of sources found (Fig. 5 reproduction)."""
        summary: dict = {}
        for slot in self.slots:
            if slot.term is None:
                continue
            sources = sorted({e.source.value for e in slot.alternatives})
            summary[slot.term] = sources
        return summary


class Lookup:
    """The lookup step, bound to the two indexes of one warehouse."""

    def __init__(
        self,
        classification: ClassificationIndex,
        inverted: InvertedIndex,
        max_interpretations: int = 200,
    ) -> None:
        self._classification = classification
        self._inverted = inverted
        self._max_interpretations = max_interpretations
        # term memos.  Both are dropped wholesale when the
        # classification index changes (rare); an alternatives entry is
        # (tuple[EntryPoint], DependencyStamp) and additionally
        # validates its term's tokens against the inverted index, so a
        # base-data write costs only the terms it touched
        self._alternatives_cache: dict[str, tuple] = {}
        self._metadata_cache: dict[str, tuple] = {}
        self._classification_version = classification.version
        #: alternatives entries dropped because a token of theirs changed
        self.invalidations = 0

    def _check_cache_stamp(self) -> None:
        """Drop term memos when the classification index has changed."""
        version = self._classification.version
        if version != self._classification_version:
            self._alternatives_cache.clear()
            self._metadata_cache.clear()
            self._classification_version = version

    # ------------------------------------------------------------------
    def run(self, query: SodaQuery) -> LookupResult:
        """Execute Step 1 for a parsed query."""
        slots: list = []
        ignored: list = []

        for words in query.keywords:
            segments, unknown = self.segment_words(list(words))
            ignored.extend(unknown)
            for term in segments:
                slots.append(
                    Slot(
                        kind="keyword",
                        term=term,
                        alternatives=tuple(self.alternatives(term)),
                    )
                )

        operators = [*query.comparisons, *query.ranges]
        for operator in operators:
            slots.extend(self._operator_slots(operator, ignored))

        for aggregation in query.aggregations:
            if aggregation.argument is None:
                slots.append(
                    Slot(kind="aggregation", term=None, alternatives=(),
                         payload=aggregation)
                )
            else:
                slots.append(
                    Slot(
                        kind="aggregation",
                        term=aggregation.argument,
                        alternatives=tuple(
                            self.metadata_alternatives(aggregation.argument)
                        ),
                        payload=aggregation,
                    )
                )

        for term in query.group_by:
            slots.append(
                Slot(
                    kind="groupby",
                    term=term,
                    alternatives=tuple(self.metadata_alternatives(term)),
                )
            )

        interpretations, truncated = self._product(slots)
        complexity = 1
        for slot in slots:
            complexity *= slot.option_count()

        return LookupResult(
            query=query,
            slots=slots,
            interpretations=interpretations,
            complexity=complexity,
            ignored_terms=tuple(ignored),
            truncated=truncated,
            tokens=frozenset(tokenize_text(" ".join(
                word
                for run in (*query.keywords, *(o.left_words for o in operators))
                for word in run
            ))),
        )

    # ------------------------------------------------------------------
    def segment_words(self, words: list) -> tuple:
        """Longest-word-combination segmentation (Section 4.2.2).

        Returns ``(segments, unknown_words)``.  At each position the
        longest phrase found in either index wins; unmatched single
        words are ignored (the paper: "*and* might be unknown and we
        therefore ignore it").
        """
        max_window = max(self._classification.max_term_words, 3)
        segments: list = []
        unknown: list = []
        position = 0
        while position < len(words):
            matched = False
            limit = min(max_window, len(words) - position)
            for size in range(limit, 0, -1):
                phrase = " ".join(words[position:position + size])
                if phrase in self._classification or self._inverted.lookup_phrase(
                    phrase
                ):
                    segments.append(phrase)
                    position += size
                    matched = True
                    break
            if not matched:
                unknown.append(words[position])
                position += 1
        return segments, unknown

    def alternatives(self, term: str) -> list:
        """All entry points of one term (metadata + base data), memoized."""
        self._check_cache_stamp()
        cached = self._alternatives_cache.get(term)
        if cached is not None and not cached[1].valid(inverted=self._inverted):
            cached = None
            self.invalidations += 1
            if _METRICS.enabled:
                _MEMO_INVALIDATIONS.inc()
        if cached is None:
            if _METRICS.enabled:
                _MEMO_MISSES.inc()
            stamp = DependencyStamp(
                tick=self._inverted.version, tokens=tuple(tokenize_text(term))
            )
            found = list(self.metadata_alternatives(term))
            found.extend(self.base_data_alternatives(term))
            cached = (tuple(sorted(found, key=EntryPoint.sort_key)), stamp)
            self._alternatives_cache[term] = cached
        elif _METRICS.enabled:
            _MEMO_HITS.inc()
        return list(cached[0])

    def metadata_alternatives(self, term: str) -> list:
        """Entry points of *term* in the classification index only."""
        self._check_cache_stamp()
        cached = self._metadata_cache.get(term)
        if cached is None:
            if _METRICS.enabled:
                _MEMO_MISSES.inc()
            cached = tuple(
                sorted(
                    (
                        EntryPoint(
                            term=term, source=match.source, node=match.node
                        )
                        for match in self._classification.lookup(term)
                    ),
                    key=EntryPoint.sort_key,
                )
            )
            self._metadata_cache[term] = cached
        elif _METRICS.enabled:
            _MEMO_HITS.inc()
        return list(cached)

    def base_data_alternatives(self, term: str) -> list:
        """Entry points of *term* in the inverted index, one per column."""
        seen: set = set()
        found: list = []
        for posting in self._inverted.lookup_phrase(term):
            key = (posting.table, posting.column)
            if key in seen:
                continue
            seen.add(key)
            found.append(
                EntryPoint(
                    term=term,
                    source=EntrySource.BASE_DATA,
                    node=column_uri(posting.table, posting.column),
                    table=posting.table,
                    column=posting.column,
                )
            )
        return sorted(found, key=EntryPoint.sort_key)

    # ------------------------------------------------------------------
    def _operator_slots(self, operator, ignored: list) -> list:
        """Slots for a comparison/range: leading keywords + the operand."""
        slots: list = []
        segments, unknown = self.segment_words(list(operator.left_words))
        ignored.extend(unknown)
        if segments:
            for term in segments[:-1]:
                slots.append(
                    Slot(
                        kind="keyword",
                        term=term,
                        alternatives=tuple(self.alternatives(term)),
                    )
                )
            operand = segments[-1]
            kind = "range" if isinstance(operator, RangeCondition) else "comparison"
            slots.append(
                Slot(
                    kind=kind,
                    term=operand,
                    alternatives=tuple(self.metadata_alternatives(operand)),
                    payload=operator,
                )
            )
        else:
            kind = "range" if isinstance(operator, RangeCondition) else "comparison"
            slots.append(Slot(kind=kind, term=None, alternatives=(), payload=operator))
        return slots

    def _product(self, slots: list) -> tuple:
        """Cartesian product of slot alternatives, capped for safety."""
        option_lists: list = []
        for index, slot in enumerate(slots):
            if slot.alternatives:
                option_lists.append(
                    [Assignment(index, entry) for entry in slot.alternatives]
                )
            else:
                option_lists.append([Assignment(index, None)])

        interpretations: list = []
        truncated = False
        for combo in itertools.product(*option_lists):
            if len(interpretations) >= self._max_interpretations:
                truncated = True
                break
            interpretations.append(Interpretation(assignments=tuple(combo)))
        return interpretations, truncated
