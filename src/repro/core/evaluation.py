"""Precision/recall of generated statements against gold-standard SQL.

The paper (Section 5.2.1): *"To compute precision, we compared the result
tuples of a produced SQL statement of SODA with the result tuples of the
Gold Standard query. A precision of 1.0 means that a SQL statement
produced by SODA returned only tuples that also appear in the Gold
Standard result; a recall of 1.0 means it returned all tuples of the
Gold Standard result."*

Generated and gold statements rarely share an identical column list, so
tuples are compared on their **common columns**: a SODA output column
matches a gold column if the labels are equal, or — uniquely — if their
last dotted components agree (``individuals.family_nm`` vs
``family_nm``).  A gold standard may consist of several statements (the
paper's Q5.0 gold is "two separate 3-way join queries"); a SODA tuple
counts as correct if its projection lies in *every* gold statement that
shares columns with it, and recall is measured over the union of all
gold tuples.  Both result sets are compared as sets (duplicates
collapse): each is **normalised once, column-wise**, into its distinct
rows, and everything above is computed from those.  A column gets one
rule from the exact types of its non-NULL values (``str`` and ``bool``
kept, numbers ``round(float(v), 9)``, dates ISO text); a column mixing
types takes :func:`normalize_value` per value.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.errors import EvaluationError
from repro.sqlengine.database import Database
from repro.sqlengine.results import ResultSet


@dataclass(frozen=True)
class PrecisionRecall:
    """The evaluation outcome for one generated statement."""

    precision: float
    recall: float
    soda_rows: int
    gold_rows: int

    @property
    def is_zero(self) -> bool:
        return self.precision == 0.0 and self.recall == 0.0

    @property
    def is_positive(self) -> bool:
        return self.precision > 0.0 and self.recall > 0.0


ZERO = PrecisionRecall(precision=0.0, recall=0.0, soda_rows=0, gold_rows=0)


def normalize_value(value: object) -> object:
    """Canonical form for tuple comparison across engines/statements."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return round(float(value), 9)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _normalize_label(label: str) -> str:
    return label.strip().lower()


def _suffix(label: str) -> str:
    return _normalize_label(label).rsplit(".", 1)[-1]


def match_columns(
    soda_columns: Sequence[str], gold_columns: Sequence[str]
) -> list:
    """Pair up comparable columns; returns [(soda_index, gold_index)].

    Exact label matches win; remaining gold columns match a SODA column
    by dotted-suffix only when the suffix is unambiguous on both sides.
    """
    soda_norm = [_normalize_label(c) for c in soda_columns]
    gold_norm = [_normalize_label(c) for c in gold_columns]
    matched: dict = {}  # gold index -> soda index
    for gold_index, label in enumerate(gold_norm):
        soda_index = soda_norm.index(label) if label in soda_norm else None
        if soda_index is not None and soda_index not in matched.values():
            matched[gold_index] = soda_index
    soda_suffixes = [_suffix(label) for label in soda_norm]
    gold_suffixes = [_suffix(label) for label in gold_norm]
    for gold_index, suffix in enumerate(gold_suffixes):
        candidates = [
            i for i, s in enumerate(soda_suffixes)
            if s == suffix and i not in matched.values()
        ]
        if (gold_index not in matched and len(candidates) == 1
                and gold_suffixes.count(suffix) == 1):
            matched[gold_index] = candidates[0]
    return sorted((s, g) for g, s in matched.items())


def _normalize_column(values: tuple) -> Sequence:
    """*values* under :func:`normalize_value`, one rule for the column."""
    types = set(map(type, values))
    types.discard(type(None))
    if types <= {str} or types == {bool}:
        return values
    if types == {int}:  # an int needs no rounding: it is a whole float
        return [None if v is None else float(v) for v in values]
    if types <= {int, float}:
        return [None if v is None else round(float(v), 9) for v in values]
    if types == {datetime.date}:
        return [None if v is None else v.isoformat() for v in values]
    return list(map(normalize_value, values))


def _distinct_rows(result: ResultSet) -> set:
    """*result*'s distinct rows, every cell normalised once, column-wise."""
    if not result.columns:
        return set(result.rows)
    return set(zip(*map(_normalize_column, zip(*result.rows))))


def compare_results(soda: ResultSet, golds: Sequence[ResultSet]) -> PrecisionRecall:
    """Compute precision/recall of *soda* against the gold statement(s)."""
    if not golds:
        raise EvaluationError("at least one gold result is required")
    soda_rows = _distinct_rows(soda)
    gold_rows = [_distinct_rows(gold) for gold in golds]
    gold_total = sum(map(len, gold_rows))
    comparable = []
    for gold, rows in zip(golds, gold_rows):
        pairs = match_columns(soda.columns, gold.columns)
        if pairs:
            comparable.append((pairs, rows))
    if not comparable or not soda_rows:
        # nothing to compare; an empty answer to an empty gold is right
        score = 1.0 if comparable and not gold_total else 0.0
        return PrecisionRecall(score, score, len(soda_rows), gold_total)

    # a SODA row is correct iff its projection lies in every comparable
    # gold; recall counts the comparable golds' projections SODA covers,
    # and every row of a gold sharing no column as uncovered
    correct = soda_rows
    covered = counted = 0
    for pairs, rows in comparable:
        soda_key = itemgetter(*[s for s, __ in pairs])
        gold_projection = set(map(itemgetter(*[g for __, g in pairs]), rows))
        correct = {row for row in correct if soda_key(row) in gold_projection}
        soda_projection = set(map(soda_key, soda_rows))
        counted += len(gold_projection)
        covered += len(gold_projection & soda_projection)
    denominator = counted + gold_total - sum(len(r) for __, r in comparable)
    precision = len(correct) / len(soda_rows)
    recall = covered / denominator if denominator else 1.0
    return PrecisionRecall(precision, recall, len(soda_rows), gold_total)


def evaluate_sql(
    database: Database,
    soda_sql: str,
    golds: Sequence[ResultSet],
    estimated_rows: int | None = None,
    max_rows: int = 1_000_000,
) -> PrecisionRecall:
    """Execute a generated statement and score it against *golds*.

    *golds* are the query's executed gold statements (run once per
    query).  Statements whose estimated result exceeds *max_rows*
    (disconnected cross products) are scored 0/0 without executing —
    the paper counts such statements in its "#Results P,R = 0" column.
    """
    if estimated_rows is not None and estimated_rows > max_rows:
        gold_rows = sum(len(_distinct_rows(gold)) for gold in golds)
        return PrecisionRecall(0.0, 0.0, 0, gold_rows)
    return compare_results(database.execute(soda_sql), golds)
