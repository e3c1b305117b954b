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
collapse).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
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
    pairs: list = []
    used_soda: set = set()
    used_gold: set = set()

    for gold_index, gold_label in enumerate(gold_norm):
        if gold_label in soda_norm:
            soda_index = soda_norm.index(gold_label)
            if soda_index not in used_soda:
                pairs.append((soda_index, gold_index))
                used_soda.add(soda_index)
                used_gold.add(gold_index)

    soda_suffixes: dict = {}
    for index, label in enumerate(soda_norm):
        soda_suffixes.setdefault(_suffix(label), []).append(index)
    gold_suffixes: dict = {}
    for index, label in enumerate(gold_norm):
        gold_suffixes.setdefault(_suffix(label), []).append(index)

    for gold_index, gold_label in enumerate(gold_norm):
        if gold_index in used_gold:
            continue
        suffix = _suffix(gold_label)
        soda_candidates = [
            i for i in soda_suffixes.get(suffix, []) if i not in used_soda
        ]
        if len(soda_candidates) == 1 and len(gold_suffixes[suffix]) == 1:
            pairs.append((soda_candidates[0], gold_index))
            used_soda.add(soda_candidates[0])
            used_gold.add(gold_index)

    return sorted(pairs)


def _project(rows: list, indexes: list) -> set:
    return {
        tuple(normalize_value(row[i]) for i in indexes)
        for row in rows
    }


def compare_results(soda: ResultSet, golds: Sequence[ResultSet]) -> PrecisionRecall:
    """Compute precision/recall of *soda* against the gold statement(s)."""
    if not golds:
        raise EvaluationError("at least one gold result is required")

    gold_total_rows = sum(len({tuple(map(normalize_value, r)) for r in g.rows})
                          for g in golds)
    soda_distinct = {tuple(map(normalize_value, row)) for row in soda.rows}

    comparable = []
    for gold in golds:
        pairs = match_columns(soda.columns, gold.columns)
        if pairs:
            comparable.append((gold, pairs))

    if not comparable:
        return PrecisionRecall(
            precision=0.0,
            recall=0.0,
            soda_rows=len(soda_distinct),
            gold_rows=gold_total_rows,
        )

    if not soda_distinct:
        if gold_total_rows == 0:
            return PrecisionRecall(1.0, 1.0, 0, 0)
        return PrecisionRecall(0.0, 0.0, 0, gold_total_rows)

    # precision: a SODA tuple is correct iff its projection appears in
    # every comparable gold statement
    correct = 0
    gold_projections = []
    for gold, pairs in comparable:
        soda_indexes = [s for s, __ in pairs]
        gold_indexes = [g for __, g in pairs]
        gold_projections.append(
            (soda_indexes, _project(gold.rows, gold_indexes))
        )
    soda_rows_normalized = [
        tuple(normalize_value(v) for v in row) for row in soda.rows
    ]
    seen_rows: set = set()
    for row in soda_rows_normalized:
        if row in seen_rows:
            continue
        seen_rows.add(row)
        ok = all(
            tuple(row[i] for i in soda_indexes) in gold_set
            for soda_indexes, gold_set in gold_projections
        )
        if ok:
            correct += 1
    precision = correct / len(soda_distinct)

    # recall: fraction of gold tuples (across all statements) whose
    # projection is covered by SODA's projection on the shared columns
    covered = 0
    counted = 0
    for gold, pairs in comparable:
        soda_indexes = [s for s, __ in pairs]
        gold_indexes = [g for __, g in pairs]
        soda_projection = {
            tuple(row[i] for i in soda_indexes) for row in soda_rows_normalized
        }
        gold_rows_distinct = {
            tuple(normalize_value(row[i]) for i in gold_indexes)
            for row in gold.rows
        }
        counted += len(gold_rows_distinct)
        covered += sum(1 for row in gold_rows_distinct if row in soda_projection)
    # gold statements with no comparable columns count as uncovered
    uncomparable_rows = gold_total_rows - sum(
        len({tuple(normalize_value(v) for v in row) for row in gold.rows})
        for gold, __ in comparable
    )
    denominator = counted + max(0, uncomparable_rows)
    recall = covered / denominator if denominator else 1.0

    return PrecisionRecall(
        precision=precision,
        recall=recall,
        soda_rows=len(soda_distinct),
        gold_rows=gold_total_rows,
    )


def evaluate_sql(
    database: Database,
    soda_sql: str,
    gold_sqls: Sequence[str],
    estimated_rows: int | None = None,
    max_rows: int = 1_000_000,
) -> PrecisionRecall:
    """Execute generated + gold statements and compare the results.

    Statements whose estimated result exceeds *max_rows* (disconnected
    cross products) are scored 0/0 without executing — the paper counts
    such statements in its "#Results P,R = 0" column.
    """
    golds = [database.execute(sql) for sql in gold_sqls]
    if estimated_rows is not None and estimated_rows > max_rows:
        gold_rows = sum(len(g.rows) for g in golds)
        return PrecisionRecall(0.0, 0.0, 0, gold_rows)
    soda_result = database.execute(soda_sql)
    return compare_results(soda_result, golds)
