"""The per-value scorer ``compare_results`` replaced: the oracle.

This is ``repro.core.evaluation.compare_results`` as it was before the
scorer normalised each result set once, column-wise.  It normalises
every cell with the per-value rule below, once per use (each SODA row
twice, each gold row four times), and pairs columns with the label
matcher of its time.  It defines the precision / recall the column-wise
scorer must reproduce exactly
(``tests/property/test_property_evaluation.py``).
"""

from __future__ import annotations

import datetime
from typing import Sequence

from repro.core.evaluation import PrecisionRecall
from repro.errors import EvaluationError
from repro.sqlengine.results import ResultSet


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


def reference_compare_results(
    soda: ResultSet, golds: Sequence[ResultSet]
) -> PrecisionRecall:
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
