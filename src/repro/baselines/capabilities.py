"""Table 5: qualitative comparison of the six systems.

The paper's Table 5 marks, per query type, whether each system can
handle the benchmark queries ("X", partial "(X)"/"(NO)", or "NO").  We
reproduce the table *behaviourally*: every baseline runs the thirteen
workload queries, every produced statement is evaluated against the
gold standard, and the marks are derived from the outcomes:

* ``X``    — all queries of that type answered with positive P and R,
* ``(X)``  — some (not all) answered correctly,
* ``(NO)`` — statements produced but none correct,
* ``NO``   — the system refuses or produces nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.banks import Banks
from repro.baselines.base import BaselineAnswer, KeywordSearchSystem
from repro.baselines.dbexplorer import DBExplorer
from repro.baselines.discover import Discover
from repro.baselines.keymantic import Keymantic
from repro.baselines.sqak import Sqak
from repro.core.evaluation import PrecisionRecall, evaluate_sql
from repro.errors import ReproError
from repro.experiments.reporting import format_rows
from repro.experiments.workload import WORKLOAD, ExperimentQuery
from repro.warehouse.warehouse import Warehouse

#: The query-type rows of Table 5, in paper order.
QUERY_TYPE_ROWS = (
    ("Base data", "B"),
    ("Schema", "S"),
    ("Inheritance", "I"),
    ("Domain ontology", "D"),
    ("Predicates", "P"),
    ("Aggregates", "A"),
)

#: The paper's published marks (for side-by-side reporting).
PAPER_TABLE5 = {
    ("B", "DBExplorer"): "(X)",
    ("B", "DISCOVER"): "(X)",
    ("B", "BANKS"): "X",
    ("B", "SQAK"): "NO",
    ("B", "Keymantic"): "(NO)",
    ("B", "SODA"): "X",
    ("S", "DBExplorer"): "NO",
    ("S", "DISCOVER"): "NO",
    ("S", "BANKS"): "X",
    ("S", "SQAK"): "NO",
    ("S", "Keymantic"): "X",
    ("S", "SODA"): "X",
    ("I", "DBExplorer"): "NO",
    ("I", "DISCOVER"): "NO",
    ("I", "BANKS"): "NO",
    ("I", "SQAK"): "NO",
    ("I", "Keymantic"): "NO",
    ("I", "SODA"): "X",
    ("D", "DBExplorer"): "NO",
    ("D", "DISCOVER"): "NO",
    ("D", "BANKS"): "NO",
    ("D", "SQAK"): "NO",
    ("D", "Keymantic"): "(X)",
    ("D", "SODA"): "X",
    ("P", "DBExplorer"): "NO",
    ("P", "DISCOVER"): "NO",
    ("P", "BANKS"): "NO",
    ("P", "SQAK"): "NO",
    ("P", "Keymantic"): "NO",
    ("P", "SODA"): "X",
    ("A", "DBExplorer"): "NO",
    ("A", "DISCOVER"): "NO",
    ("A", "BANKS"): "NO",
    ("A", "SQAK"): "X",
    ("A", "Keymantic"): "NO",
    ("A", "SODA"): "X",
}


@dataclass
class QueryEvaluation:
    """One system's behaviour on one workload query."""

    qid: str
    answered: bool
    best: PrecisionRecall | None
    caveat: str | None
    note: str

    @property
    def correct(self) -> bool:
        return self.best is not None and self.best.is_positive


@dataclass
class SystemEvaluation:
    """One system's behaviour across the workload."""

    system: str
    per_query: dict = field(default_factory=dict)

    def mark(self, type_tag: str, workload=WORKLOAD) -> str:
        tagged = [q for q in workload if q.uses(type_tag)]
        if not tagged:
            return "-"
        evaluations = [self.per_query[q.qid] for q in tagged]
        correct = sum(1 for e in evaluations if e.correct)
        answered = sum(1 for e in evaluations if e.answered)
        if correct == len(tagged):
            return "X"
        if correct > 0:
            return "(X)"
        if answered > 0:
            return "(NO)"
        return "NO"


def default_systems(warehouse: Warehouse) -> list:
    """Instantiate all five baselines against one warehouse."""
    database = warehouse.database
    inverted = warehouse.inverted
    synonyms = synonym_dictionary(warehouse)
    return [
        DBExplorer(database, inverted),
        Discover(database, inverted),
        Banks(database, inverted),
        Sqak(database, inverted),
        Keymantic(database, inverted, synonyms=synonyms),
    ]


def synonym_dictionary(warehouse: Warehouse) -> dict:
    """External lexical resource for Keymantic: term -> schema-ish term.

    Derived from the warehouse's DBpedia entries and ontology term names
    (Keymantic could consult WordNet/DBpedia; it could not consult
    SODA's metadata *graph*).
    """
    synonyms: dict = {}
    for ontology in warehouse.definition.ontologies:
        for term in ontology.terms:
            for target in term.classifies:
                __, name = target.split(":", 1)
                synonyms.setdefault(term.term, name.replace(".", " "))
    for entry in warehouse.definition.dbpedia:
        for target in entry.synonym_of:
            __, name = target.split(":", 1)
            synonyms.setdefault(entry.term, name.replace(".", " "))
    return synonyms


def evaluate_system(
    system: KeywordSearchSystem,
    warehouse: Warehouse,
    workload=WORKLOAD,
    max_rows: int = 500_000,
) -> SystemEvaluation:
    """Run one system over the workload and score every statement."""
    evaluation = SystemEvaluation(system=system.name)
    for query in workload:
        answer = system.answer(query.text)
        golds = query.run_gold(warehouse.database) if answer.sqls else []
        best: PrecisionRecall | None = None
        for sql in answer.sqls[:8]:
            try:
                metrics = evaluate_sql(
                    warehouse.database, sql, golds, max_rows=max_rows
                )
            except ReproError:
                continue
            if best is None or (metrics.precision, metrics.recall) > (
                best.precision, best.recall
            ):
                best = metrics
        evaluation.per_query[query.qid] = QueryEvaluation(
            qid=query.qid,
            answered=answer.answered,
            best=best,
            caveat=answer.caveat,
            note=answer.note,
        )
    return evaluation


def soda_evaluation(outcomes) -> SystemEvaluation:
    """Wrap SODA's experiment outcomes in the same evaluation shape."""
    evaluation = SystemEvaluation(system="SODA")
    for outcome in outcomes:
        best = outcome.best if outcome.statements else None
        evaluation.per_query[outcome.query.qid] = QueryEvaluation(
            qid=outcome.query.qid,
            answered=outcome.n_results > 0,
            best=best,
            caveat=None,
            note="",
        )
    return evaluation


def capability_matrix(evaluations: list, workload=WORKLOAD) -> dict:
    """(type_tag, system) -> measured mark."""
    matrix: dict = {}
    for evaluation in evaluations:
        for __, tag in QUERY_TYPE_ROWS:
            matrix[(tag, evaluation.system)] = evaluation.mark(tag, workload)
    return matrix


def format_table5(matrix: dict, systems: list) -> str:
    """Render measured marks with the paper's marks in parentheses."""
    headers = ["Query type"] + [s for s in systems]
    rows = []
    for label, tag in QUERY_TYPE_ROWS:
        row = [label]
        for system in systems:
            measured = matrix.get((tag, system), "-")
            paper = PAPER_TABLE5.get((tag, system), "-")
            row.append(f"{measured} [paper {paper}]")
        rows.append(row)
    return format_rows(headers, rows)
