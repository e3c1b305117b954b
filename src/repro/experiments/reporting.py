"""Paper-style table formatting for experiment outcomes."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.workload import PAPER_TABLE3, PAPER_TABLE4, WORKLOAD


def format_rows(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width table rendering used by all benches."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in string_rows:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_table2() -> str:
    """Table 2: the experiment queries."""
    rows = [
        (query.qid, query.text, "".join(sorted(query.types)), query.comment[:60])
        for query in WORKLOAD
    ]
    return format_rows(("Q", "Keywords", "Types", "Comment"), rows)


def format_table3(outcomes: Sequence) -> str:
    """Table 3: precision/recall, with the paper's values alongside."""
    rows = []
    for outcome in outcomes:
        best = outcome.best
        paper = PAPER_TABLE3.get(outcome.query.qid)
        rows.append(
            (
                outcome.query.qid,
                f"{best.precision:.2f}",
                f"{best.recall:.2f}",
                outcome.n_positive,
                outcome.n_zero,
                f"{paper[0]:.2f}" if paper else "-",
                f"{paper[1]:.2f}" if paper else "-",
                paper[2] if paper else "-",
                paper[3] if paper else "-",
            )
        )
    return format_rows(
        (
            "Q", "P(best)", "R(best)", "#P,R>0", "#P,R=0",
            "paperP", "paperR", "paper>0", "paper=0",
        ),
        rows,
    )


def format_table4(outcomes: Sequence) -> str:
    """Table 4: complexity, result counts and runtimes (SODA's analysis,
    the generated statements' execution, their scoring)."""
    rows = []
    for outcome in outcomes:
        paper = PAPER_TABLE4.get(outcome.query.qid)
        rows.append(
            (
                outcome.query.qid,
                outcome.complexity,
                outcome.n_results,
                f"{outcome.soda_seconds:.3f}",
                f"{outcome.execute_seconds:.3f}",
                f"{outcome.eval_seconds:.3f}",
                paper[0] if paper else "-",
                paper[1] if paper else "-",
                f"{paper[2]:.2f}" if paper else "-",
                f"{paper[3]}min" if paper else "-",
            )
        )
    return format_rows(
        (
            "Q", "Cmplx", "#Res", "SODA(s)", "Exec(s)", "Eval(s)",
            "paperCmplx", "paper#Res", "paperSODA(s)", "paperTotal",
        ),
        rows,
    )


def format_table1(stats: dict, paper: dict | None = None) -> str:
    """Table 1: schema-graph complexity."""
    paper_defaults = {
        "conceptual_entities": 226,
        "conceptual_attributes": 985,
        "conceptual_relationships": 243,
        "logical_entities": 436,
        "logical_attributes": 2700,
        "logical_relationships": 254,
        "physical_tables": 472,
        "physical_columns": 3181,
    }
    paper = paper or paper_defaults
    rows = [
        (key, stats.get(key, "-"), paper.get(key, "-"))
        for key in paper_defaults
    ]
    return format_rows(("Type", "Cardinality", "Paper"), rows)
