"""Golden numbers of the paper's experiment: Tables 1, 3, 4 and 5.

``data/experiment_golden.json`` records what the experiment reports:

* per workload query (Tables 3 and 4, seed 42, scale 1.0): the
  statement count, the complexity, the best precision / recall, the
  rank where that best is first reached and that statement's SQL, plus
  every statement's ``PrecisionRecall`` in rank order and a digest of
  the ranked SQL texts;
* Table 5: each baseline's marks and per-query best precision / recall
  on the ``small_warehouse`` (seed 42, scale 0.25), and SODA's marks
  from the Table 3 run;
* Table 1: the schema counts of the paper-scale synthetic definition
  and of the finbank.

A change in lookup, ranking, the tables or filters step, SQL generation
or the scorer that moves any of these shows up here.

Re-record only for an intended change of answers::

    PYTHONPATH=src python tests/experiments/test_experiment_golden.py --record
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.baselines.capabilities import (
    QUERY_TYPE_ROWS,
    capability_matrix,
    soda_evaluation,
)
from repro.warehouse.synthetic import SyntheticConfig, generate_definition

GOLDEN = Path(__file__).parent / "data" / "experiment_golden.json"


def _query_entry(outcome) -> dict:
    metrics = [statement.metrics for statement in outcome.statements]
    best = outcome.best
    rank = next(
        (index for index, m in enumerate(metrics, start=1)
         if (m.precision, m.recall) == (best.precision, best.recall)),
        None,
    )
    sqls = [statement.sql for statement in outcome.statements]
    return {
        "qid": outcome.query.qid,
        "statements": len(sqls),
        "complexity": outcome.complexity,
        "best_precision": best.precision,
        "best_recall": best.recall,
        "best_rank": rank,
        "best_sql": sqls[rank - 1] if rank else None,
        "scores": [
            [m.precision, m.recall, m.soda_rows, m.gold_rows] for m in metrics
        ],
        "sqls_sha256": hashlib.sha256("\n".join(sqls).encode()).hexdigest(),
    }


def _marks(evaluations) -> dict:
    matrix = capability_matrix(evaluations)
    return {
        evaluation.system: {
            tag: matrix[(tag, evaluation.system)] for __, tag in QUERY_TYPE_ROWS
        }
        for evaluation in evaluations
    }


def snapshot(outcomes, baseline_evaluations, finbank) -> dict:
    """The golden's content, from the runs tier-1 already makes."""
    return {
        "queries": [_query_entry(outcome) for outcome in outcomes],
        "table5_marks": _marks(
            list(baseline_evaluations) + [soda_evaluation(outcomes)]
        ),
        "table5_best": {
            evaluation.system: {
                qid: None if e.best is None
                else [e.best.precision, e.best.recall]
                for qid, e in evaluation.per_query.items()
            }
            for evaluation in baseline_evaluations
        },
        "table1": {
            "paper_scale": generate_definition(
                SyntheticConfig()
            ).schema_statistics(),
            "finbank": finbank.definition.schema_statistics(),
        },
    }


def digest(content: dict) -> str:
    return hashlib.sha256(
        json.dumps(content, sort_keys=True).encode()
    ).hexdigest()


def compute() -> dict:
    """Build both warehouses and run the experiment from scratch."""
    from repro.baselines.capabilities import default_systems, evaluate_system
    from repro.experiments.runner import ExperimentRunner
    from repro.warehouse.minibank import build_minibank

    finbank = build_minibank(seed=42, scale=1.0)
    small = build_minibank(seed=42, scale=0.25)
    outcomes = ExperimentRunner(warehouse=finbank).run_all()
    baselines = [evaluate_system(s, small) for s in default_systems(small)]
    return snapshot(outcomes, baselines, finbank)


def test_experiment_matches_golden(
    experiment_outcomes, baseline_evaluations, warehouse
):
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(
        snapshot(experiment_outcomes, baseline_evaluations, warehouse)
    ))
    changed = [
        want["qid"]
        for got, want in zip(actual["queries"], expected["queries"])
        if got != want
    ]
    assert not changed, f"workload queries changed: {changed}"
    assert actual == expected


def test_digest_stable_across_hash_seeds():
    # set iteration order must not leak into any recorded number: two
    # fresh interpreters with different hash seeds reproduce the golden
    expected = digest(json.loads(GOLDEN.read_text()))
    root = Path(__file__).resolve().parents[2]
    processes = [
        subprocess.Popen(
            [sys.executable, __file__, "--digest"],
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(root / "src")},
            stdout=subprocess.PIPE, text=True,
        )
        for seed in ("0", "12345")
    ]
    digests = [process.communicate(timeout=300)[0].strip()
               for process in processes]
    assert digests == [expected, expected]


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        print(digest(compute()))
    elif sys.argv[1:] == ["--record"]:
        content = compute()
        GOLDEN.parent.mkdir(exist_ok=True)
        lines = [
            f'  "{key}": {json.dumps(content[key], sort_keys=True)}'
            for key in ("table1", "table5_best", "table5_marks")
        ]
        queries = ",\n".join(
            "    " + json.dumps(query, sort_keys=True)
            for query in content["queries"]
        )
        GOLDEN.write_text(  # one query per line
            "{\n" + f'  "queries": [\n{queries}\n  ],\n'
            + ",\n".join(lines) + "\n}\n"
        )
    else:
        sys.exit(__doc__)
