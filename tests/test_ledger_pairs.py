"""``tools/ledger_pairs.py``: the arithmetic of the pairs report.

The runs themselves are the ledger's business (and take minutes); what
can silently go wrong here is the bookkeeping a perf claim is judged by —
which direction wins, that ties count for neither side, the quartiles.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ledger_pairs",
    Path(__file__).resolve().parents[1] / "tools" / "ledger_pairs.py",
)
ledger_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger_pairs)


def _run(**values) -> dict:
    metrics = {
        metric["name"]: {"value": 1.0, "unit": metric["unit"]}
        for metric in ledger_pairs.SPEC["end_to_end"]
    }
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": ""}
    return {"failed": 0, "attempted": 1, "metrics": metrics}


def _row(report: str, name: str) -> list:
    return next(
        line.split() for line in report.splitlines() if line.startswith(name)
    )


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    parent = [_run(op_p95_ms=100.0, ops_per_s=10.0) for __ in range(4)]
    change = [
        _run(op_p95_ms=50.0, ops_per_s=20.0),
        _run(op_p95_ms=60.0, ops_per_s=9.0),
        _run(op_p95_ms=100.0, ops_per_s=10.0),  # a tie on both
        _run(op_p95_ms=120.0, ops_per_s=30.0),
    ]
    report = ledger_pairs.report(parent, change)
    assert _row(report, "op_p95_ms")[-2] == "2/4"  # lower is better
    assert _row(report, "ops_per_s")[-2] == "2/4"  # higher is better
    assert _row(report, "setup_s")[-2] == "0/4"  # all ties


def test_ratio_has_the_parent_median_as_its_base():
    parent = [_run(op_p95_ms=v) for v in (100.0, 120.0, 110.0)]
    change = [_run(op_p95_ms=v) for v in (55.0, 50.0, 60.0)]
    row = _row(ledger_pairs.report(parent, change), "op_p95_ms")
    assert float(row[-3]) == pytest.approx(0.5)
    assert row[-1] == "yes"  # gap 55 > parent IQR 10


def test_quartiles_are_inclusive_and_survive_a_single_run():
    assert ledger_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert ledger_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
