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


def test_whole_run_rows_come_from_the_stamps_when_both_sides_have_them():
    def stamped(p50: float, windows: int) -> dict:
        run = _run()
        run["stamp"] = {"windows": windows, "whole_run": {"op_p50_ms": p50}}
        return run

    parent = [stamped(2.0, 12), stamped(4.0, 12)]
    change = [stamped(1.0, 7), stamped(2.0, 8)]
    report = ledger_pairs.report(parent, change)
    assert float(_row(report, "whole_run.op_p50_ms")[-1]) == pytest.approx(0.5)
    assert _row(report, "windows")[1] == "12"
    assert "whole_run.op_p95_ms" not in report  # not in these stamps
    # runs without a stamp (an older ledger on the parent side): no rows
    assert "whole_run" not in ledger_pairs.report([_run()], change)


def test_quartiles_are_inclusive_and_survive_a_single_run():
    assert ledger_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert ledger_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_several_workloads_are_accepted_in_order_without_repeats():
    args = ledger_pairs.parse_args([
        "--parent", "HEAD~1", "--pairs", "3", "--first-seed", "11",
        "--workload", "explore_http_rw", "engine_ingest_mix",
        "explore_http_rw",
    ])
    assert args.workload == ["explore_http_rw", "engine_ingest_mix"]
    assert (args.parent, args.pairs, args.first_seed) == ("HEAD~1", 3, 11)
    # what `make ledger-pairs WORKLOAD=name` passes
    single = ledger_pairs.parse_args(
        ["--parent", "HEAD~1", "--workload", "sqlgen_schema_cold"]
    )
    assert single.workload == ["sqlgen_schema_cold"]
    assert (single.pairs, single.first_seed) == (10, 1)


@pytest.mark.parametrize("argv", [
    ["--parent", "HEAD~1"],  # no workload
    ["--parent", "HEAD~1", "--workload"],
    ["--parent", "HEAD~1", "--workload", "explore_http_rw", "no_such"],
])
def test_missing_or_unknown_workloads_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        ledger_pairs.parse_args(argv)
    assert caught.value.code == 2
    assert "--workload" in capsys.readouterr().err


def test_layer_names_are_accepted_in_order_without_repeats():
    args = ledger_pairs.parse_args([
        "--parent", "HEAD~1", "--workload", "explore_http_rw",
        "--layer", "core.result_cache_hit_ratio", "core.lookup_ms",
        "core.result_cache_hit_ratio",
    ])
    assert args.layer == ["core.result_cache_hit_ratio", "core.lookup_ms"]
    # what `make ledger-pairs` passes when LAYER is not set
    assert ledger_pairs.parse_args(
        ["--parent", "HEAD~1", "--workload", "explore_http_rw"]
    ).layer == []


@pytest.mark.parametrize("argv", [
    ["--layer"],  # no name
    ["--layer", "core.no_such_metric"],
    ["--layer", "op_p50_ms"],  # end-to-end metrics are the pairs' business
])
def test_missing_or_unknown_layer_names_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        ledger_pairs.parse_args(
            ["--parent", "HEAD~1", "--workload", "explore_http_rw"] + argv
        )
    assert caught.value.code == 2
    assert "--layer" in capsys.readouterr().err


def test_layer_report_puts_both_sides_and_their_ratio_on_one_row():
    def traced(hit_ratio, invalidations):
        return {"failed": 0, "attempted": 1, "metrics": {
            "core.result_cache_hit_ratio": {"value": hit_ratio, "unit": "ratio"},
            "sqlengine.plan_cache_invalidations":
                {"value": invalidations, "unit": "count"},
            "core.lookup_ms": {"value": 9.9, "unit": "ms"},  # not asked for
        }}

    report = ledger_pairs.layer_report(
        traced(0.2, 0.0), traced(0.75, 217.0),
        ["core.result_cache_hit_ratio", "sqlengine.plan_cache_invalidations"],
    )
    assert report.splitlines()[0].split() == [
        "layer", "metric", "unit", "parent", "change", "change/parent",
    ]
    assert _row(report, "core.result_cache_hit_ratio") == [
        "core.result_cache_hit_ratio", "ratio", "0.2", "0.75", "3.750",
    ]
    # a zero base has no ratio; the counts are still printed
    assert _row(report, "sqlengine.plan_cache_invalidations") == [
        "sqlengine.plan_cache_invalidations", "count", "0", "217", "-",
    ]
    assert "core.lookup_ms" not in report
