"""Alternating parent/change runs of perf-ledger workloads.

The procedure a perf claim has to follow (``choosing-metrics`` section 8):
materialise the parent revision in a temporary directory, then run ::

    benchmarks/ledger/run.py --workload W --seed i --seconds 21 --trace 0

once from the parent's checkout and once from this one for every seed
``i``, alternating which side goes first, and report per end-to-end
metric both medians with their quartiles, change/parent (the parent
median is the base), and how many pairs the change won (ties count for
neither side), followed by the same timings over each run as a whole
and the number of timed windows, from the runs' stamps (the end-to-end
timings are noise-filtered; a side that finishes sooner is filtered over
fewer windows).  Several workloads (``--workload A B C``) are compared
one after the other over the same unpacked parent, one table each, so
the row a claim rests on and the rows that must not move come from one
invocation.  Each side runs *its own* copy of the ledger; this script
only calls it and reads the last output line, so nothing under
``benchmarks/ledger/`` is touched and no golden is re-recorded.

``--layer NAME [NAME ...]`` adds the attribution step: after a
workload's pairs, one *traced* run per side on the first seed
(``--trace 1``), and the named per-layer metrics of ``BENCHMARK.json``
printed side by side.  One traced run has no noise filter — read counts
and ratios from it, and timings only against the spread of a second
traced run of the same side.

The parent is unpacked with ``git archive`` rather than ``git worktree``:
a worktree registers itself in ``.git/`` and a killed run leaves that
registration behind, an unpacked archive leaves nothing once its
directory is gone.  The directory is created under ``$TMPDIR``.

Each side gets its own, initially empty bytecode cache
(``PYTHONPYCACHEPREFIX``).  A working tree that has ``__pycache__``
directories next to a freshly unpacked parent that has none is not a
fair pair: compiling every module at import cost the cache-less side
+3 MiB of ``peak_rss_mb`` and ~0.1 s of ``setup_s`` when this was
found.

Usage::

    python tools/ledger_pairs.py --parent HEAD~1 --workload engine_ingest_mix
    make ledger-pairs PARENT=HEAD~1 WORKLOAD=engine_ingest_mix PAIRS=10
    make ledger-pairs PARENT=HEAD~1 WORKLOAD="explore_http_rw engine_ingest_mix"
    make ledger-pairs PARENT=HEAD~1 WORKLOAD=explore_http_rw \
        LAYER="core.result_cache_hit_ratio core.lookup_memo_hit_ratio"
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def unpack_revision(revision: str, target: Path) -> None:
    """The committed files of *revision*, unpacked into *target*."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=REPO, check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def run_ledger(
    checkout: Path, pycache: Path, workload: str, seed: int, seconds: float,
    trace: int = 0,
) -> dict:
    """The last output line of one ledger run from *checkout*."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    completed = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=checkout, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"{checkout}: ledger printed nothing (exit "
            f"{completed.returncode})\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    # the run's stamp: timed windows and the unfiltered whole-run figures
    for line in lines:
        if line.startswith("stamp "):
            result["stamp"] = json.loads(line[6:])
    return result


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(parent_runs: list, change_runs: list) -> str:
    lines = [
        f"{'metric':<13} {'unit':<5} {'parent median [q1, q3]':<32} "
        f"{'change median [q1, q3]':<32} {'change/parent':>13}  won  gap>IQR"
    ]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        lower = metric["better"] == "lower"
        won = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        p_q1, p_median, p_q3 = quartiles(parent)
        c_q1, c_median, c_q3 = quartiles(change)
        ratio = c_median / p_median if p_median else float("nan")
        gap = abs(c_median - p_median) > (p_q3 - p_q1)
        lines.append(
            f"{name:<13} {metric['unit']:<5} "
            f"{f'{p_median:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<32} "
            f"{f'{c_median:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<32} "
            f"{ratio:>13.3f}  {won}/{len(parent)}  {'yes' if gap else 'no'}"
        )
    return "\n".join(lines + whole_run_rows(parent_runs, change_runs))


def whole_run_rows(parent_runs: list, change_runs: list) -> list:
    """What the quiet-quartile metrics above rest on, from the runs' stamps.

    An HTTP run's timing metrics come from its quietest 1-second
    windows; a side that finishes the fixed request sequence sooner has
    fewer windows to choose from.  These rows show the window count and
    the same timings over the *whole* run (no noise filter, no bound),
    so a gain that exists only in the filter is visible as such.
    """
    def stamped(runs: list, *path) -> list:
        values = []
        for run in runs:
            value = run.get("stamp", {})
            for key in path:
                value = value.get(key) if isinstance(value, dict) else None
            if value is not None:
                values.append(value)
        return values

    rows = []
    for label, path in [("windows", ("windows",))] + [
        ("whole_run." + name, ("whole_run", name))
        for name in ("op_p50_ms", "op_p95_ms", "ops_per_s")
    ]:
        parent, change = stamped(parent_runs, *path), stamped(change_runs, *path)
        if not parent or not change:
            continue
        p_q1, p_median, p_q3 = quartiles(parent)
        c_q1, c_median, c_q3 = quartiles(change)
        ratio = c_median / p_median if p_median else float("nan")
        rows.append(
            f"{label:<19} "
            f"{f'{p_median:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<32} "
            f"{f'{c_median:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<32} "
            f"{ratio:>13.3f}"
        )
    return rows


def layer_report(parent_run: dict, change_run: dict, names: list) -> str:
    """The named per-layer metrics of one traced run per side, side by side."""
    lines = [f"{'layer metric':<40} {'unit':<6} {'parent':>12} {'change':>12} "
             f"{'change/parent':>13}"]
    for name in names:
        parent = parent_run["metrics"][name]
        change = change_run["metrics"][name]["value"]
        base = parent["value"]
        ratio = f"{change / base:.3f}" if base else "-"
        lines.append(f"{name:<40} {parent['unit']:<6} {base:>12.4g} "
                     f"{change:>12.4g} {ratio:>13}")
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="revision to compare this checkout against")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="one or more workloads, compared one after "
                             "the other against the same unpacked parent")
    parser.add_argument("--layer", nargs="+", default=[], metavar="NAME",
                        choices=[m["name"] for m in SPEC["per_layer"]],
                        help="per-layer metrics to print side by side from "
                             "one traced run per side (first seed), after "
                             "each workload's pairs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pairs use seeds first-seed .. first-seed+pairs-1")
    args = parser.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload))
    args.layer = list(dict.fromkeys(args.layer))
    return args


def compare_workload(
    workload: str, args: argparse.Namespace, scratch: Path
) -> bool:
    """Run and report one workload's pairs; True unless the change fails more."""
    seconds = SPEC["run_seconds"]
    checkouts = {"parent": scratch / "parent", "change": REPO}

    def run(label: str, seed: int, trace: int = 0) -> dict:
        return run_ledger(checkouts[label], scratch / ("pycache-" + label),
                          workload, seed, seconds, trace)

    runs = {label: [] for label in checkouts}
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for label in reversed(checkouts) if pair % 2 else checkouts:
            result = run(label, seed)
            runs[label].append(result)
            shown = "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in SPEC["end_to_end"]
            )
            print(f"{workload} seed {seed} {label:<6} "
                  f"failed={result['failed']}/{result['attempted']}  {shown}",
                  flush=True)
    failed = {
        label: sum(result["failed"] for result in runs[label])
        for label in checkouts
    }
    print(f"\n{workload}: {args.pairs} alternating pairs, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}, "
          f"--seconds {seconds:g} --trace 0, parent = {args.parent}; "
          f"failed operations: parent {failed['parent']}, "
          f"change {failed['change']}")
    print(report(runs["parent"], runs["change"]) + "\n", flush=True)
    if args.layer:
        traced = {label: run(label, args.first_seed, trace=1)
                  for label in checkouts}
        for label, result in traced.items():
            failed[label] += result["failed"]
        print(f"{workload}: one traced run per side, seed {args.first_seed}; "
              f"failed operations: parent {traced['parent']['failed']}, "
              f"change {traced['change']['failed']}")
        print(layer_report(traced["parent"], traced["change"], args.layer)
              + "\n", flush=True)
    return failed["change"] <= failed["parent"]


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as scratch:
        unpack_revision(args.parent, Path(scratch, "parent"))
        # a list, not a generator: every workload runs whatever the others did
        passed = [
            compare_workload(workload, args, Path(scratch))
            for workload in args.workload
        ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
