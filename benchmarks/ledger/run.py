"""The perf ledger: one command for every end-to-end and per-layer number.

    python benchmarks/ledger/run.py [--seed N] [--runs K]

runs the four workloads, each in a fresh process: K (3) untraced timed
runs for the end-to-end metrics, then a shorter traced run that times
the calls into each layer from the benchmark's side.  Every answer is
checked against ``golden/``; any failed or wrong answer makes the
command exit non-zero.  The result goes to ``out/result.json`` (see
``compare.py``).

    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

is one run of one workload; its last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(REPO / "src"))

import httpload  # noqa: E402
import inproc  # noqa: E402
import workloads  # noqa: E402
from golden import Checker  # noqa: E402
from spans import best_of, p50, percentile  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
HTTP_WORKLOADS = ("explore_http_ro", "explore_http_rw")
#: the traced pass of the full command runs this share of --seconds
TRACED_SHARE = 1 / 3
#: how long a terminated run's child gets to stop what it started
UNWIND_TIMEOUT_S = 30.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="sets the length of every fixed request "
                             "sequence: a run measures for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (full command); "
                             "compare.py resolves nothing with fewer than 3")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/100 size, for the smoke test")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared(trace: int) -> dict:
    """``{metric name: unit}`` this kind of run must print."""
    return {
        metric["name"]: metric["unit"]
        for metric in SPEC["per_layer" if trace else "end_to_end"]
    }


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def spawn(args, trace=None, seconds=None, child=False) -> tuple:
    """Run this script in a fresh process for ``args.workload``;
    ``(exit code, its output lines)``."""
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds if seconds is None else seconds),
            "--trace", str(args.trace if trace is None else trace)]
    if args.smoke:
        argv.append("--smoke")
    if args.record_golden:
        argv.append("--record-golden")
    if child:
        argv.append("--child")
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=httpload.child_env(),
    )
    try:
        output, __ = process.communicate()
    except BaseException:
        # a terminated run: the child has a server, spinners or a data
        # directory of its own to stop or remove, so it must unwind too
        process.terminate()
        try:
            process.wait(timeout=UNWIND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        raise
    return process.returncode, output.strip().splitlines()


def run_in_process_child(args) -> None:
    """``--child``: one repetition of an in-process workload."""
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    checker = Checker(args.workload, "smoke" if args.smoke else "full",
                      args.record_golden)
    outcome = inproc.WORKLOADS[args.workload](
        args.seed, args.seconds, args.trace, sizes, OUT, checker,
    )
    checker.finish()
    print(json.dumps(outcome))


def run_in_process(args, sizes) -> tuple:
    """An in-process workload: one fresh child per repetition.

    Every repetition of an untraced run sets up and then runs the same
    fixed operation sequence; each operation counts with its least
    latency over the repetitions.
    """
    repetitions = 1 if args.trace or args.record_golden else sizes.repetitions
    outcomes = []
    for __ in range(repetitions):
        code, lines = spawn(args, child=True)
        if code != 0 or not lines:
            raise SystemExit(f"{args.workload}: child exited with {code}")
        outcomes.append(json.loads(lines[-1]))
    measured, attempted, failures, stamp = outcomes[-1]
    if args.trace or args.record_golden:
        return measured, attempted, failures, stamp
    raws = [outcome[0] for outcome in outcomes]
    reads = best_of([raw["reads_ms"] for raw in raws])
    writes = best_of([raw["writes_ms"] for raw in raws])
    stamp["repetitions"] = repetitions
    # no noise filter: every repetition's latencies as they were
    every_read = [ms for raw in raws for ms in raw["reads_ms"]]
    every_write = [ms for raw in raws for ms in raw["writes_ms"]]
    stamp["whole_run"] = {
        "op_p50_ms": p50(every_read),
        "op_p95_ms": percentile(every_read, 0.95),
        "ops_per_s": (len(every_read) + len(every_write))
        / (sum(every_read) + sum(every_write)) * 1e3,
    }
    return (
        {
            "setup_s": p50([raw["setup_s"] for raw in raws]),
            "op_p50_ms": p50(reads),
            "op_p95_ms": percentile(reads, 0.95),
            "ops_per_s": (len(reads) + len(writes))
            / (sum(reads) + sum(writes)) * 1e3,
            "peak_rss_mb": p50([raw["peak_rss_mb"] for raw in raws]),
        },
        sum(outcome[1] for outcome in outcomes),
        [line for outcome in outcomes for line in outcome[2]],
        stamp,
    )


def run_workload(args) -> dict:
    """One run; ``{"metrics", "attempted", "failures", "stamp"}``."""
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.workload in HTTP_WORKLOADS:
        # the minibank, and with it every answer, is the same at both
        # sizes, and the smoke pool is a prefix of the full one
        checker = Checker(args.workload, "full", args.record_golden)
        if args.record_golden:
            sizes = workloads.FULL
        metrics, attempted, failures, stamp = httpload.run(
            args.workload, args.seed, args.seconds, args.trace, sizes,
            OUT, checker,
        )
        checker.finish()
    else:
        metrics, attempted, failures, stamp = run_in_process(args, sizes)
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "stamp": stamp}


def report(args, outcome) -> dict:
    """Print one run's metrics by name and unit; the contract's last line."""
    units = declared(args.trace)
    measured = outcome["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace and set(units) - set(measured):
        raise SystemExit(
            f"end-to-end metrics not measured: {sorted(set(units) - set(measured))}"
        )
    failures = outcome["failures"]
    attempted = max(1, outcome["attempted"])
    print(f"{args.workload}: {workloads.WHY[args.workload]}")
    print(f"stamp {json.dumps(outcome['stamp'], sort_keys=True)}")
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(f"  {'failed_share':42} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    for name, value in outcome["stamp"].get("whole_run", {}).items():
        print(f"  {'whole_run.' + name:42} {value:.6g} {declared(0)[name]} "
              f"(no noise filter, no bound)")
    metrics = {}
    for name, unit in units.items():
        # a layer this workload does not exercise reports 0
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:42} {value:.6g} {unit}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return result


# ----------------------------------------------------------------------
# the full command
# ----------------------------------------------------------------------
def environment_stamp(args) -> dict:
    def git(*argv) -> str:
        try:
            return subprocess.run(
                ["git", *argv], cwd=REPO, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            ).stdout.strip()
        except OSError:
            return ""

    sha = git("rev-parse", "HEAD")
    if sha and git("status", "--porcelain"):
        sha += "-dirty"  # the tree that ran is not the commit's
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "size": "smoke" if args.smoke else "full",
    }


def run_all(args) -> int:
    """Every workload: --runs untraced runs, then one traced run."""
    result = {"environment": environment_stamp(args), "workloads": {}}
    correct = True
    for name in workloads.WORKLOADS:
        args.workload = name
        entry = {"end_to_end": {}, "per_layer": {}, "stamps": [],
                 "attempted": 0, "failed": 0}
        passes = [(0, args.seconds)] * args.runs
        passes.append((1, args.seconds * TRACED_SHARE))
        for trace, seconds in passes:
            code, lines = spawn(args, trace=trace, seconds=seconds)
            print("\n".join(lines[:-1]), flush=True)
            if not lines or not lines[-1].startswith("{"):
                print(f"{name}: run exited with {code} and no result")
                return 1
            run = json.loads(lines[-1])
            correct = correct and run["correct"] and code == 0
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            entry["stamps"] += [
                json.loads(line[6:]) for line in lines if line.startswith("stamp ")
            ]
            section = entry["per_layer" if trace else "end_to_end"]
            for metric, measured in run["metrics"].items():
                section.setdefault(
                    metric, {"unit": measured["unit"], "values": []}
                )["values"].append(measured["value"])
        untraced = statistics.median(entry["end_to_end"]["ops_per_s"]["values"])
        traced = entry["per_layer"]["trace.ops_per_s"]["values"][0]
        entry["trace_overhead_share"] = 1 - traced / untraced
        print(f"  {'trace_overhead_share':42} "
              f"{entry['trace_overhead_share']:.4g} ratio (traced "
              f"{traced:.4g} vs untraced {untraced:.4g} ops/s)\n")
        result["workloads"][name] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; traced spans in {OUT}/trace_<workload>.jsonl")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # a terminated run must still unwind and stop its server child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.child:
        run_in_process_child(args)
        return 0
    if args.workload is None and not args.record_golden:
        return run_all(args)
    if args.record_golden:
        for name in [args.workload] if args.workload else workloads.WORKLOADS:
            args.workload = name
            outcome = run_workload(args)
            print(f"{name}: recorded {outcome['attempted']} answers")
        return 0
    return 0 if report(args, run_workload(args))["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
