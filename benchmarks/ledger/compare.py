"""Compare two ledger result files, metric by metric, against the bounds.

    python benchmarks/ledger/compare.py A.json B.json

For every workload and end-to-end metric of ``BENCHMARK.json``: the
median of A's runs, the median of B's, the ratio B/A with its base, and
a verdict against the metric's bound —

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: a side made fewer than 3 runs (``run.py --runs K``),
  or the quartiles of a side's runs lie further apart than the bound, so
  a difference of that size cannot be told from noise;
* ``ok`` otherwise.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


#: one run on this sandbox differs from the next by more than most bounds
MIN_RUNS = 3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("inf")
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, base: list, other: list) -> str:
    a, b = statistics.median(base), statistics.median(other)
    worse_by = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if (
        min(len(base), len(other)) < MIN_RUNS
        or max(spread(base), spread(other)) > metric["bound"]
    ):
        return "unresolved"
    return "worse" if worse_by > metric["bound"] else "ok"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    for key in ("seed", "seconds", "size", "nproc", "python"):
        if a["environment"].get(key) != b["environment"].get(key):
            print(f"note: {key} differs: {a['environment'].get(key)} vs "
                  f"{b['environment'].get(key)}", file=out)
    def side(result: dict) -> str:
        sha, dirty, __ = result["environment"]["git_sha"].partition("-dirty")
        return f"{sha[:12]}{dirty} ({result['environment']['runs']} run(s))"

    print(f"A = {side(a)},  B = {side(b)}", file=out)
    worse = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload}: missing from B", file=out)
            continue
        digests = [
            {stamp["sequence_digest"] for stamp in entry["stamps"]}
            for entry in (entry_a, entry_b)
        ]
        if digests[0] != digests[1]:
            print(f"note: {workload}: the two sides ran different request "
                  f"sequences", file=out)
        print(workload, file=out)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            base = entry_a["end_to_end"][name]["values"]
            other = entry_b["end_to_end"][name]["values"]
            median_a, median_b = statistics.median(base), statistics.median(other)
            result = verdict(metric, base, other)
            worse += result == "worse"
            print(
                f"  {name:12} A {median_a:11.4f}  B {median_b:11.4f} "
                f"{metric['unit']:5} B/A {median_b / median_a:6.3f} "
                f"(base A = {median_a:.4g})  spread A {spread(base):.3f} "
                f"B {spread(other):.3f}  bound {metric['bound']:.2f} "
                f"{metric['better']:6} -> {result}",
                file=out,
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
