"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{id, parent, name, layer, start, end}`` plus free-form
attributes; ``layer`` is the module under ``src/repro/`` the call went
into.  Spans stay in memory during a run and are written out once at the
end.  A span's *self time* is its duration minus its children's.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self) -> None:
        self.records: list = []
        self._open: list = []

    def add(self, name, layer, start, end, parent=None, **attrs) -> int:
        """Record a finished span (or one synthesised from reported times)."""
        span_id = len(self.records)
        self.records.append(
            {"id": span_id, "parent": parent, "name": name, "layer": layer,
             "start": start, "end": end, **attrs}
        )
        return span_id

    @contextmanager
    def span(self, name, layer, **attrs):
        """Time the enclosed call; nests under the enclosing ``span``."""
        parent = self._open[-1] if self._open else None
        span_id = self.add(name, layer, perf_counter(), None, parent, **attrs)
        self._open.append(span_id)
        try:
            yield self.records[span_id]
        finally:
            self._open.pop()
            self.records[span_id]["end"] = perf_counter()

    def self_times(self) -> dict:
        """``{span id: duration - sum of its children's durations}``."""
        own = {
            record["id"]: record["end"] - record["start"]
            for record in self.records
        }
        for record in self.records:
            if record["parent"] is not None:
                own[record["parent"]] -= record["end"] - record["start"]
        return own

    def durations(self, name) -> list:
        return [
            record["end"] - record["start"]
            for record in self.records
            if record["name"] == name
        ]

    def self_ms_by_layer(self) -> dict:
        own = self.self_times()
        totals: dict = defaultdict(float)
        for record in self.records:
            totals[record["layer"]] += own[record["id"]] * 1e3
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def p50(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def mean(samples) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def flatten_metrics(registry: dict) -> dict:
    """``{name: number}`` from the program's metrics registry dump
    (``/metrics``, ``Database.metrics()``); a histogram gives its sum."""
    flat = {}
    for name, metric in registry.items():
        value = metric["value"]
        if isinstance(value, dict):
            flat[name + ".sum"] = value["sum"]
        else:
            flat[name] = value
    return flat


def memo_hit_ratios(delta) -> dict:
    """The lookup and tables memo hit ratios from ``delta(counter name)``."""
    tables_hits = delta("tables.memo.expansion_hits") + delta("tables.memo.plan_hits")
    tables_misses = (
        delta("tables.memo.expansion_misses") + delta("tables.memo.plan_misses")
    )
    return {
        "core.lookup_memo_hit_ratio": ratio(
            delta("lookup.memo.hits"),
            delta("lookup.memo.hits") + delta("lookup.memo.misses"),
        ),
        "core.tables_memo_hit_ratio": ratio(
            tables_hits, tables_hits + tables_misses
        ),
    }


def time_windows(samples, start: float, width: float) -> list:
    """Slice ``(end time, read latency in ms or None)`` samples into the
    full *width*-second windows after *start*; the last, partial window
    is dropped (a run shorter than one window is one window).  A
    ``None`` latency is an operation that is not a read: it counts
    toward throughput only."""
    if not samples:
        return []
    span = max(end for end, __ in samples) - start
    full = int(span / width)
    if full == 0:
        full, width = 1, span
    windows = [{"reads_ms": [], "ops": 0} for __ in range(full)]
    for end, latency in samples:
        index = int((end - start) / width)
        if index < full:
            windows[index]["ops"] += 1
            if latency is not None:
                windows[index]["reads_ms"].append(latency)
    return [
        {"p50": p50(w["reads_ms"]), "p95": percentile(w["reads_ms"], 0.95),
         "ops_per_s": w["ops"] / width}
        for w in windows if w["reads_ms"]
    ]


def quiet_quartile(windows) -> dict:
    """The timing metrics of a run from its per-window values: the lower
    quartile over windows of each latency statistic, the upper quartile
    of throughput.

    Other tenants of the sandbox's host slow memory-bound work by up to
    2x for seconds at a time, during 10-50 % of a run; a statistic over
    the whole run, or the median over windows, moves with how much of
    the run was disturbed, the quartile on the quiet side does not until
    three quarters of it were.
    """
    return {
        "op_p50_ms": percentile([w["p50"] for w in windows], 0.25),
        "op_p95_ms": percentile([w["p95"] for w in windows], 0.25),
        "ops_per_s": percentile([w["ops_per_s"] for w in windows], 0.75),
    }


def best_of(repetitions) -> list:
    """Element-wise minimum over repetitions of one operation sequence
    (a repetition cut short, which fails the run, contributes the
    operations it reached).

    The in-process workloads repeat a fixed sequence of operations whose
    cost is a property of the operation; a disturbance only ever adds to
    it, so the least of a few repetitions is the undisturbed cost.
    """
    longest = max(len(latencies) for latencies in repetitions)
    return [
        min(latencies[i] for latencies in repetitions if len(latencies) > i)
        for i in range(longest)
    ]
