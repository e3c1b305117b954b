"""Smoke test of the perf ledger: every workload at ~1/100 size.

Runs the same command the benchmark driver runs (``run.py --workload
... --trace 0|1``) with ``--smoke``; every request sequence has a fixed
length, so every count repeats exactly.  Nothing here asserts a speed.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: counts that must not differ between two runs of the same inputs
EXACT = ("core.statements_per_search", "core.answered_share",
         "core.result_cache_hit_ratio", "index.postings", "graph.triples",
         "sqlengine.plan_cache_invalidations", "trace.spans")


def run_ledger(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "21", "--seed", "7",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    stamp = next(line for line in lines if line.startswith("stamp "))
    return {"first_line": lines[0], "stamp": json.loads(stamp[6:]),
            "result": json.loads(lines[-1])}


def run_three(workload: str) -> dict:
    """One untraced and two traced runs (the same workload's runs share
    log and trace files, so they run one after the other)."""
    return {"untraced": run_ledger(workload, 0),
            "traced": [run_ledger(workload, 1), run_ledger(workload, 1)]}


@pytest.fixture(scope="module")
def runs():
    with ThreadPoolExecutor(max_workers=len(WORKLOADS)) as pool:
        return dict(zip(WORKLOADS, pool.map(run_three, WORKLOADS)))


def test_benchmark_json_names_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload):
    for section, run in (("end_to_end", runs[workload]["untraced"]),
                         ("per_layer", runs[workload]["traced"][0])):
        result = run["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    assert runs[workload]["untraced"]["first_line"] == f"{workload}: {why}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]["traced"]
    assert first["stamp"]["sequence_digest"] == second["stamp"]["sequence_digest"]
    assert first["result"]["attempted"] == second["result"]["attempted"]
    for name in EXACT:
        assert (first["result"]["metrics"][name]["value"]
                == second["result"]["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_children_fit_inside_their_parent_span(runs, workload):
    spans = [
        json.loads(line)
        for line in (HERE / "out" / f"trace_{workload}.jsonl").read_text()
        .splitlines()
    ]
    assert len(spans) == runs[workload]["traced"][1]["result"]["metrics"][
        "trace.spans"]["value"]
    children = defaultdict(float)
    for span in spans:
        assert {"id", "parent", "name", "layer", "start", "end"} <= set(span)
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    assert children, "no nested spans recorded"
    for span in spans:
        duration = span["end"] - span["start"]
        # self time + children = the span, to 1 %: children never cover
        # more than their parent
        assert children[span["id"]] <= duration * 1.01 + 1e-6, span


def session_members(session: int) -> list:
    """``(pid, command line)`` of every live process in *session*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            command = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue  # it ended while we looked
        # pid (comm) state ppid pgrp session ...; comm may hold spaces
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append((int(entry), command.replace(b"\0", b" ").decode()))
    return members


def wait_for(condition, seconds: float):
    deadline = time.monotonic() + seconds
    while not (found := condition()) and time.monotonic() < deadline:
        time.sleep(0.05)
    return found


def test_sigterm_to_the_full_command_leaves_no_process_behind():
    """The full command is three processes deep (run.py -> run.py
    --workload -> ``repro serve`` + spinners); SIGTERM to the top one
    must stop them all.  Last, so that it shares ``out/`` with no other
    test's runs."""
    command = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--runs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        def server_and_spinners():
            lines = [line for __, line in session_members(command.pid)]
            return (any(" serve " in line for line in lines)
                    and any("SCHED_IDLE" in line for line in lines))

        assert wait_for(server_and_spinners, 60), session_members(command.pid)
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=60) == 143
        wait_for(lambda: not session_members(command.pid), 10)
        assert session_members(command.pid) == []
    finally:
        for pid, __ in session_members(command.pid):
            os.kill(pid, signal.SIGKILL)
        command.wait()
