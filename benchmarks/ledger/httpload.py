"""The two HTTP workloads: a real ``repro serve`` child under a closed loop.

One load-generator process (this one) drives a ``python -m repro
--scale 1 serve --http-workers 2`` subprocess over keep-alive
connections, two in the timed run (= nproc of the sandbox), one in the
traced run.  Each connection sends its next request only after the
previous answer arrived.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, sleep
from urllib.parse import quote

import workloads
from spans import (
    Spans, flatten_metrics, memo_hit_ratios, p50, percentile, quiet_quartile,
    ratio, time_windows,
)

SRC = Path(__file__).resolve().parents[2] / "src"

STARTUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 120.0
#: an untraced run's timing metrics are computed per window of this length
WINDOW_S = 1.0
STEPS = ("lookup", "rank", "tables", "filters", "sql", "execute")


def child_env() -> dict:
    """Environment of every process under test: ``src`` importable, and a
    fixed hash seed so set/dict iteration order repeats between runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


_LIBC = ctypes.CDLL(None)
_PR_SET_PDEATHSIG = 1


def start_bound_child(argv, **popen_args) -> subprocess.Popen:
    """Start a child the kernel kills the moment this process dies.

    ``__exit__`` / ``finally`` stop the children of a run that unwinds,
    also after SIGTERM; this covers the harness being SIGKILLed (a
    caller's timeout), which nothing can unwind from.  Call it from the
    main thread, before the client threads exist.
    """
    parent = os.getpid()

    def die_with_parent() -> None:
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # it died before the prctl
            os._exit(1)

    return subprocess.Popen(argv, preexec_fn=die_with_parent, **popen_args)


SPINNER = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True: pass\n"
)


@contextmanager
def cpus_kept_awake():
    """Busy-loop children at SCHED_IDLE priority, one per CPU, for the
    duration of the block.

    A closed loop of short requests leaves each CPU idle between
    hand-offs, and on this virtualised host waking a halted CPU costs
    50-150 us, a figure that changes by the minute: the same server
    answered a cached search in 1.4 ms or in 1.8 ms for minutes on end.
    The spinners only run when a CPU would otherwise halt (any waking
    thread preempts them at once) and cut that swing in half.
    """
    spinners = []
    try:
        for __ in range(os.cpu_count() or 1):
            spinners.append(start_bound_child([sys.executable, "-c", SPINNER]))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


class ServerChild:
    """One ``repro serve`` subprocess; never outlives its ``with`` block."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.port = free_port()
        self.process = None
        self.startup_s = 0.0
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "ServerChild":
        started = perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = start_bound_child(
                [sys.executable, "-m", "repro", "--scale", "1", "serve",
                 "--port", str(self.port), "--http-workers", "2"],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
            )
        try:
            self._wait_healthy(started + STARTUP_TIMEOUT_S)
        except BaseException:
            self._kill()
            raise
        self.startup_s = perf_counter() - started
        return self

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"/healthz answered; see {self.log_path}"
                )
            try:
                connection = Connection(self.port)
                try:
                    status, __ = connection.send(("get", "/healthz"))
                finally:
                    connection.close()
                if status == 200:
                    return
            except OSError:
                pass
            if perf_counter() > deadline:
                raise RuntimeError(
                    f"/healthz not ok within {STARTUP_TIMEOUT_S:g}s; "
                    f"see {self.log_path}"
                )
            sleep(0.02)

    def _kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None or self.process.poll() is not None:
            code = self.process.poll()
            self._kill()
            if exc_type is None:
                raise RuntimeError(
                    f"server died during the run (exit {code}); "
                    f"see {self.log_path}"
                )
            return
        self.peak_rss_mb = self._vm_hwm_mb()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._kill()
            raise RuntimeError(
                f"server did not drain within {DRAIN_TIMEOUT_S:g}s of "
                f"SIGTERM; killed; see {self.log_path}"
            ) from None
        if code != 0:
            raise RuntimeError(
                f"server exited with {code} after SIGTERM; see {self.log_path}"
            )

    def _vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


class Connection:
    """One keep-alive client connection."""

    def __init__(self, port: int) -> None:
        self._http = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def send(self, request) -> tuple:
        """``(status, body)`` of a ``("search", text)``, ``("sql",
        statement)`` or ``("get", path)`` request."""
        kind, payload = request
        if kind == "search":
            self._http.request("GET", "/search?limit=3&q=" + quote(payload))
        elif kind == "sql":
            self._http.request("POST", "/sql", body=payload.encode())
        else:
            self._http.request("GET", payload)
        response = self._http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._http.close()


class Recorder:
    """What the load generator keeps of each request, and the golden check.

    A ``/search`` answer served from the server's result cache is
    byte-identical to the answer that filled the cache (it carries that
    computation's ``timings``), a computed one never is; so comparing a
    body with the last one seen for its text labels hit or miss, and
    only new bodies need parsing and checking.
    """

    def __init__(self, checker, with_rows: bool) -> None:
        self.checker = checker
        self.with_rows = with_rows
        self.records: list = []
        #: one line per failed request (appended from both client threads)
        self.failures: list = []
        self._last_body: dict = {}

    def note(self, request, start, end, status, body) -> None:
        kind, payload = request
        record = {"kind": kind, "start": start, "end": end,
                  "bytes": len(body), "hit": False}
        if status != 200:
            self.failures.append(f"{status} for {request}")
        elif kind == "search":
            if self._last_body.get(payload) == body:
                record["hit"] = True
            else:
                self._last_body[payload] = body
                answer = json.loads(body)
                record["timings"] = answer["timings"]
                record["statements"] = len(answer["statements"])
                record["rows"] = sum(
                    len(s["snippet"]["rows"])
                    for s in answer["statements"] if s["snippet"]
                )
                if not self.checker.check(
                    workloads.text_key(payload),
                    [
                        [s["sql"], s["execution_error"], s["snippet"]]
                        if self.with_rows else s["sql"]
                        for s in answer["statements"]
                    ],
                ):
                    self.failures.append(f"golden mismatch for {payload!r}")
        elif kind == "sql" and json.loads(body)["rowcount"] != 1:
            # every generated write touches exactly one row
            self.failures.append(f"rowcount != 1 for {payload!r}")
        self.records.append(record)

    def failure(self, request, start, error) -> None:
        """A request that got no answer (refused, reset, timed out)."""
        self.failures.append(f"{error!r} for {request}")
        self.records.append(
            {"kind": request[0], "start": start, "end": perf_counter(),
             "bytes": 0, "hit": False}
        )


def replay(port, sequence, recorder, deadline, stop=None) -> None:
    """Closed loop over one connection: *sequence* once, in order.

    Sets *stop* when it ends and ends early when another connection set
    it: the connections of a repetition load the server together or not
    at all (the last one alone would see an idle server).  *deadline* is
    a safety net; a sequence it cuts short is a failed run.
    """
    stop = stop or threading.Event()
    connection = Connection(port)
    try:
        for request in sequence:
            if stop.is_set():
                break
            start = perf_counter()
            if start >= deadline:
                recorder.failures.append(
                    f"sequence of {len(sequence)} requests cut short by "
                    f"the deadline at {request}"
                )
                break
            try:
                status, body = connection.send(request)
            except (OSError, http.client.HTTPException) as error:
                recorder.failure(request, start, error)
                connection.close()
                connection = Connection(port)
                continue
            recorder.note(request, start, perf_counter(), status, body)
    finally:
        stop.set()
        connection.close()


def metrics_snapshot(port) -> dict:
    connection = Connection(port)
    try:
        status, body = connection.send(("get", "/metrics"))
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return flatten_metrics(json.loads(body))


def run(workload, seed, seconds, trace, sizes, out_dir, checker):
    """One HTTP run; returns ``(metrics, attempted, failures, stamp)``.

    An untraced run is ``sizes.repetitions`` times: start a server, warm
    it with one pass over the pool, replay one fixed-length seeded
    sequence per connection (its length follows from *seconds*, see
    ``workloads.scaled``), stop the server.  A repetition ends when the
    first connection has sent its last request.  A traced run is one
    such repetition on one connection.
    """
    from repro.warehouse.minibank import build_minibank

    writes = workload == "explore_http_rw"
    vocabulary = build_minibank(seed=42, scale=1.0)
    pool = workloads.http_pool(vocabulary, sizes.http_pool)
    repetitions = 1 if trace or checker.recording else sizes.repetitions
    connections = 1 if trace else 2
    length = workloads.scaled(
        sizes.http_rw_requests if writes else sizes.http_ro_requests, seconds
    )

    spans = Spans()
    setups, peaks, windows, digests, failures = [], [], [], [], []
    search_ms: list = []
    attempted = 0
    loaded_s = 0.0
    for repetition in range(repetitions):
        sequences = workloads.http_requests(
            pool, seed, repetition, length, writes
        )[:connections]
        digests.append(workloads.sequence_digest(sequences))
        log_path = out_dir / f"server_{workload}_{repetition}.log"
        with ServerChild(log_path) as server, cpus_kept_awake():
            recorder = Recorder(checker, with_rows=not writes)
            warm_started = perf_counter()
            replay(server.port, [("search", t) for t in pool], recorder,
                   warm_started + REQUEST_TIMEOUT_S)
            warm_pass_s = perf_counter() - warm_started
            setups.append(server.startup_s + warm_pass_s)
            spans.add("serve:startup", "server",
                      warm_started - server.startup_s, warm_started)
            spans.add("serve:warm_pass", "server", warm_started,
                      warm_started + warm_pass_s)
            if checker.recording:
                return {}, len(recorder.records), recorder.failures, {}

            floor = Recorder(checker, with_rows=False)
            if trace:
                replay(server.port, [("get", "/healthz")] * sizes.floor_probes,
                       floor, perf_counter() + REQUEST_TIMEOUT_S)
                before = metrics_snapshot(server.port)
            recorder.records.clear()
            run_started = perf_counter()
            # sized to take a third of *seconds*; all of it is the limit
            deadline = run_started + seconds
            stop = threading.Event()
            with ThreadPoolExecutor(max_workers=connections) as clients:
                try:
                    for client in [
                        clients.submit(replay, server.port, sequence,
                                       recorder, deadline, stop)
                        for sequence in sequences
                    ]:
                        client.result()
                finally:
                    stop.set()  # an unwinding run does not finish its load
            loaded_s += perf_counter() - run_started
            after = metrics_snapshot(server.port) if trace else {}
        records = recorder.records
        peaks.append(server.peak_rss_mb)
        failures += recorder.failures
        attempted += len(records)
        search_ms += [
            (r["end"] - r["start"]) * 1e3
            for r in records if r["kind"] == "search"
        ]
        windows += time_windows(
            [
                (r["end"], (r["end"] - r["start"]) * 1e3
                 if r["kind"] == "search" else None)
                for r in records
            ],
            run_started, WINDOW_S,
        )

    stamp = {
        "sequence_digest": workloads.sequence_digest(digests),
        "pool": len(pool),
        "connections": connections,
        "repetitions": repetitions,
        "requests_per_connection": length,
        "requests": attempted,
        "searches": len(search_ms),
        "windows": len(windows),
        # no noise filter: a stall the quiet quartile hides shows here
        "whole_run": {
            "op_p50_ms": p50(search_ms),
            "op_p95_ms": percentile(search_ms, 0.95),
            "ops_per_s": ratio(attempted, loaded_s),
        },
    }
    if not trace:
        return {
            "setup_s": p50(setups),
            **quiet_quartile(windows),
            "peak_rss_mb": p50(peaks),
        }, attempted, failures, stamp

    metrics = layer_metrics(records, floor.records, before, after, spans)
    metrics.update({
        "server.startup_s": server.startup_s,
        "server.warm_pass_s": warm_pass_s,
        "index.postings": vocabulary.inverted.entry_count(),
        "graph.triples": len(vocabulary.graph),
        "trace.spans": len(spans.records),
        "trace.ops_per_s": quiet_quartile(windows)["ops_per_s"],
    })
    spans.write(out_dir / f"trace_{workload}.jsonl")
    stamp["self_ms_by_layer"] = spans.self_ms_by_layer()
    return metrics, attempted, failures, stamp


def layer_metrics(records, floor_records, before, after, spans) -> dict:
    """The per-layer metrics of one traced repetition, and its spans.

    *before* / *after* are ``/metrics`` snapshots around the timed
    requests *records*; *floor_records* are the ``GET /healthz`` probes.
    """
    searches = [r for r in records if r["kind"] == "search"]
    latency_ms = [(r["end"] - r["start"]) * 1e3 for r in searches]

    def ms(selected) -> list:
        return [(r["end"] - r["start"]) * 1e3 for r in selected]

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    hits = [r for r in searches if r["hit"]]
    misses = [r for r in searches if "timings" in r]
    sql_writes = [r for r in records if r["kind"] == "sql"]
    for record in floor_records:
        spans.add("GET /healthz", "server", record["start"], record["end"])
    for record in records:
        name = "POST /sql" if record["kind"] == "sql" else "GET /search"
        parent = spans.add(name, "server", record["start"], record["end"],
                           hit=record["hit"])
        cursor = record["start"]
        for step in STEPS if "timings" in record else ():
            spans.add("step:" + step, "core", cursor,
                      cursor + record["timings"][step], parent)
            cursor += record["timings"][step]

    computed = max(1, len(misses))
    step_ms = {
        step: sum(r["timings"][step] for r in misses) * 1e3 / computed
        for step in STEPS
    }
    pipeline_searches = delta("pipeline.searches")
    step_sum = sum(
        delta(f"pipeline.step.{name}.seconds.sum")
        for name in ("lookup", "rank", "tables", "filters", "sqlgen", "execute")
    )
    return {
        "server.http_floor_p50_ms": p50(ms(floor_records)),
        "server.search_hit_p50_ms": p50(ms(hits)),
        "server.search_miss_p50_ms": p50(ms(misses)),
        "server.miss_overhead_p50_ms": p50([
            (r["end"] - r["start"] - r["timings"]["total"]) * 1e3
            for r in misses
        ]),
        "server.response_bytes_p50": p50([r["bytes"] for r in searches]),
        "server.search_p99_ms": percentile(latency_ms, 0.99),
        "server.sql_write_p50_ms": p50(ms(sql_writes)),
        "write_p50_ms": p50(ms(sql_writes)),
        "resilience.admission_wait_ms_sum":
            delta("serving.admission.queue_wait.seconds.sum") * 1e3,
        "resilience.shed_count": delta("serving.admission.shed"),
        "resilience.deadline_503_count": delta("serving.deadline_exceeded"),
        "core.result_cache_hit_ratio": ratio(
            delta("serving.result_cache.hits"),
            delta("serving.result_cache.hits")
            + delta("serving.result_cache.misses"),
        ),
        "core.lookup_ms": step_ms["lookup"],
        "core.rank_ms": step_ms["rank"],
        "core.tables_ms": step_ms["tables"],
        "core.filters_ms": step_ms["filters"],
        "core.sqlgen_ms": step_ms["sql"],
        "core.execute_ms": step_ms["execute"],
        "core.unattributed_ms": ratio(
            (delta("pipeline.search.seconds.sum") - step_sum) * 1e3,
            pipeline_searches,
        ),
        **memo_hit_ratios(delta),
        "core.statements_per_search":
            sum(r["statements"] for r in misses) / computed,
        "core.answered_share":
            sum(1 for r in misses if r["statements"]) / computed,
        "index.maintainer_ops": sum(
            delta(f"index.maintainer.{kind}")
            for kind in ("inserts", "updates", "deletes", "ddl")
        ),
        "sqlengine.plan_cache_hit_ratio": ratio(
            delta("plan_cache.hits"),
            delta("plan_cache.hits") + delta("plan_cache.misses"),
        ),
        "sqlengine.plan_cache_invalidations": delta("plan_cache.invalidations"),
        "sqlengine.plan_cache_evictions": delta("plan_cache.evictions"),
        "sqlengine.rows_scanned_per_row_returned": ratio(
            delta("engine.rows_scanned"), sum(r["rows"] for r in misses)
        ),
    }
