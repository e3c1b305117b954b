"""The asyncio serving front end: JSON-over-HTTP search for one `Soda`.

``repro serve`` answers the paper's deployment setting — SODA inside
the bank serving "heavy traffic" of interactive keyword searches —
with a deliberately dependency-free HTTP/1.1 server:

* ``GET/POST /search`` — run a search (``q``/``query``, ``limit``,
  ``execute``, ``trace``, ``timeout_ms`` parameters), returning the
  stable :meth:`~repro.core.pipeline.SearchResult.to_dict` wire shape;
* ``POST /sql`` — execute one SQL statement (body = the statement),
  returning columns/rows/rowcount;
* ``GET /metrics`` — the process metrics registry (``?format=
  prometheus`` for text exposition);
* ``GET /healthz`` — liveness, resilience state (``ok`` | ``degraded``
  | ``open``) and engine configuration.

The asyncio event loop parses requests, shuttles bytes and answers
result-cache hits: after the breaker gate it validates the ``/search``
parameters and probes the engine-wide result cache once
(:meth:`~repro.core.serving.SearchSession.cached`), and a valid entry is
written back as the wire bytes stored on it
(:meth:`~repro.core.pipeline.SearchResult.to_wire`) — no admission slot,
no deadline, no thread hop.  That is safe on the loop because stamp
validation takes no lock (``DependencyStamp.valid`` reads version
counters) and ``ResultCache._lock``, the one lock the probe does take,
is never held across a compute.  Every engine call — a search the cache
cannot answer, a traced search, every ``/sql`` — runs on a thread pool
(``workers`` threads), which is exactly what the concurrent storage
layer is for: SELECTs and searches pin frozen-segment snapshots and
proceed without blocking, and DML statements serialize on one writer
lock so the single-writer storage model holds.  A 200 from ``/search``
or ``/sql`` carries a ``Server-Timing`` header (``read``, ``admit``,
``engine`` in ms, ``cache;desc=hit|miss``): a cached body repeats the
``timings`` of the search that computed it, so what *this* request cost
cannot live in the body.

Resilience (PR 10) — the server degrades instead of falling over:

* **request deadlines** — ``?timeout_ms=`` (or the engine's
  ``EngineConfig(request_timeout_ms=)`` default) budgets each request,
  including its queue wait; the engine cancels cooperatively at
  pipeline and batch boundaries and the client gets a structured
  503 (``kind: deadline_exceeded``) while the engine stays consistent;
* **admission control + load shedding** — at most ``max_inflight``
  engine calls run at once, at most ``queue_depth`` wait (for at most
  ``queue_timeout_ms``); everything beyond that is shed immediately
  with 429 + ``Retry-After`` instead of queueing unboundedly;
* **circuit breaker** — consecutive engine failures trip fast-fail
  503s (``kind: circuit_open``) for a cooldown, then half-open probes
  feel the engine out; state shows in ``/healthz`` and
  ``serving.breaker.*`` metrics;
* **per-connection limits** — request line / header / body sizes are
  bounded (413) and each request is read under one ``read_timeout_s``
  scope, from waiting for its first byte to the end of its body (408),
  so a stalled (slowloris) client cannot hold a connection slot
  forever, however slowly it dribbles;
* **graceful drain** — ``stop()`` / SIGTERM stops accepting, lets
  in-flight requests finish up to ``drain_timeout_s``, then cancels
  cooperatively; ``stop()`` is idempotent and thread-safe;
* **snapshot on drain** — with ``snapshot_path``, ``stop()`` saves the
  warm index snapshot once, after the serving thread has joined and
  under the writer lock, so the saved fingerprint, content digest and
  inverted index all describe one state of the catalog.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

from repro.core.pipeline import _json_value
from repro.core.serving import SearchSession
from repro.core.soda import Soda
from repro.errors import SqlError
from repro.obs.metrics import registry as _metrics_registry
from repro.resilience.admission import AdmissionController, LoadShedError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    deadline_scope,
)
from repro.sqlengine.ast_nodes import Select, Union
from repro.sqlengine.parser import parse_sql

__all__ = ["SodaServer"]

#: request bodies larger than this are rejected with 413 (a service
#: guard, not a protocol limit)
MAX_BODY_BYTES = 1 << 20

#: the request line is bounded separately (long URLs are client bugs)
MAX_REQUEST_LINE_BYTES = 8192

#: total header bytes / header count a request may carry
MAX_HEADER_BYTES = 16384
MAX_HEADER_COUNT = 100

_METRICS = _metrics_registry()
_HTTP_REQUESTS = _METRICS.counter("serving.http.requests")
_HTTP_ERRORS = _METRICS.counter("serving.http.errors")
_HTTP_SECONDS = _METRICS.histogram("serving.http.seconds")
_DEADLINES_EXCEEDED = _METRICS.counter("serving.deadline_exceeded")
_READ_TIMEOUTS = _METRICS.counter("serving.read_timeouts")
_OVERSIZE_REJECTED = _METRICS.counter("serving.oversize_rejected")
#: ``/search`` requests answered on the event loop from a cached
#: result's wire bytes / handed to admission and the worker pool; each
#: validated ``/search`` request is one or the other
_LOOP_HITS = _METRICS.counter("serving.search.loop_hits")
_POOL_CALLS = _METRICS.counter("serving.search.pool_calls")

_TRUE_WORDS = ("1", "true", "yes", "on")


class _HttpError(Exception):
    """An error that maps onto one HTTP status + structured JSON body.

    ``kind`` is the machine-readable failure class carried in the body
    (the human text stays in ``error``); ``retry_after_s`` adds a
    ``Retry-After`` header; ``extra`` merges additional body fields.
    """

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "bad_request",
        retry_after_s: "float | None" = None,
        extra: "dict | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after_s = retry_after_s
        self.extra = extra or {}

    def payload(self) -> dict:
        body = {"error": str(self), "kind": self.kind}
        body.update(self.extra)
        return body

    def headers(self) -> dict:
        if self.retry_after_s is None:
            return {}
        return {"Retry-After": f"{max(0.0, self.retry_after_s):.0f}" or "0"}


class SodaServer:
    """Serve one warm `Soda` engine over HTTP (asyncio front end).

    ``port=0`` binds an ephemeral port; :attr:`port` reports the real
    one once the server is listening.  ``workers`` bounds the engine
    thread pool; ``max_inflight`` (default: ``workers``) bounds the
    engine calls admitted at once, ``queue_depth``/``queue_timeout_ms``
    the bounded admission queue behind them.  Use :meth:`run` to serve
    blocking (the CLI), or :meth:`start_background` / :meth:`stop` from
    tests and benchmarks.
    """

    def __init__(
        self,
        soda: Soda,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        default_limit: "int | None" = 5,
        request_timeout_ms: "float | None" = None,
        max_inflight: "int | None" = None,
        queue_depth: int = 16,
        queue_timeout_ms: float = 1000.0,
        read_timeout_s: float = 10.0,
        drain_timeout_s: float = 10.0,
        breaker: "CircuitBreaker | None" = None,
        snapshot_path=None,
        faults=None,
    ) -> None:
        self.soda = soda
        self.host = host
        self.port = port
        self.default_limit = default_limit
        #: per-request time budget when the client sends no
        #: ``?timeout_ms=``; falls back to the engine config's
        #: ``request_timeout_ms`` when None
        if request_timeout_ms is None:
            request_timeout_ms = (
                soda.warehouse.database.config.request_timeout_ms
            )
        self.request_timeout_ms = request_timeout_ms
        self.workers = max(1, workers)
        self.max_inflight = (
            self.workers if max_inflight is None else max(1, max_inflight)
        )
        self.queue_depth = queue_depth
        self.queue_timeout_ms = queue_timeout_ms
        self.read_timeout_s = read_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: where stop() saves the index snapshot once serving has ended
        #: (None: no save)
        self.snapshot_path = snapshot_path
        #: optional ServingFaultInjector consulted before engine calls
        self.faults = faults
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="soda-http"
        )
        #: DML statements serialize here (the storage model is
        #: single-writer; readers never take this lock)
        self._write_lock = threading.Lock()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stopping: "asyncio.Event | None" = None
        self._started = threading.Event()
        self._thread: "threading.Thread | None" = None
        #: guards thread/loop handoff between start_background and stop
        self._lifecycle = threading.Lock()
        self._admission: "AdmissionController | None" = None
        self._draining = False
        self._conn_tasks: set = set()
        self._busy_tasks: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until interrupted (blocking; the CLI entry point)."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    def start_background(self) -> "SodaServer":
        """Serve on a daemon thread; returns once the port is bound.

        Idempotent: calling it on an already-running server returns the
        server untouched (one listener, one loop).
        """
        with self._lifecycle:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._started.clear()
            self._thread = threading.Thread(
                target=self.run, name="soda-server", daemon=True
            )
            self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("server failed to start within 30s")
        return self

    def stop(self) -> dict:
        """Gracefully drain and stop from any thread (idempotent).

        Safe on a never-started or already-stopped server (a no-op),
        and safe to call concurrently with :meth:`start_background` or
        another :meth:`stop`.  Triggers the drain sequence — stop
        accepting, let in-flight requests finish for up to
        ``drain_timeout_s``, then cancel cooperatively — and joins the
        serving thread with a timeout.  The one stop that ends a serve
        saves the index snapshot to ``snapshot_path`` (when set) while
        holding the writer lock.  Returns a report::

            {"stopped": bool, "stuck_threads": [thread names]}
        """
        with self._lifecycle:
            thread = self._thread
        if thread is not None and self._loop is None:
            # racing a start_background that hasn't bound yet: give the
            # loop a moment to exist so the stop signal has a target
            self._started.wait(timeout=5)
        loop, stopping = self._loop, self._stopping
        if loop is not None and stopping is not None:
            try:
                loop.call_soon_threadsafe(stopping.set)
            except RuntimeError:  # loop already closed
                pass
        stuck: list = []
        ended = False
        if thread is not None:
            thread.join(timeout=self.drain_timeout_s + 30)
            if thread.is_alive():  # pragma: no cover - hang reporting
                stuck.append(thread.name)
            else:
                with self._lifecycle:
                    ended = self._thread is thread
                    if ended:
                        self._thread = None
        if ended and self.snapshot_path is not None:
            with self._write_lock:
                self.soda.warehouse.save_index_snapshot(self.snapshot_path)
        return {"stopped": not stuck, "stuck_threads": stuck}

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._draining = False
        # fresh per serve: the previous serve's finally shut the pool
        # down, and a restarted server must not submit to a dead
        # executor (threads spawn lazily, so replacing an unused pool
        # costs nothing)
        self._pool.shutdown(wait=False)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="soda-http"
        )
        # fresh per serve: asyncio primitives bind to the running loop
        self._admission = AdmissionController(
            max_concurrent=self.max_inflight,
            queue_depth=self.queue_depth,
            queue_timeout_ms=self.queue_timeout_ms,
        )
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            await self._stopping.wait()
            await self._drain(server)
        finally:
            server.close()
            self._started.clear()
            self._pool.shutdown(wait=False)
            self._loop = None
            self._stopping = None

    async def _drain(self, server) -> None:
        """Stop accepting; finish in-flight work; cancel the rest."""
        self._draining = True
        server.close()
        # idle keep-alive connections are parked in _read_request —
        # nothing in flight, cancel them immediately
        for task in list(self._conn_tasks):
            if task not in self._busy_tasks:
                task.cancel()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout_s
        while self._busy_tasks and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # past the drain deadline: cancel cooperatively (the await is
        # cancelled and the connection closed; a compute already on the
        # engine pool finishes on its thread, its result discarded)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    if _METRICS.enabled:
                        _HTTP_ERRORS.inc()
                    await self._send(
                        writer, exc.status, exc.payload(), False,
                        exc.headers(),
                    )
                    break
                if request is None:
                    break
                method, target, body, keep_alive, arrived = request
                if self._draining:
                    await self._send(
                        writer, 503,
                        {"error": "server is draining", "kind": "draining"},
                        False, {"Retry-After": "1"},
                    )
                    break
                self._busy_tasks.add(task)
                try:
                    status, payload, headers = await self._dispatch(
                        method, target, body, arrived
                    )
                finally:
                    self._busy_tasks.discard(task)
                keep_alive = keep_alive and not self._draining
                await self._send(writer, status, payload, keep_alive, headers)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # drain cancelled the connection; just close it
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._conn_tasks.discard(task)
            self._busy_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _send(
        self, writer, status: int, payload: "dict | bytes", keep_alive: bool,
        extra_headers: "dict | None" = None,
    ) -> None:
        # bytes are a body already on the wire format (`to_wire()`)
        blob = (
            payload if isinstance(payload, bytes)
            else json.dumps(payload, sort_keys=True).encode()
        )
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + blob)
        await writer.drain()

    async def _read_request(self, reader):
        """Read one request; None when the client closed instead.

        ``(method, target, body, keep_alive, arrived)`` — *arrived* is
        the ``perf_counter`` reading when the request line was in.  The
        whole read runs under **one** ``read_timeout_s`` scope (one
        ``wait_for``: a task and a timer per request, not per line).
        Raises :class:`_HttpError` — 400 for malformed requests, 408
        for a stalled read, 413 for oversized request line / headers /
        body — so one slow or hostile client degrades into one error
        response instead of a held connection slot.
        """
        stage = ["waiting for the request line"]  # what a 408 reports
        try:
            return await asyncio.wait_for(
                self._parse_request(reader, stage), timeout=self.read_timeout_s
            )
        except asyncio.TimeoutError:
            if _METRICS.enabled:
                _READ_TIMEOUTS.inc()
            raise _HttpError(
                408,
                f"timed out after {self.read_timeout_s:g}s {stage[0]} "
                f"(stalled client)",
                kind="read_timeout",
            ) from None

    @staticmethod
    async def _read_line(reader, what: str) -> "bytes | None":
        """One LF-terminated line within the stream limit; None at EOF.

        EOF *inside* a line is EOF: the client hung up on a request it
        never finished, and nothing of it may be dispatched.
        """
        try:
            line = await reader.readline()
        except ValueError:  # stream-limit overrun: a line with no end
            if _METRICS.enabled:
                _OVERSIZE_REJECTED.inc()
            raise _HttpError(
                413, f"{what} too large", kind="oversize"
            ) from None
        return line if line.endswith(b"\n") else None

    async def _parse_request(self, reader, stage: list):
        try:
            request_line = await self._read_line(reader, "the request line")
        except ConnectionError:
            return None
        if request_line is None:
            return None
        arrived = perf_counter()
        if len(request_line) > MAX_REQUEST_LINE_BYTES:
            if _METRICS.enabled:
                _OVERSIZE_REJECTED.inc()
            raise _HttpError(
                413,
                f"request line exceeds {MAX_REQUEST_LINE_BYTES} bytes",
                kind="oversize",
            )
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(
                400, "malformed request line", kind="malformed_request"
            )
        method, target, version = parts
        stage[0] = "waiting for request headers"
        headers = {}
        header_bytes = 0
        while True:
            line = await self._read_line(reader, "request headers")
            if line is None:
                return None
            if line in (b"\r\n", b"\n"):
                break
            header_bytes += len(line)
            if (
                len(headers) >= MAX_HEADER_COUNT
                or header_bytes > MAX_HEADER_BYTES
            ):
                if _METRICS.enabled:
                    _OVERSIZE_REJECTED.inc()
                raise _HttpError(
                    413,
                    f"headers exceed {MAX_HEADER_COUNT} fields / "
                    f"{MAX_HEADER_BYTES} bytes",
                    kind="oversize",
                )
            name, __, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
            if length < 0:
                raise ValueError(length)
        except ValueError:
            raise _HttpError(
                400, "bad Content-Length header", kind="malformed_request"
            ) from None
        if length > MAX_BODY_BYTES:
            if _METRICS.enabled:
                _OVERSIZE_REJECTED.inc()
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                kind="oversize",
            )
        body = b""
        if length:
            stage[0] = "reading the request body"
            body = await reader.readexactly(length)
        keep_alive = headers.get("connection", "").lower() != "close" and (
            version.upper() != "HTTP/1.0"
        )
        return method.upper(), target, body, keep_alive, arrived

    async def _dispatch(
        self, method: str, target: str, body: bytes, arrived: float
    ):
        started = perf_counter()
        if _METRICS.enabled:
            _HTTP_REQUESTS.inc()
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        headers: dict = {}
        try:
            if path == "/healthz":
                return 200, self._healthz(), headers
            if path == "/metrics" and method == "GET":
                return 200, self._metrics_payload(params), headers
            if path == "/search" and method in ("GET", "POST"):
                if method == "POST" and body:
                    try:
                        posted = json.loads(body.decode())
                    except (ValueError, UnicodeDecodeError):
                        raise _HttpError(400, "POST /search expects JSON")
                    if not isinstance(posted, dict):
                        raise _HttpError(400, "POST /search expects an object")
                    params = {**posted, **params}
                what = "search"
            elif path == "/sql" and method == "POST":
                params["sql"] = body.decode(errors="replace")
                what = "sql"
            else:
                raise _HttpError(
                    404, f"no route for {method} {split.path}",
                    kind="not_found",
                )
            payload, timing = await self._run_engine_route(what, params)
            headers["Server-Timing"] = (
                f"read;dur={(started - arrived) * 1e3:.3f}, {timing}"
            )
            return 200, payload, headers
        except _HttpError as exc:
            if _METRICS.enabled:
                _HTTP_ERRORS.inc()
            return exc.status, exc.payload(), exc.headers()
        except LoadShedError as exc:
            if _METRICS.enabled:
                _HTTP_ERRORS.inc()
            return (
                429,
                {
                    "error": str(exc),
                    "kind": "load_shed",
                    "reason": exc.reason,
                    "retry_after_s": exc.retry_after_s,
                },
                {"Retry-After": f"{max(1, round(exc.retry_after_s))}"},
            )
        except DeadlineExceeded as exc:
            if _METRICS.enabled:
                _HTTP_ERRORS.inc()
                _DEADLINES_EXCEEDED.inc()
            return (
                503,
                {
                    "error": str(exc),
                    "kind": "deadline_exceeded",
                    "timeout_ms": exc.timeout_ms,
                    "elapsed_ms": round(exc.elapsed_ms, 3),
                    "where": exc.where,
                },
                {"Retry-After": "1"},
            )
        except SqlError as exc:
            if _METRICS.enabled:
                _HTTP_ERRORS.inc()
            return 400, {"error": str(exc), "kind": "sql_error"}, headers
        except Exception as exc:  # noqa: BLE001 - the server must answer
            if _METRICS.enabled:
                _HTTP_ERRORS.inc()
            return (
                500,
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "kind": "engine_failure",
                },
                headers,
            )
        finally:
            if _METRICS.enabled:
                # from the request line's arrival, so the Server-Timing
                # parts are parts of this observation
                _HTTP_SECONDS.observe(perf_counter() - arrived)

    async def _run_engine_route(self, what: str, params: dict):
        """Breaker, the loop-side half of the route, then — unless that
        answered — admission + deadline around one engine call.

        Returns ``(payload, timing)``, *timing* being the route's share
        of the ``Server-Timing`` header.  A ``/search`` the result
        cache can answer ends here, on the event loop: it records
        breaker success like any answered request (in half-open that
        claims and releases the probe slot) but takes no admission
        slot, so it is never queued or shed, carries no deadline and is
        not an engine call (the fault injector is not consulted).
        Everything raised before the engine ran — a parameter error
        from the loop-side validation (``missing q``, ``bad limit``,
        ``bad timeout_ms``), a load shed, a cancellation — gives no
        health verdict and releases the probe slot
        (``record_abandoned``).
        """
        breaker = self.breaker
        if not breaker.allow():
            snap = breaker.snapshot()
            raise _HttpError(
                503,
                "circuit breaker open: the engine is failing; request "
                "fast-failed",
                kind="circuit_open",
                retry_after_s=snap["retry_after_s"] or breaker.cooldown_s,
                extra={"breaker": snap},
            )
        admission = self._admission
        try:
            timeout_ms = self._timeout_ms(params)
            if what == "search":
                wire, call, cache = self._search_on_loop(params)
                if wire is not None:
                    breaker.record_success()
                    return wire, f"cache;desc={cache}"
            else:
                call, cache = (lambda: self._handle_sql(params)), None
            # the deadline starts *before* the queue wait: time spent
            # queued is part of the request's budget, so a request that
            # waited its deadline away sheds at admission instead of
            # running anyway
            deadline = Deadline(timeout_ms) if timeout_ms else None
            queued = perf_counter()
            if admission is not None:
                await admission.acquire()
        except BaseException:
            # the half-open probe slot allow() may have claimed must be
            # released or the breaker wedges open
            breaker.record_abandoned()
            raise
        admitted = perf_counter()
        try:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                self._pool, self._run_engine, call, deadline, what
            )
        except (asyncio.CancelledError, RuntimeError):
            # _run_engine records only when it runs on the pool; here
            # it may never have started (task cancelled during drain
            # before a worker picked it up, or the pool shut down by a
            # racing stop()).  Releasing the probe slot is harmless if
            # it did run — a real record already cleared the flag
            breaker.record_abandoned()
            raise
        finally:
            if admission is not None:
                admission.release()
        timing = (
            f"admit;dur={(admitted - queued) * 1e3:.3f}, "
            f"engine;dur={(perf_counter() - admitted) * 1e3:.3f}"
        )
        if cache is not None:
            timing += f", cache;desc={cache}"
        return payload, timing

    def _search_on_loop(self, params: dict):
        """Validate ``/search`` parameters and probe the result cache.

        Runs on the event loop.  Returns ``(wire, call, cache)``: the
        cached answer's wire bytes (``cache == "hit"``), or None and
        the engine call the pool must make — *compute and store*, no
        second lookup, so ``hits + misses`` stays the number of
        untraced searches (``"miss"``); a traced search never asks the
        cache (None).
        """
        text = params.get("q") or params.get("query")
        if not text or not isinstance(text, str):
            raise _HttpError(400, "missing query parameter 'q'")
        limit = params.get("limit", self.default_limit)
        if limit is not None:
            try:
                limit = int(limit)
            except (TypeError, ValueError):
                raise _HttpError(400, f"bad limit {limit!r}")
            if limit < 0:
                raise _HttpError(400, "limit must be >= 0")
        execute = self._flag(params, "execute", True)
        soda = self.soda
        if self._flag(params, "trace", False):
            # traced requests bypass the result cache (the trace is
            # per-request state) but still run concurrently: the active
            # tracer is thread-local
            cache = None

            def call() -> dict:
                result = soda.search(text, execute=execute, trace=True)
                return result.to_dict(limit=limit)
        else:
            session = SearchSession(soda, execute=execute, limit=limit)
            hit = session.cached(text)
            if hit is not None:
                if _METRICS.enabled:
                    _LOOP_HITS.inc()
                return hit.to_wire(), None, "hit"
            cache = "miss"

            def call() -> bytes:
                return session.compute(text).to_wire()
        if _METRICS.enabled:
            _POOL_CALLS.inc()
        return None, call, cache

    def _timeout_ms(self, params: dict) -> "float | None":
        raw = params.get("timeout_ms")
        if raw is None:
            return self.request_timeout_ms
        try:
            timeout_ms = float(raw)
        except (TypeError, ValueError):
            raise _HttpError(400, f"bad timeout_ms {raw!r}") from None
        # `not >` (rather than `<=`) also rejects NaN; isfinite rejects
        # inf, which would silently mean "no timeout"
        if not timeout_ms > 0 or not math.isfinite(timeout_ms):
            raise _HttpError(400, "timeout_ms must be a finite number > 0")
        return timeout_ms

    def _run_engine(self, call, deadline, what: str):
        """One engine call on the worker pool, breaker-accounted.

        Client errors (`_HttpError`, `SqlError`) prove the engine is
        answering and count as breaker successes; a `DeadlineExceeded`
        is overload, not ill health, and counts as neither success nor
        failure — but it still releases a half-open probe slot, else a
        deadline-exceeded probe (likely when a slow engine is exactly
        what tripped the breaker) wedges the breaker open forever;
        everything else is an engine failure.
        """
        try:
            with deadline_scope(deadline):
                if deadline is not None:
                    # admitted but already over budget (queue wait ate
                    # it): don't start engine work at all
                    deadline.check("admission")
                if self.faults is not None:
                    self.faults.before_engine_call(what)
                result = call()
        except (_HttpError, SqlError):
            self.breaker.record_success()
            raise
        except DeadlineExceeded:
            self.breaker.record_abandoned()
            raise
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _flag(params: dict, name: str, default: bool) -> bool:
        value = params.get(name)
        if value is None:
            return default
        if isinstance(value, bool):
            return value
        return str(value).lower() in _TRUE_WORDS

    def _handle_sql(self, params: dict) -> dict:
        sql = (params.get("sql") or "").strip()
        if not sql:
            raise _HttpError(400, "POST /sql expects the statement as body")
        statement = parse_sql(sql)  # surface syntax errors before locking
        database = self.soda.warehouse.database
        if isinstance(statement, (Select, Union)):
            result = database.execute(sql)
        else:
            with self._write_lock:
                result = database.execute(sql)
        return {
            "columns": list(result.columns),
            "rows": [
                [_json_value(value) for value in row] for row in result.rows
            ],
            "rowcount": result.rowcount,
        }

    def _metrics_payload(self, params: dict) -> dict:
        metrics = self.soda.metrics()
        if params.get("format") == "prometheus":
            return {"prometheus": _metrics_registry().render_prometheus()}
        return metrics

    def _healthz(self) -> dict:
        """Liveness + resilience state (part of the wire contract).

        ``status`` is ``"ok"`` (breaker closed), ``"degraded"`` (breaker
        half-open — probing its way back — or the server is draining),
        or ``"open"`` (breaker open: engine calls fast-fail).
        """
        database = self.soda.warehouse.database
        breaker = self.breaker.snapshot()
        status = {"closed": "ok", "half_open": "degraded", "open": "open"}[
            breaker["state"]
        ]
        if self._draining and status == "ok":
            status = "degraded"
        payload = {
            "status": status,
            "draining": self._draining,
            "breaker": breaker,
            "engine_config": database.config.as_dict(),
            "tables": len(database.table_names()),
        }
        admission = self._admission
        if admission is not None:
            payload["admission"] = admission.snapshot()
        return payload


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
