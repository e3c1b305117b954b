"""Morsel-driven parallel execution for the vectorized engine.

The exchange design follows the morsel-driven parallelism literature
(HyPer-style): the scan's row range is cut into fixed-size *morsels*
(a whole number of :data:`~repro.sqlengine.planner.physical.BATCH_SIZE`
batches, so the batch boundaries of a parallel run are identical to the
serial run), and each morsel is pushed through a copy-free pipeline of
the plan's own operators — ``BatchScanOp.batches_range`` at the leaf,
then each stage's ``process`` over the morsel's batch stream — on a
worker pool.  Results are re-emitted strictly in morsel order, so every
downstream operator sees exactly the batch sequence the serial engine
would have produced and byte-identical output follows by construction.

Error parity is handled the same way: a worker's exception is captured
with its morsel and re-raised when that morsel's slot comes up in the
ordered merge.  The earliest failing morsel therefore surfaces first —
the same exception, from the same row, that serial execution would have
hit — and later morsels' work (or errors) are discarded, exactly as if
execution had stopped there.

Operators that cannot stream (aggregation, hash-join build) instead run
one *task* per morsel via :meth:`ParallelChainOp.run_tasks` — partial
aggregation states or partial hash tables built inside the workers and
merged deterministically in morsel order by the consuming operator.

Everything here is architecture, not magic: under CPython's GIL the
speedup on pure-Python workloads is bounded, so the worker count
(``EngineConfig(parallel_workers=)``) defaults to 1 — the serial path,
untouched.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

from repro.obs.metrics import registry as _metrics_registry
from repro.resilience.deadline import current_deadline, deadline_scope
from repro.sqlengine.segments import current_pins, pinned

#: scan batches per morsel — a multiple of BATCH_SIZE rows, so parallel
#: batch boundaries line up exactly with the serial scan's
MORSEL_BATCHES = 8

_METRICS = _metrics_registry()
_MORSELS_DISPATCHED = _METRICS.counter("engine.morsels_dispatched")


class MorselDispatcher:
    """Run per-morsel tasks on a worker pool, yielding results in order.

    The pool is created per ``run_ordered`` call and torn down when the
    ordered stream is exhausted or abandoned, so plans hold no threads
    between executions.  At most ``2 * workers`` morsels are in flight
    at a time, which bounds memory to a few morsels' worth of batches
    regardless of table size.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def run_ordered(self, tasks: list) -> Iterator:
        if len(tasks) <= 1:
            for task in tasks:
                yield task()
            return
        deadline = current_deadline()
        pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="morsel"
        )
        try:
            ahead = 2 * self.workers
            in_flight: deque = deque(
                pool.submit(task) for task in tasks[:ahead]
            )
            pending = iter(tasks[ahead:])
            while in_flight:
                # a spent deadline stops the dispatch loop before more
                # morsels are submitted; in-flight workers hit their own
                # per-batch checks and the pool teardown reaps them
                if deadline is not None:
                    deadline.check("morsel")
                future = in_flight.popleft()
                result = future.result()  # re-raises in morsel order
                for task in pending:
                    in_flight.append(pool.submit(task))
                    break
                yield result
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


class ParallelChainOp:
    """Exchange operator over a scan-rooted stage chain.

    *scan* must expose ``row_count()`` and ``batches_range(start,
    stop)``; each entry of *stages* (``BatchFilterOp`` today) exposes
    ``process(stream)``.  ``batches()`` makes the exchange a drop-in
    :class:`~repro.sqlengine.planner.physical.BatchOperator`;
    ``run_tasks(post)`` is the partial-state interface for consumers
    that fold each morsel inside the worker (partial aggregation,
    partitioned hash-join build).
    """

    def __init__(self, dispatcher: MorselDispatcher, scan, stages) -> None:
        self._dispatcher = dispatcher
        self._scan = scan
        self._stages = list(stages)
        last = self._stages[-1] if self._stages else scan
        self.scope = last.scope
        self.parallel_workers = dispatcher.workers

    def _morsel_tasks(self, post: Callable) -> list:
        scan = self._scan
        stages = self._stages
        from repro.sqlengine.planner.physical import BATCH_SIZE

        morsel_rows = MORSEL_BATCHES * BATCH_SIZE
        # every morsel must read the same snapshot: capture the
        # coordinator's installed pins (or pin ad hoc for a segmented
        # scan outside a query scope) and re-install them inside each
        # worker thread, so partitioning and all workers agree on one
        # frozen row space even under concurrent DML
        pins = current_pins()
        table = getattr(scan, "_table", None)
        if pins is None and table is not None and table.segmented:
            pins = {id(table): table.pin()}
        with pinned(pins):
            total = scan.row_count()
        # the coordinator's request deadline rides into every worker
        # thread, so a morsel's per-batch scan checks honour it too
        deadline = current_deadline()

        def make(start: int, stop: int) -> Callable:
            def task():
                with deadline_scope(deadline), pinned(pins):
                    stream = scan.batches_range(start, stop)
                    for stage in stages:
                        stream = stage.process(stream)
                    return post(stream)

            return task

        tasks = [
            make(start, min(start + morsel_rows, total))
            for start in range(0, total, morsel_rows)
        ]
        if not tasks:  # empty table: one task so `post` still runs
            tasks.append(make(0, 0))
        return tasks

    def run_tasks(self, post: Callable) -> Iterator:
        """Run ``post(morsel_batch_stream)`` per morsel; ordered results."""
        tasks = self._morsel_tasks(post)
        if _METRICS.enabled:
            _MORSELS_DISPATCHED.inc(len(tasks))
        return self._dispatcher.run_ordered(tasks)

    def batches(self) -> Iterator[tuple]:
        for result in self.run_tasks(list):
            yield from result


class ParallelProjectOp:
    """Presentation exchange: project each morsel inside the workers."""

    def __init__(self, chain: ParallelChainOp, project) -> None:
        self._chain = chain
        self._project = project
        self.columns = project.columns
        self.scope = project.scope
        self.agg_slots = project.agg_slots
        self.parallel_workers = chain.parallel_workers

    def pres_batches(self) -> Iterator[tuple]:
        process = self._project.process
        for result in self._chain.run_tasks(
            lambda stream: list(process(stream))
        ):
            yield from result
