"""EXPLAIN ANALYZE: per-operator actuals.

An :class:`Instrumenter` is threaded through
:func:`~repro.sqlengine.planner.physical.build_physical` as its
``instrument`` callback: every physical operator is wrapped in a thin
shim that times each pull from the operator's iterator and counts the
rows and batches it produces; batch scans also report the frozen
segments their zone tests skipped (``skipped=N``), and an aggregate that
runs inside a scan's generated loop names it (``folded into scan f``).  Stats are keyed by
the *logical* node the operator was built from — the build is 1:1 — so
after execution
:meth:`Instrumenter.suffix_for` can annotate each line of
:func:`~repro.sqlengine.planner.explain.render_plan` with actual rows,
batches and self-time right next to the optimizer's ``[~N rows]``
estimate, making estimate-vs-actual skew directly visible.

Timing is *inclusive* at the wrapper (a parent's pull runs its
children's pulls), so an operator's self-time is its inclusive time
minus the sum of its children's — computed from the logical tree, never
stored.  Instrumented plans are built fresh per request and are never
placed in the plan cache: the wrappers would tax every later execution
and the stats objects are single-use.
"""

from __future__ import annotations

from time import perf_counter


class OperatorStats:
    """Actuals for one operator: rows out, batches out, inclusive time."""

    __slots__ = ("rows", "batches", "inclusive", "skipped", "folded_into")

    def __init__(self) -> None:
        self.rows = 0
        self.batches = 0
        self.inclusive = 0.0
        #: frozen segments a batch scan's zone tests skipped
        self.skipped = 0
        #: the scan binding an aggregate's fold runs in, or None
        self.folded_into = None


class _InstrumentedBatches:
    """Times a relational batch operator (``batches()`` protocol)."""

    def __init__(self, inner, stats: OperatorStats) -> None:
        self._inner = inner
        self._stats = stats
        self.scope = inner.scope

    def batches(self, **kwargs):
        stats = self._stats
        started = perf_counter()
        iterator = self._inner.batches(**kwargs)
        stats.inclusive += perf_counter() - started
        while True:
            started = perf_counter()
            try:
                cols, n = next(iterator)
            except StopIteration:
                stats.inclusive += perf_counter() - started
                return
            stats.inclusive += perf_counter() - started
            stats.rows += n
            stats.batches += 1
            yield cols, n


class _InstrumentedPresBatches:
    """Times a presentation batch operator (``pres_batches()`` protocol)."""

    def __init__(self, inner, stats: OperatorStats) -> None:
        self._inner = inner
        self._stats = stats
        self.scope = inner.scope
        self.columns = inner.columns
        self.agg_slots = inner.agg_slots

    def pres_batches(self):
        stats = self._stats
        started = perf_counter()
        iterator = self._inner.pres_batches()
        stats.inclusive += perf_counter() - started
        while True:
            started = perf_counter()
            try:
                out_cols, pre_cols, n = next(iterator)
            except StopIteration:
                stats.inclusive += perf_counter() - started
                return
            stats.inclusive += perf_counter() - started
            stats.rows += n
            stats.batches += 1
            yield out_cols, pre_cols, n


class Instrumenter:
    """Wraps every operator of one plan build and renders its actuals.

    Pass as ``build_physical(..., instrument=instrumenter)``; after
    ``plan.execute()`` hand it to ``render_plan(..., analyze=...)``.
    """

    def __init__(self) -> None:
        self._stats: dict = {}  # id(logical node) -> OperatorStats

    def __call__(self, operator, node):
        """Wrap *operator* (built from logical *node*); returns the shim."""
        stats = OperatorStats()
        self._stats[id(node)] = stats
        if hasattr(operator, "analyze_stats"):
            operator.analyze_stats = stats  # batch scans report skips
        stats.folded_into = getattr(operator, "folded_into", None)
        if hasattr(operator, "pres_batches"):
            return _InstrumentedPresBatches(operator, stats)
        return _InstrumentedBatches(operator, stats)

    # ------------------------------------------------------------------
    def self_seconds(self, node) -> float:
        """Inclusive time minus the children's inclusive time."""
        stats = self._stats[id(node)]
        children = sum(
            self._stats[id(child)].inclusive
            for child in node.children()
            if id(child) in self._stats
        )
        return max(0.0, stats.inclusive - children)

    def suffix_for(self, node) -> str:
        """The ``(actual ...)`` annotation for one plan line."""
        stats = self._stats.get(id(node))
        if stats is None:  # pragma: no cover - builds cover every node
            return ""
        self_ms = self.self_seconds(node) * 1000.0
        skipped = f", skipped={stats.skipped}" if stats.skipped else ""
        if stats.folded_into is not None:
            skipped += f", folded into scan {stats.folded_into}"
        return (
            f" (actual rows={stats.rows}, batches={stats.batches}{skipped}, "
            f"self={self_ms:.3f}ms)"
        )
