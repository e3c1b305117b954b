"""Frozen columnar segments + mutable delta: snapshot-pinned reads.

The LSM design point (immutable sorted runs plus a small mutable
memtable) applied to this engine's columnar storage: when a
table opts in (``EngineConfig(segment_rows=N)``), its flat storage is
mirrored by a :class:`SegmentedStorage` — an ordered list of
:class:`FrozenSegment` objects (immutable column tuples frozen off the
front of the table once the mutable *delta* tail reaches the threshold)
plus writer-side bookkeeping.  The flat lists stay
authoritative and byte-identical to the classic layout, so undo, WAL
checkpoints and the inverted-index maintainer are untouched; the mirror
exists so *readers* can pin.  DML is such a reader: it finds
its target rows by scanning a fresh pin, whose live positions are the
flat positions it then mutates.

A reader calls :meth:`~repro.sqlengine.catalog.Table.pin` (or, for a
whole query, :meth:`~repro.sqlengine.catalog.Catalog.pin_tables`) and
gets a :class:`TableSnapshot`: the segment list with each segment's
tombstone set captured as a frozenset, plus a copy of the (small)
delta's columns.  Segments are never mutated after freezing — DML maps
onto the mirror as:

* **INSERT** appends to the delta; full threshold-sized chunks freeze
  into new segments (:meth:`SegmentedStorage.note_insert`);
* **UPDATE** touching frozen rows replaces the affected segments with
  fresh ones built from the flat post-image (copy-on-write — pinned
  readers keep the old objects);
* **DELETE** of frozen rows grows the owning segment's tombstone set
  (grow-only, so a pinned frozenset stays a consistent past state) and
  compacts a segment once half its rows are dead;
* **restore_rows** (transaction rollback) rebuilds the mirror.

All mirror maintenance happens inside the table's storage lock (one
:class:`threading.RLock` per catalog); pinning takes the same lock
briefly.  Readers never take the lock while scanning, so one writer
and any number of readers proceed without blocking each other beyond
the pin/maintenance critical sections.  The engine's scan operators
consult the current thread's *installed pins* (:func:`pinned`, set up
by ``QueryPlanner.execute`` around each query) so every batch of one
execution reads the same snapshot.

**Zones.**  A segment's *zone* for an INTEGER/REAL column is the
``(min, max)`` of its physical non-NULL values (:meth:`FrozenSegment.
zone`), computed on the first scan that asks and memoised on the
segment — never at freeze time, so ingest pays nothing.  It needs no
invalidation: the values never change (UPDATE and compaction build new
segment objects), and tombstones only shrink the live set, so the
bound stays conservative for every snapshot.  A column holding NaN
(which compares equal to every number) or only NULLs has no zone; the
same pass memoises whether the column holds a NULL
(:meth:`FrozenSegment.holds_null`).  The batch scan skips a grid batch
only when every segment it overlaps is excluded, either by a pushed
``col <op> number`` conjunct or, under a top-N, because every value the
zone admits sorts strictly past the top-N's worst kept key; the delta
and flat storage are never skipped (see ``BatchScanOp`` in
:mod:`repro.sqlengine.planner.physical`).

**Values.**  Segments and the pinned delta hold the column values
themselves (TEXT included), so :meth:`TableSnapshot.column_slice`
returns a plain list — exactly the batch type a flat scan emits — and a
pinned reader sees every value as it was at pin time, whatever later
writes do to the flat lists.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

__all__ = [
    "FrozenSegment",
    "SegmentedStorage",
    "TableSnapshot",
    "current_pins",
    "pin_for",
    "pinned",
    "snapshot_of",
]


class FrozenSegment:
    """One immutable chunk of a table: one tuple per column.

    ``tombstones`` (physical offsets of deleted rows) is the only
    mutable part, owned by the writer and *grow-only* for the lifetime
    of the segment object — so a reader that captured the set as a
    frozenset of size ``k`` sees exactly the state after the first
    ``k`` deletions.  Live-row projections are cached per tombstone
    count (at most two states: concurrent readers at different
    snapshots recompute older states instead of growing the cache).
    Zones (:meth:`zone`) and NULL flags (:meth:`holds_null`) are
    memoised per column on first use and, like ``columns`` and
    ``size``, never change afterwards.
    """

    __slots__ = ("columns", "size", "tombstones", "_live_cache", "_zones")

    def __init__(self, columns: tuple, size: int) -> None:
        self.columns = columns
        #: physical rows, dead ones included
        self.size = size
        self.tombstones: set = set()
        self._live_cache: dict = {}
        self._zones: dict = {}

    def zone(self, index: int) -> "tuple | None":
        """``(min, max)`` of column *index*'s physical non-NULL values.

        Only asked of INTEGER/REAL columns.  None when the column holds
        only NULLs or any NaN (NaN compares equal to every number, so
        no range can bound it).  Dead rows count too: tombstones only
        shrink the live set, so the bound stays conservative for every
        tombstone state, and the memo never needs invalidating.  Racing
        readers compute the same value; the dict write is atomic.  The
        same pass memoises :meth:`holds_null`.
        """
        return self._summary(index)[0]

    def holds_null(self, index: int) -> bool:
        """Whether any physical row (dead ones too) of *index* is NULL."""
        return self._summary(index)[1]

    def _summary(self, index: int) -> tuple:
        summary = self._zones.get(index)
        if summary is None:
            values = [v for v in self.columns[index] if v is not None]
            bounded = values and all(v == v for v in values)
            summary = (
                (min(values), max(values)) if bounded else None,
                len(values) < self.size,
            )
            self._zones[index] = summary
        return summary

    @property
    def live_count(self) -> int:
        return self.size - len(self.tombstones)

    def _state(self, tombstones) -> dict:
        """The cached live projection for one tombstone state.

        Keyed by ``len(tombstones)``: the set only ever grows, so the
        size identifies the state.  Safe under concurrent readers —
        recomputation is idempotent and dict writes are atomic.
        """
        key = len(tombstones)
        state = self._live_cache.get(key)
        if state is None:
            keep = [
                offset
                for offset in range(self.size)
                if offset not in tombstones
            ]
            state = {"keep": keep, "cols": {}}
            if len(self._live_cache) >= 2:
                # keep only the newest state; a straggler reader on an
                # evicted one just recomputes
                newest = max(self._live_cache)
                self._live_cache = {newest: self._live_cache[newest]}
            self._live_cache[key] = state
        return state

    def live_column(self, index: int, tombstones) -> "tuple | list":
        """One column's values surviving *tombstones*."""
        if not tombstones:
            return self.columns[index]
        state = self._state(tombstones)
        column = state["cols"].get(index)
        if column is None:
            data = self.columns[index]
            column = [data[offset] for offset in state["keep"]]
            state["cols"][index] = column
        return column

    def live_to_physical(self, tombstones) -> "list | None":
        """Physical offset of each live row, or None for the identity."""
        if not tombstones:
            return None
        return self._state(tombstones)["keep"]


class TableSnapshot:
    """A pinned, immutable view: frozen segments + a copied delta.

    Row coordinates are *live* positions over the whole snapshot
    (``0 .. row_count``), exactly matching the table's flat storage at
    pin time — so batch boundaries, row order and values are identical
    to a flat scan of the same state.
    """

    __slots__ = ("entries", "delta_columns", "prefix", "row_count")

    def __init__(self, entries: list, delta_len: int, delta_columns: list):
        #: ``(segment, tombstones frozenset | None, live_count)`` per segment
        self.entries = entries
        self.delta_columns = delta_columns
        prefix = [0]
        for __, __, live in entries:
            prefix.append(prefix[-1] + live)
        prefix.append(prefix[-1] + delta_len)
        #: cumulative live counts; parts are segments then the delta
        self.prefix = prefix
        self.row_count = prefix[-1]

    def column_slice(self, index: int, start: int, stop: int) -> list:
        """One column over live positions ``[start, stop)``."""
        stop = min(stop, self.row_count)
        prefix = self.prefix
        entries = self.entries
        out: list = []
        part = bisect_right(prefix, start) - 1
        position = start
        while position < stop:
            base = prefix[part]
            end = prefix[part + 1]
            if end == base:  # pragma: no cover - empty parts are skipped
                part += 1
                continue
            if part < len(entries):
                segment, tombstones, __ = entries[part]
                data = segment.live_column(index, tombstones)
            else:
                data = self.delta_columns[index]
            upto = min(stop, end)
            out.extend(data[position - base : upto - base])
            position = upto
            part += 1
        return out


class SegmentedStorage:
    """Writer-side mirror of one table's flat storage.

    Invariant (checked by the property tests): per column, the
    concatenation of every segment's live values followed by the delta
    equals the table's flat column.  All methods must be called under the table's
    storage lock, from the single-writer mutation path.
    """

    __slots__ = ("threshold", "segments", "frozen_live")

    def __init__(self, threshold: int) -> None:
        self.threshold = max(1, int(threshold))
        self.segments: list = []
        #: total live rows across segments == the delta's start offset
        self.frozen_live = 0

    # -- pinning -------------------------------------------------------
    def snapshot(self, table) -> TableSnapshot:
        entries = [
            (
                segment,
                frozenset(segment.tombstones) if segment.tombstones else None,
                segment.live_count,
            )
            for segment in self.segments
        ]
        start = self.frozen_live
        # a slice is already a copy
        return TableSnapshot(
            entries,
            len(table) - start,
            [store[start:] for store in table._column_data],
        )

    # -- mutation mapping ----------------------------------------------
    def _freeze_range(self, table, start: int, stop: int) -> FrozenSegment:
        columns = tuple(
            tuple(store[start:stop]) for store in table._column_data
        )
        return FrozenSegment(columns, stop - start)

    def note_insert(self, table) -> None:
        """Freeze full threshold-sized chunks off the delta's front."""
        total = len(table)
        while total - self.frozen_live >= self.threshold:
            start = self.frozen_live
            self.segments.append(
                self._freeze_range(table, start, start + self.threshold)
            )
            self.frozen_live += self.threshold

    def _map_frozen(self, positions) -> dict:
        """Sorted live positions -> ``{segment index: [physical offsets]}``.

        Positions at or past ``frozen_live`` (the delta) are ignored.
        """
        mapping: dict = {}
        if not self.segments:
            return mapping
        base = 0
        index = 0
        segment = self.segments[0]
        for position in positions:
            if position >= self.frozen_live:
                break
            while position >= base + segment.live_count:
                base += segment.live_count
                index += 1
                segment = self.segments[index]
            offset = position - base
            live_map = segment.live_to_physical(segment.tombstones)
            if live_map is not None:
                offset = live_map[offset]
            mapping.setdefault(index, []).append(offset)
        return mapping

    def note_update(self, table, positions) -> None:
        """Copy-on-write: re-freeze segments whose rows were rewritten.

        Called after the flat in-place writes, so the affected live
        ranges of the flat storage hold the post-image.  Untouched
        segments keep their identity (pinned readers notice nothing);
        live counts are unchanged, so no offsets shift.
        """
        frozen_positions = sorted(
            {p for p in positions if p < self.frozen_live}
        )
        touched = self._map_frozen(frozen_positions)
        if not touched:
            return
        prefix = [0]
        for segment in self.segments:
            prefix.append(prefix[-1] + segment.live_count)
        for index in touched:
            self.segments[index] = self._freeze_range(
                table, prefix[index], prefix[index + 1]
            )

    def plan_delete(self, sorted_positions) -> dict:
        """Map doomed live positions to segments *before* compaction."""
        return self._map_frozen(
            [p for p in sorted_positions if p < self.frozen_live]
        )

    def commit_delete(self, table, mapping: dict) -> None:
        """Apply a planned delete *after* the flat compaction.

        Grows tombstone sets (never shrinks — pinned frozensets stay
        valid), drops fully-dead segments, and compacts any segment
        with at least half its rows dead by re-freezing its live range
        from the flat post-image.
        """
        if not mapping:
            return
        removed = 0
        for index, offsets in mapping.items():
            segment = self.segments[index]
            segment.tombstones.update(offsets)
            removed += len(offsets)
        self.frozen_live -= removed
        survivors: list = []
        start = 0
        for segment in self.segments:
            live = segment.live_count
            if live == 0:
                continue
            if len(segment.tombstones) * 2 >= segment.size:
                segment = self._freeze_range(table, start, start + live)
            survivors.append(segment)
            start += live
        self.segments = survivors

    def rebuild(self, table) -> None:
        """Re-derive the whole mirror from the flat storage (rollback)."""
        self.segments = []
        self.frozen_live = 0
        self.note_insert(table)

    # -- introspection -------------------------------------------------
    def stats(self, table) -> dict:
        return {
            "segments": len(self.segments),
            "frozen_live": self.frozen_live,
            "delta_rows": len(table) - self.frozen_live,
            "tombstones": sum(
                len(segment.tombstones) for segment in self.segments
            ),
        }


# ----------------------------------------------------------------------
# per-thread pin scopes (installed by QueryPlanner around execution)
# ----------------------------------------------------------------------
_TLS = threading.local()


def current_pins() -> "dict | None":
    """The thread's installed pin set (``id(table) -> TableSnapshot``)."""
    return getattr(_TLS, "pins", None)


def pin_for(table) -> "TableSnapshot | None":
    """The installed snapshot for *table*, or None."""
    pins = getattr(_TLS, "pins", None)
    if pins is None:
        return None
    return pins.get(id(table))


def snapshot_of(table) -> "TableSnapshot | None":
    """The snapshot a scan of *table* must read, or None for flat reads.

    Segmented tables always read through a snapshot: the thread's
    installed pin when a query-level scope is active, otherwise a fresh
    ad-hoc pin (consistent within the one call that took it).
    """
    if table._segments is None:
        return None
    pinned_snapshot = pin_for(table)
    if pinned_snapshot is not None:
        return pinned_snapshot
    return table.pin()


class pinned:
    """Install a pin set thread-locally for a ``with`` block.

    ``pinned(None)`` is a no-op scope, so callers can unconditionally
    wrap execution without branching on whether anything is segmented.
    Scopes nest (the previous pin set is restored on exit).
    """

    __slots__ = ("_pins", "_previous")

    def __init__(self, pins: "dict | None") -> None:
        self._pins = pins
        self._previous = None

    def __enter__(self) -> "dict | None":
        if self._pins is not None:
            self._previous = getattr(_TLS, "pins", None)
            _TLS.pins = self._pins
        return self._pins

    def __exit__(self, *exc) -> bool:
        if self._pins is not None:
            _TLS.pins = self._previous
        return False
