"""A table's storage: frozen columnar segments plus one mutable delta.

The LSM design point (immutable runs plus a small mutable memtable) as
the only storage of every table: a :class:`TableStorage` is an ordered
list of :class:`FrozenSegment` objects — one immutable tuple per
column, frozen ``segment_rows`` rows at a time — followed by the
*delta*, one mutable list per column holding fewer than
``segment_rows`` rows.  Each value lives in exactly one of them.  Row
coordinates are *live* positions: the segments' live rows in order,
then the delta's.  Mutations map onto the layout as:

* **INSERT** extends the delta; every full ``segment_rows`` chunk is
  moved out of it into a new segment (:meth:`TableStorage.append`);
* **UPDATE** writes delta rows in place and replaces each touched
  segment with a fresh one built from its own live values
  (copy-on-write — pinned readers keep the old object);
* **DELETE** of frozen rows grows the owning segment's tombstone set
  (grow-only, so a pinned frozenset stays a consistent past state),
  drops a segment with no live row left and compacts one that is at
  least half dead from its own live values; delta rows are cut out of
  the delta lists, a few runs by slice deletion, many through one
  keep-mask;
* rollback's re-insert and checkpoint recovery rebuild the segments
  from whole columns (:meth:`TableStorage.load`).

All mutation happens inside the table's storage lock (one
:class:`threading.RLock` per catalog), and so does pinning.  A reader
calls :meth:`~repro.sqlengine.catalog.Table.pin` (or, for a whole
query, :meth:`~repro.sqlengine.catalog.Catalog.pin_tables`) and gets a
:class:`TableSnapshot`: the segment list with each segment's tombstone
set captured as a frozenset, plus a copy of the (small) delta.  Readers
never take the lock while scanning, so one writer and any number of
readers proceed without blocking each other beyond the pin and
mutation critical sections.  The engine's scan operators consult the
current thread's *installed pins* (:func:`pinned`, set up by
``QueryPlanner.execute`` around each query) so every batch of one
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
is never skipped (see ``BatchScanOp`` in
:mod:`repro.sqlengine.planner.physical`).

**Values.**  Segments and the pinned delta hold the column values
themselves (TEXT included), so :meth:`TableSnapshot.column_slice`
returns a plain list, and a pinned reader sees every value as it was
at pin time, whatever later writes do.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress

__all__ = [
    "FrozenSegment",
    "SLICE_DELETE_RUNS",
    "TableSnapshot",
    "TableStorage",
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

    def live_values(self) -> list:
        """A fresh list per column of the values of the live rows."""
        return [
            list(self.live_column(index, self.tombstones))
            for index in range(len(self.columns))
        ]


def _frozen(columns: list) -> FrozenSegment:
    """A new segment holding *columns* (one value sequence each)."""
    return FrozenSegment(tuple(map(tuple, columns)), len(columns[0]))


class TableSnapshot:
    """A pinned, immutable view: frozen segments + a copied delta.

    Row coordinates are the table's *live* positions at pin time
    (``0 .. row_count``).
    """

    __slots__ = ("entries", "delta_columns", "prefix", "row_count")

    def __init__(self, entries: list, delta_columns: list, prefix: list):
        #: ``(segment, tombstones frozenset | None, live_count)`` per segment
        self.entries = entries
        self.delta_columns = delta_columns
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

    def iter_rows(self):
        """Every live row in table order, as a tuple."""
        width = len(self.delta_columns)
        for segment, tombstones, __ in self.entries:
            yield from zip(
                *[segment.live_column(i, tombstones) for i in range(width)]
            )
        yield from zip(*self.delta_columns)


#: a DELETE whose delta positions form at most this many runs of
#: consecutive rows cuts them out one slice at a time instead of
#: compacting every delta list through a keep-mask
SLICE_DELETE_RUNS = 64


def _runs(ordered, limit: int) -> "list | None":
    """The maximal ``(start, stop)`` runs of ascending *ordered*, or
    None when there are more than *limit* of them."""
    cuts = [
        i for i in range(1, len(ordered)) if ordered[i] != ordered[i - 1] + 1
    ]
    if len(cuts) >= limit:
        return None
    bounds = [0, *cuts, len(ordered)]
    return [
        (ordered[a], ordered[b - 1] + 1) for a, b in zip(bounds, bounds[1:])
    ]


class TableStorage:
    """The rows of one table: frozen segments, then the delta.

    Invariants (checked by the property tests against the flat column
    model in ``tests/sqlengine/reference_storage.py``): the delta holds
    fewer than ``threshold`` rows, no segment is empty or at least half
    dead, and ``frozen_live`` is the segments' live row count.  Every
    method must be called under the table's storage lock; ``count``
    changes last, so a lock-free ``len`` sees a committed row count.
    """

    __slots__ = ("threshold", "segments", "delta", "frozen_live", "count",
                 "_prefix")

    def __init__(self, threshold: int, width: int) -> None:
        self.threshold = threshold
        self.segments: list = []
        self.delta: list = [[] for __ in range(width)]
        #: live rows across segments == the delta's start position
        self.frozen_live = 0
        #: live rows in total
        self.count = 0
        self._prefix: "list | None" = None

    # -- reads ---------------------------------------------------------
    def _starts(self) -> list:
        """The live position each segment starts at, then frozen_live."""
        if self._prefix is None:
            self._prefix = [
                0, *accumulate(s.live_count for s in self.segments)
            ]
        return self._prefix

    def locate(self, position: int) -> tuple:
        """``(segment index, physical offset)`` of a live *position*;
        ``(None, offset)`` when it lies in the delta."""
        if position >= self.frozen_live:
            return None, position - self.frozen_live
        starts = self._starts()
        index = bisect_right(starts, position) - 1
        offset = position - starts[index]
        segment = self.segments[index]
        keep = segment.live_to_physical(segment.tombstones)
        return index, offset if keep is None else keep[offset]

    def row(self, position: int) -> tuple:
        index, offset = self.locate(position)
        columns = self.delta if index is None else self.segments[index].columns
        return tuple([column[offset] for column in columns])

    def column(self, index: int) -> list:
        """A fresh list of column *index*'s live values."""
        out: list = []
        for segment in self.segments:
            out += segment.live_column(index, segment.tombstones)
        out += self.delta[index]
        return out

    def snapshot(self) -> TableSnapshot:
        entries = [
            (
                segment,
                frozenset(segment.tombstones) if segment.tombstones else None,
                segment.live_count,
            )
            for segment in self.segments
        ]
        return TableSnapshot(
            entries,
            [store[:] for store in self.delta],  # a slice is already a copy
            [*self._starts(), self.count],
        )

    def stats(self) -> dict:
        return {
            "segments": len(self.segments),
            "frozen_live": self.frozen_live,
            "delta_rows": self.count - self.frozen_live,
            "tombstones": sum(
                len(segment.tombstones) for segment in self.segments
            ),
        }

    # -- writes --------------------------------------------------------
    def _freeze(self, columns: list) -> None:
        self.segments.append(_frozen(columns))
        self.frozen_live += len(columns[0])
        self._prefix = None

    def append(self, columns: list, count: int) -> None:
        """Add *count* rows, given as one value sequence per column."""
        delta = self.delta
        threshold = self.threshold
        taken = threshold - len(delta[0])
        if count < taken:
            for store, values in zip(delta, columns):
                store.extend(values)
        else:
            # the delta's rows plus the batch's first ones fill a segment,
            # then every whole chunk of the batch is one more
            self._freeze([
                [*store, *values[:taken]]
                for store, values in zip(delta, columns)
            ])
            while count - taken >= threshold:
                self._freeze([
                    values[taken : taken + threshold] for values in columns
                ])
                taken += threshold
            self.delta = [list(values[taken:]) for values in columns]
        self.count += count

    def update(self, positions, rows) -> None:
        """Rewrite the rows at live *positions* with *rows*, in order."""
        frozen = self.frozen_live
        starts = self._starts()
        delta = self.delta
        touched: dict = {}  # segment index -> {live offset: row}
        for position, row in zip(positions, rows):
            if position >= frozen:
                offset = position - frozen
                for store, value in zip(delta, row):
                    store[offset] = value
            else:
                index = bisect_right(starts, position) - 1
                touched.setdefault(index, {})[position - starts[index]] = row
        for index, rewrites in touched.items():
            columns = self.segments[index].live_values()
            for offset, row in rewrites.items():
                for column, value in zip(columns, row):
                    column[offset] = value
            # same live count: the starts stay valid
            self.segments[index] = _frozen(columns)

    def delete(self, ordered) -> None:
        """Remove the rows at ascending, unique live *ordered* positions."""
        frozen = self.frozen_live
        cut = bisect_left(ordered, frozen)
        if cut < len(ordered):
            self._cut_delta([p - frozen for p in ordered[cut:]])
        if cut:
            doomed: dict = {}  # segment index -> physical offsets
            for position in ordered[:cut]:
                index, offset = self.locate(position)
                doomed.setdefault(index, []).append(offset)
            for index, offsets in doomed.items():
                self.segments[index].tombstones.update(offsets)
            survivors = []
            for segment in self.segments:
                if segment.live_count == 0:
                    continue
                if len(segment.tombstones) * 2 >= segment.size:
                    segment = _frozen(segment.live_values())
                survivors.append(segment)
            self.segments = survivors
            self.frozen_live = frozen - cut
            self._prefix = None
        self.count -= len(ordered)

    def _cut_delta(self, ordered: list) -> None:
        runs = _runs(ordered, SLICE_DELETE_RUNS)
        if runs is not None:
            for store in self.delta:
                for start, stop in reversed(runs):
                    del store[start:stop]
            return
        # one keep-mask for every delta list, applied at C speed
        keep = bytearray(b"\x01") * len(self.delta[0])
        for position in ordered:
            keep[position] = 0
        self.delta = [list(compress(store, keep)) for store in self.delta]

    def load(self, columns: list) -> None:
        """Replace every row with *columns* (one value list per column)."""
        self.segments = []
        self.delta = [[] for __ in columns]
        self.frozen_live = 0
        self.count = 0
        self._prefix = None
        self.append(columns, len(columns[0]))


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


def snapshot_of(table) -> TableSnapshot:
    """The snapshot a scan of *table* must read: the thread's installed
    pin when a query-level scope is active, otherwise a fresh ad-hoc pin
    (consistent within the one call that took it)."""
    pinned_snapshot = pin_for(table)
    if pinned_snapshot is not None:
        return pinned_snapshot
    return table.pin()


class pinned:
    """Install a pin set thread-locally for a ``with`` block.

    Scopes nest (the previous pin set is restored on exit).
    """

    __slots__ = ("_pins", "_previous")

    def __init__(self, pins: dict) -> None:
        self._pins = pins
        self._previous = None

    def __enter__(self) -> dict:
        self._previous = getattr(_TLS, "pins", None)
        _TLS.pins = self._pins
        return self._pins

    def __exit__(self, *exc) -> bool:
        _TLS.pins = self._previous
        return False
