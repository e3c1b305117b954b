"""Dependency stamps: the one way a cached answer is invalidated.

A cached answer (a search result, a lookup term memo, a phrase probe, a
prepared plan) carries a :class:`DependencyStamp` and is *validated
when it is read*; nothing is flushed because "something, somewhere"
changed.  A stamp is two things: **as-of marks read before the
compute**, and **the keys the compute actually depended on**.  It is
valid iff no key changed after its mark.  Three parts, each optional:

* **global** — one opaque mark for the inputs that rarely move (DDL
  version, metadata-graph / classification versions, the
  open-transaction token, feedback state).  Compared for equality, so
  any change to any of them still invalidates everything.
* **inverted** — ``tick`` (``InvertedIndex.version`` before the
  compute) plus the ``tokens`` whose postings the compute probed; valid
  iff :meth:`InvertedIndex.unchanged_since(tick, tokens)
  <repro.index.inverted.InvertedIndex.unchanged_since>`.
* **tables** — ``((name, Table.version), ...)`` *as read before the
  compute* for the tables the answer scanned or counted; valid iff
  :meth:`Catalog.table_versions
  <repro.sqlengine.catalog.Catalog.table_versions>` still returns the
  same tuple (a dropped or re-created table reads ``None`` or a reset
  counter and never matches).

**The invariant all of this rests on:** a counter ticks only *after*
the change it records is visible — ``Table._version += 1`` and
``InvertedIndex._version = ...`` are the last store of every mutation,
under the storage lock; ``Catalog._ddl_version`` moves after the table
map did.  A mark read before the compute can therefore make a stamp too
old (a compute that raced a write is stamped pre-write, fails its first
validation and is recomputed), never too new.  Whoever builds a stamp
must read the marks *first* and narrow the keys *afterwards*; reading a
mark after the compute would break exactly this.

All imprecision is on the safe side: a token counts as changed when
only a value count moved, a table's version moves on any write to any
of its rows, and the global part is all-or-nothing.
"""

from __future__ import annotations

__all__ = ["DependencyStamp"]


class DependencyStamp:
    """As-of marks plus the keys one cached answer depended on."""

    __slots__ = ("global_mark", "tick", "tokens", "tables")

    def __init__(self, global_mark=None, tick=0, tokens=(), tables=()) -> None:
        self.global_mark = global_mark
        self.tick = tick
        self.tokens = tokens
        self.tables = tables

    def valid(self, global_now=None, inverted=None, catalog=None) -> bool:
        """True iff nothing this stamp names changed after its marks.

        The caller passes the *current* global mark and the sources the
        marks were read from (an ``InvertedIndex`` when the stamp has
        tokens, a ``Catalog`` when it has tables).
        """
        if self.global_mark != global_now:
            return False
        if self.tokens and not inverted.unchanged_since(self.tick, self.tokens):
            return False
        return not self.tables or self.tables == catalog.table_versions(
            name for name, __ in self.tables
        )
