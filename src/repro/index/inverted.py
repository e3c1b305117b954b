"""Inverted index over the base data (paper Section 5.1.2).

The paper builds an inverted index over all text columns of the 472 base
tables (9.5 GB, 24-hour build).  Here the same structure is built in
memory: every token of every TEXT column value maps to a posting list
recording the table, column and exact stored value.  Step 1 (lookup)
probes this index to turn query keywords into base-data entry points, and
Step 4 (filters) turns a posting into an equality filter such as
``addresses.city = 'Zurich'``.

The index is designed for *long-lived* service (the paper amortizes its
24-hour build across many interactive searches):

* postings can be added and removed (and whole tables dropped)
  incrementally, so a registered
  :class:`~repro.index.maintenance.InvertedIndexMaintainer` keeps the
  index fresh under INSERT/UPDATE/DELETE/DDL without any rebuild;
* sorted posting lists, tokenized haystacks and phrase-lookup results
  are cached, and a write invalidates only what it touched: the index
  records, per token, the :attr:`~InvertedIndex.version` at which its
  postings or value counts last changed (plus a *floor* for
  whole-index changes such as :meth:`~InvertedIndex.remove_table`), and
  :meth:`~InvertedIndex.unchanged_since` answers "did any of these
  tokens change after this tick?" in O(tokens).  Cached phrase results
  carry the tick they were computed at and are validated by that
  question when read, as are the lookup-step term memos and the serving
  layer's search results (see :mod:`repro.stamps`);
* :meth:`to_dict` / :meth:`from_dict` serialize the index for the
  warm-start snapshots of :mod:`repro.index.snapshot`.

Numeric columns are deliberately *not* indexed — the paper notes "base
data table columns with numerical data types are not contained in our
inverted index".
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.errors import WarehouseError
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.types import SqlType

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: per-token change stamps kept; past this the older half folds into
#: the floor (a constant, not a knob: folding only costs old stamps a
#: recompute, and 8192 tokens is far more than a write burst touches)
MAX_TOKEN_STAMPS = 8192


def tokenize_text(text: str) -> list[str]:
    """Lowercase word tokens of a stored value or a query phrase.

    >>> tokenize_text('Credit Suisse AG')
    ['credit', 'suisse', 'ag']
    """
    return _TOKEN_RE.findall(text.lower())


def count_phrase_occurrences(haystack: tuple, needle: tuple) -> int:
    """Contiguous occurrences of token sequence *needle* in *haystack*.

    >>> count_phrase_occurrences(('a', 'b', 'a', 'b'), ('a', 'b'))
    2
    >>> count_phrase_occurrences(('a', 'x', 'b'), ('a', 'b'))
    0
    """
    if not needle or len(needle) > len(haystack):
        return 0
    first = needle[0]
    width = len(needle)
    count = 0
    for position in range(len(haystack) - width + 1):
        if haystack[position] == first and haystack[position:position + width] == needle:
            count += 1
    return count


@dataclass(frozen=True)
class Posting:
    """One occurrence of a token (or phrase) in the base data."""

    table: str
    column: str
    value: str
    occurrences: int = 1

    def sort_key(self) -> tuple:
        return (self.table, self.column, self.value)


class InvertedIndex:
    """Token -> posting list over the TEXT columns of a catalog.

    >>> from repro.sqlengine import Database
    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INT, city TEXT)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'Zurich'), (2, 'Zurich')")
    >>> index = InvertedIndex.build(db.catalog)
    >>> index.lookup('zurich')[0].occurrences
    2
    """

    def __init__(self) -> None:
        # token -> set of (table, column, value) keys
        self._postings: dict[str, set[tuple]] = defaultdict(set)
        # (table, column, value) -> number of rows storing that value
        self._value_counts: dict[tuple, int] = {}
        self._entries = 0
        self._version = 0
        # token -> version at which its postings or counts last changed;
        # a token not listed last changed at or before _floor
        self._touched: dict[str, int] = {}
        self._floor = 0
        # caches: sorted postings are dropped per touched token by
        # _invalidate(); a phrase entry is (tick, postings), validated
        # by unchanged_since() when read
        self._sorted_cache: dict[str, list[Posting]] = {}
        self._haystack_cache: dict[tuple, tuple] = {}
        self._phrase_cache: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, catalog: Catalog, tables: Iterable[str] | None = None
    ) -> "InvertedIndex":
        """Index every TEXT column of *catalog* (or only *tables*)."""
        index = cls()
        names = list(tables) if tables is not None else catalog.table_names()
        for table_name in names:
            table = catalog.table(table_name)
            text_columns = [
                (column.name, table.column_data(position))
                for position, column in enumerate(table.columns)
                if column.sql_type is SqlType.TEXT
            ]
            if not text_columns:
                continue
            names, stores = zip(*text_columns)
            # row-major over the TEXT columns only, as the write path adds
            for values in zip(*stores):
                for column_name, value in zip(names, values):
                    if value is not None:
                        index.add(table_name, column_name, value)
        return index

    def add(self, table: str, column: str, value: str) -> None:
        """Index one stored value (the incremental write path)."""
        key = (table, column, value)
        tokens = set(tokenize_text(value))
        for token in tokens:
            self._postings[token].add(key)
        self._value_counts[key] = self._value_counts.get(key, 0) + 1
        self._entries += 1
        self._invalidate(tokens)

    def remove(self, table: str, column: str, value: str) -> None:
        """Un-index one stored value (the incremental UPDATE/DELETE path).

        The exact inverse of :meth:`add`: the value count is
        decremented, and when the last row storing *value* is gone its
        postings disappear from every token's list.
        """
        key = (table, column, value)
        count = self._value_counts.get(key)
        if count is None:
            raise WarehouseError(
                f"cannot remove unindexed value {value!r} "
                f"({table}.{column})"
            )
        tokens = set(tokenize_text(value))
        if count <= 1:
            del self._value_counts[key]
            self._haystack_cache.pop(key, None)
            for token in tokens:
                bucket = self._postings.get(token)
                if bucket is None:
                    continue
                bucket.discard(key)
                if not bucket:
                    del self._postings[token]
        else:
            self._value_counts[key] = count - 1
        self._entries -= 1
        self._invalidate(tokens)

    def remove_table(self, table: str) -> None:
        """Drop all postings of *table* (DDL write path, rare)."""
        doomed = [key for key in self._value_counts if key[0] == table]
        if not doomed:
            return
        for key in doomed:
            self._entries -= self._value_counts.pop(key)
            for token in set(tokenize_text(key[2])):
                bucket = self._postings.get(token)
                if bucket is None:
                    continue
                bucket.discard(key)
                if not bucket:
                    del self._postings[token]
        self._invalidate(None)

    def _invalidate(self, tokens: "set | None") -> None:
        """Record a mutation that touched *tokens* (None: the whole index).

        Called last by every mutation, and the version store comes last
        in here: a tick read before a compute is never newer than what
        the compute saw (the invariant of :mod:`repro.stamps`).
        """
        version = self._version + 1
        if tokens is None:
            # floor first, then a *new* map (never emptied in place): a
            # concurrent unchanged_since() reads them in the other order
            self._floor = version
            self._touched = {}
            self._sorted_cache.clear()
            self._haystack_cache.clear()
            self._phrase_cache.clear()
        else:
            touched = self._touched
            for token in tokens:
                touched[token] = version
                self._sorted_cache.pop(token, None)
            if len(touched) > MAX_TOKEN_STAMPS:
                self._fold_stamps()
        self._version = version

    def _fold_stamps(self) -> None:
        """Fold the older half of the per-token stamps into the floor.

        Ticks below the new floor then read "changed" for every token,
        ticks at or above it read exactly as before (a folded token
        changed at or before the floor): folding can only turn
        "unchanged" into "changed".
        """
        self._floor = sorted(self._touched.values())[len(self._touched) // 2]
        self._touched = {
            token: version
            for token, version in self._touched.items()
            if version > self._floor
        }

    @property
    def version(self) -> int:
        """Bumped *after* every mutation; the tick of a dependency stamp."""
        return self._version

    def unchanged_since(self, tick: int, tokens) -> bool:
        """True iff no posting or count of any of *tokens* changed after *tick*.

        *tick* is a :attr:`version` read earlier.  Conservative: a value
        count that moved without changing the posting set counts as a
        change, and a tick older than the floor counts for every token.
        Lock-free against a concurrent writer: the map is read before
        the floor and the writer raises the floor before it swaps the
        map, so a folded map is never paired with the floor it replaced.
        """
        touched = self._touched
        if tick < self._floor:
            return False
        for token in tokens:
            if touched.get(token, 0) > tick:
                return False
        return True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, token: str) -> list[Posting]:
        """The (cached, sorted) posting list of a single token."""
        cleaned = token.lower().strip()
        cached = self._sorted_cache.get(cleaned)
        if cached is None:
            cached = sorted(
                (
                    Posting(key[0], key[1], key[2], self._value_counts[key])
                    for key in self._postings.get(cleaned, ())
                ),
                key=Posting.sort_key,
            )
            self._sorted_cache[cleaned] = cached
        return list(cached)

    def _haystack(self, key: tuple) -> tuple:
        """The tokenized stored value of *key* (cached)."""
        tokens = self._haystack_cache.get(key)
        if tokens is None:
            tokens = tuple(tokenize_text(key[2]))
            self._haystack_cache[key] = tokens
        return tokens

    def lookup_phrase(self, phrase: str) -> list[Posting]:
        """Postings whose stored value contains *phrase* contiguously.

        A multi-word keyword such as "Credit Suisse" matches values in
        which the tokens appear adjacent and in order ("Credit Suisse
        AG" matches, "Suisse Credit Union" does not).  This keeps the
        lookup consistent with the generated ``LIKE '%credit suisse%'``
        filter.  ``occurrences`` counts actual contiguous phrase
        occurrences (times the number of rows storing the value), not
        the per-token minimum, which miscounts values whose tokens
        repeat non-adjacently.
        """
        tokens = tuple(tokenize_text(phrase))
        if not tokens:
            return []
        cache_key = " ".join(tokens)
        cached = self._phrase_cache.get(cache_key)
        if cached is not None and self.unchanged_since(cached[0], tokens):
            return list(cached[1])
        tick = self._version  # before the postings are read
        keys: set[tuple] | None = None
        for token in tokens:
            token_keys = self._postings.get(token)
            if not token_keys:
                keys = set()
                break
            keys = set(token_keys) if keys is None else keys & token_keys
            if not keys:
                break
        results = []
        for key in keys or ():
            # no count: a concurrent add / remove of this value is half
            # done (readers take no lock); its tick will outdate *tick*
            rows = self._value_counts.get(key)
            if rows is None:
                continue
            per_value = count_phrase_occurrences(self._haystack(key), tokens)
            if per_value == 0:
                continue
            table, column, value = key
            results.append(Posting(table, column, value, per_value * rows))
        results.sort(key=Posting.sort_key)
        self._phrase_cache[cache_key] = (tick, results)
        return list(results)

    def has_token(self, token: str) -> bool:
        return token.lower().strip() in self._postings

    def token_count(self) -> int:
        """Number of distinct tokens in the index."""
        return len(self._postings)

    def entry_count(self) -> int:
        """Number of indexed (non-unique) values, as reported in the paper."""
        return self._entries

    def size_summary(self) -> dict:
        """Statistics in the spirit of the paper's index size report."""
        postings = sum(len(values) for values in self._postings.values())
        return {
            "distinct_tokens": len(self._postings),
            "postings": postings,
            "indexed_values": self._entries,
        }

    # ------------------------------------------------------------------
    # snapshot serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-compatible representation (see :mod:`repro.index.snapshot`).

        Keys are interned into a value table so each (table, column,
        value) triple is written once, with posting lists referring to
        it by position.
        """
        ordered = sorted(self._value_counts)
        id_of = {key: position for position, key in enumerate(ordered)}
        return {
            "values": [
                [table, column, value, self._value_counts[(table, column, value)]]
                for table, column, value in ordered
            ],
            "postings": {
                token: sorted(id_of[key] for key in keys)
                for token, keys in self._postings.items()
            },
            "entries": self._entries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InvertedIndex":
        """Rebuild an index from :meth:`to_dict` output (no re-tokenizing)."""
        index = cls()
        try:
            keys = []
            for table, column, value, count in payload["values"]:
                key = (table, column, value)
                keys.append(key)
                index._value_counts[key] = count
            for token, ids in payload["postings"].items():
                index._postings[token] = {keys[i] for i in ids}
            index._entries = payload["entries"]
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise WarehouseError(f"malformed inverted-index payload: {exc}") from exc
        return index
