"""Dictionary encoding for low-cardinality TEXT columns.

The classic columnar-engine trick (C-Store compressed column ops,
MonetDB/X100 vectorized execution over encoded vectors): a TEXT column
whose distinct-value count stays small is stored as a *dictionary*
(code → string) plus one small integer code per row.  The vectorized
engine then works on codes wherever string semantics allow it —
equality/IN predicates compare integers, LIKE evaluates its regex once
per dictionary entry instead of once per row, GROUP BY / DISTINCT /
hash-join probes key on codes — and decodes only the rows that survive
("late materialization").

Two classes cooperate:

* :class:`ColumnDictionary` — the per-column value table, refcounted so
  UPDATE/DELETE garbage-collect codes whose last row disappeared (dead
  codes are recycled through a free list, keeping the code space
  bounded by the *live* cardinality);
* :class:`EncodedColumn` — a batch of codes bound to its dictionary.
  It quacks like the plain value list the generic operators expect
  (len / indexing / slicing / iteration all decode transparently), so
  every code-unaware path keeps working unchanged, while code-aware
  fast paths detect it with one ``isinstance`` check and read
  ``.codes`` / ``.dictionary`` directly.

NULL is represented as a ``None`` entry in the code list (it never
enters the dictionary), preserving three-valued logic for free.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

#: encode a TEXT column while its live distinct-value count stays at or
#: below this; beyond it the column's dictionary is dropped (the knob —
#: pass ``dict_encoding_threshold`` to ``Database``/``Catalog`` to
#: override per instance, 0 disables encoding entirely)
DICT_ENCODING_MAX_DISTINCT = 256


class ColumnDictionary:
    """Refcounted code ↔ value table of one encoded TEXT column.

    ``values[code]`` is the string for *code* (``None`` marks a dead,
    recyclable slot), ``code_of`` is the inverse map over live codes
    only, and ``refcounts[code]`` counts the rows currently using the
    code.  :attr:`version` bumps whenever the code → value mapping
    changes (a new value is interned or a dead code is collected), so
    per-dictionary memos (e.g. the LIKE match table) can validate
    cheaply.
    """

    __slots__ = (
        "values", "code_of", "refcounts", "free_codes", "version", "_view"
    )

    def __init__(self) -> None:
        self.values: list = []
        self.code_of: dict = {}
        self.refcounts: list = []
        self.free_codes: list = []
        self.version = 0
        self._view: "DictionaryView | None" = None

    @property
    def live_count(self) -> int:
        """Distinct values currently referenced by at least one row."""
        return len(self.code_of)

    def view(self) -> "DictionaryView":
        """An immutable copy of the current mapping, cached per version.

        A pinned reader decodes through the view it captured, so a code
        freed and reused by a later write still decodes to the value it
        had at pin time.  Called under the table's storage lock.
        """
        view = self._view
        if view is None or view.version != self.version:
            view = DictionaryView(
                tuple(self.values), dict(self.code_of), self.version
            )
            self._view = view
        return view

    def encode(self, value: str) -> int:
        """Intern *value* (refcount +1) and return its code."""
        code = self.code_of.get(value)
        if code is not None:
            self.refcounts[code] += 1
            return code
        if self.free_codes:
            code = self.free_codes.pop()
            self.values[code] = value
            self.refcounts[code] = 1
        else:
            code = len(self.values)
            self.values.append(value)
            self.refcounts.append(1)
        self.code_of[value] = code
        self.version += 1
        return code

    def release(self, code: int) -> None:
        """Drop one reference to *code*; collect the slot at zero."""
        count = self.refcounts[code] - 1
        self.refcounts[code] = count
        if count == 0:
            del self.code_of[self.values[code]]
            self.values[code] = None
            self.free_codes.append(code)
            self.version += 1


class DictionaryView(NamedTuple):
    """One version of a :class:`ColumnDictionary`, frozen.

    Carries what readers use and never changes, so snapshot batches stay
    decodable however the live dictionary moves on.
    """

    values: tuple
    code_of: dict
    version: int


class EncodedColumn:
    """A batch of dictionary codes that decodes transparently.

    Generic operators treat it as the sequence of decoded values;
    code-aware fast paths read :attr:`codes` (``None`` = NULL) and
    :attr:`dictionary` — a live :class:`ColumnDictionary` for flat
    storage, a :class:`DictionaryView` for a pinned snapshot — directly.
    Like plain batch columns, callers must not mutate it.
    """

    __slots__ = ("dictionary", "codes")

    def __init__(
        self, dictionary: "ColumnDictionary | DictionaryView", codes: list
    ) -> None:
        self.dictionary = dictionary
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EncodedColumn(self.dictionary, self.codes[index])
        code = self.codes[index]
        return None if code is None else self.dictionary.values[code]

    def __iter__(self) -> Iterator:
        # a list comprehension decodes a batch faster than a generator
        return iter(self.decode())

    def count(self, value) -> int:
        """Occurrences of *value* (NULL counts count ``None`` codes)."""
        if value is None:
            return self.codes.count(None)
        code = self.dictionary.code_of.get(value)
        return 0 if code is None else self.codes.count(code)

    def gather(self, indices: Sequence[int]) -> "EncodedColumn":
        """The selected rows, still encoded (codes gathered, not values)."""
        codes = self.codes
        return EncodedColumn(self.dictionary, [codes[i] for i in indices])

    def decode(self) -> list:
        """The plain value list (NULLs as ``None``)."""
        values = self.dictionary.values
        return [None if code is None else values[code] for code in self.codes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EncodedColumn n={len(self.codes)} "
            f"dict={len(self.dictionary.code_of)} values>"
        )


def gather_column(column, indices: Sequence[int]) -> "list | EncodedColumn":
    """Gather one batch column, preserving dictionary encoding."""
    if isinstance(column, EncodedColumn):
        return column.gather(indices)
    return [column[i] for i in indices]

