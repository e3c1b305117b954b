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

This module also hosts :class:`ArrayColumn`, the opt-in typed buffer
backing INTEGER/REAL column storage (``EngineConfig(array_store=True)``):
values live in a contiguous ``array.array`` with a validity bitmap for
NULLs, while every read decodes back to plain Python objects so the
rest of the engine never notices.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

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

    __slots__ = ("values", "code_of", "refcounts", "free_codes", "version")

    def __init__(self) -> None:
        self.values: list = []
        self.code_of: dict = {}
        self.refcounts: list = []
        self.free_codes: list = []
        self.version = 0

    @property
    def live_count(self) -> int:
        """Distinct values currently referenced by at least one row."""
        return len(self.code_of)

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


class EncodedColumn:
    """A batch of dictionary codes that decodes transparently.

    Generic operators treat it as the sequence of decoded values;
    code-aware fast paths read :attr:`codes` (``None`` = NULL) and
    :attr:`dictionary` directly.  Like plain batch columns, callers
    must not mutate it.
    """

    __slots__ = ("dictionary", "codes")

    def __init__(self, dictionary: ColumnDictionary, codes: list) -> None:
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
        values = self.dictionary.values
        return (None if code is None else values[code] for code in self.codes)

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
            f"dict={self.dictionary.live_count} values>"
        )


def gather_column(column, indices: Sequence[int]) -> "list | EncodedColumn":
    """Gather one batch column, preserving dictionary encoding."""
    if isinstance(column, EncodedColumn):
        return column.gather(indices)
    return [column[i] for i in indices]


#: int64 bounds of the ``'q'`` array typecode; INTEGER values outside
#: this range demote an :class:`ArrayColumn` to plain-list storage
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class ArrayColumn:
    """Typed buffer storage for one INTEGER or REAL column.

    Values live in a contiguous ``array.array`` — ``'q'`` (int64) for
    INTEGER, ``'d'`` (float64) for REAL — next to a byte-per-row
    validity bitmap (1 = present, 0 = NULL; NULL rows hold a zero
    placeholder in the buffer).  The point is footprint: 8 bytes per
    value instead of a pointer to a boxed Python object, with NULLs
    costing one extra byte.

    The class quacks like the plain value list ``Table._column_data``
    otherwise holds, supporting exactly the operations the engine
    performs: ``len``/iteration/int indexing, **slicing that returns an
    ordinary list** (so batch operators downstream see plain values),
    ``append`` (insert), in-place item assignment (update) and
    whole-buffer slice assignment (delete compaction).  Object identity
    is stable across all mutations — including *demotion*: an INTEGER
    value outside the signed 64-bit range silently converts the
    internal storage to a plain Python list in place, so live
    references held by prepared plans keep seeing correct data.

    Because :func:`~repro.sqlengine.types.coerce_value` guarantees
    INTEGER columns hold only ``int`` and REAL columns only ``float``,
    round-tripping through the array preserves each value's exact
    Python type.
    """

    __slots__ = ("typecode", "_data", "_valid")

    def __init__(self, typecode: str) -> None:
        if typecode not in ("q", "d"):
            raise ValueError(f"unsupported ArrayColumn typecode: {typecode!r}")
        self.typecode = typecode
        self._data = array(typecode)
        #: byte-per-row validity bitmap, or None once demoted to a list
        self._valid: "bytearray | None" = bytearray()

    # -- read side -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        data = self._data
        valid = self._valid
        if valid is None:  # demoted: plain list semantics throughout
            return data[index]
        if isinstance(index, slice):
            values = data[index].tolist()
            flags = valid[index]
            if 0 in flags:
                for i, flag in enumerate(flags):
                    if not flag:
                        values[i] = None
            return values
        return data[index] if valid[index] else None

    def __iter__(self) -> Iterator:
        if self._valid is None:
            return iter(self._data)
        return iter(self[:])

    def count(self, value) -> int:
        if self._valid is None:
            return self._data.count(value)
        if value is None:
            return self._valid.count(0)
        matches = self._data.count(value)
        if matches and 0 in self._valid:
            # don't let NULL placeholders masquerade as real zeros
            matches = sum(
                1
                for entry, flag in zip(self._data, self._valid)
                if flag and entry == value
            )
        return matches

    # -- write side (the single Table mutation path) -------------------
    def append(self, value) -> None:
        if self._valid is None:
            self._data.append(value)
            return
        if value is None:
            self._data.append(0)
            self._valid.append(0)
        else:
            try:
                self._data.append(value)
            except OverflowError:
                self._demote()
                self._data.append(value)
                return
            self._valid.append(1)

    def __setitem__(self, index, value) -> None:
        if self._valid is None:
            if isinstance(index, slice):
                self._data[index] = list(value)
            else:
                self._data[index] = value
            return
        if isinstance(index, slice):
            values = list(value)
            try:
                segment = array(
                    self.typecode, [0 if v is None else v for v in values]
                )
            except OverflowError:
                self._demote()
                self._data[index] = values
                return
            self._data[index] = segment
            self._valid[index] = bytes(
                0 if v is None else 1 for v in values
            )
            return
        if value is None:
            self._data[index] = 0
            self._valid[index] = 0
        else:
            try:
                self._data[index] = value
            except OverflowError:
                self._demote()
                self._data[index] = value
                return
            self._valid[index] = 1

    def _demote(self) -> None:
        """Switch to plain-list storage in place (int64 overflow)."""
        values = self._data.tolist()
        valid = self._valid
        if valid is not None and 0 in valid:
            for i, flag in enumerate(valid):
                if not flag:
                    values[i] = None
        self._data = values
        self._valid = None

    @property
    def demoted(self) -> bool:
        """True once an out-of-range value forced plain-list storage."""
        return self._valid is None

    @classmethod
    def for_sql_type(cls, type_name: str) -> "ArrayColumn":
        """The buffer for a column of SQL type *type_name* (the enum value)."""
        return cls("q" if type_name == "INTEGER" else "d")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "list" if self._valid is None else self.typecode
        return f"<ArrayColumn {kind} n={len(self._data)}>"
