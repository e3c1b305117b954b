"""Small concurrency primitives shared across the engine.

:class:`SharedRLock` exists because the storage layer embeds locks in
objects the rest of the codebase treats as plain values: a test
deep-copies a whole warehouse (catalog, tables, plan cache) to annotate
a copy.  A raw ``threading.RLock`` makes ``copy.deepcopy`` fail for the
whole object graph; this wrapper copies as a *fresh, unlocked* lock
while preserving sharing (two objects holding the same lock before a
deepcopy hold one shared lock after it, via the deepcopy memo).
"""

from __future__ import annotations

import threading

__all__ = ["SharedRLock"]


class SharedRLock:
    """A reentrant lock, used as a context manager, that survives deepcopy.

    Semantics of the copy: brand new and unlocked — lock *state* is
    inherently tied to live threads and never meaningfully copyable.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def __enter__(self) -> "SharedRLock":
        self._lock.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._lock.release()
        return False

    def __deepcopy__(self, memo: dict) -> "SharedRLock":
        clone = type(self)()
        memo[id(self)] = clone
        return clone
