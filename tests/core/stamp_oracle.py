"""The oracle for dependency-stamped caches: a memo-free recompute.

Whatever a :class:`~repro.core.serving.SearchSession` serves — computed
or from the result cache — must equal what ``Soda.search`` produces for
the same text *right now* with the lookup term memos, the inverted
index's phrase / sorted caches and the result cache out of the picture.
:func:`fresh_answer` computes that without disturbing the memos under
test (they are swapped out for empty dicts and put back), so a stale
memo entry left behind by a write is still there for the next served
search to trip over.

Shared by ``tests/property/test_property_result_cache.py``,
``tests/core/test_stamp_concurrency.py`` and
``tests/core/test_stamp_effect.py``.
"""

from __future__ import annotations

import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.core.serving import SearchSession


def load_ledger_workloads():
    """``benchmarks/ledger/workloads.py`` as a module (pool, Zipf draw, writes)."""
    name = "ledger_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name,
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "ledger" / "workloads.py",
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    return sys.modules[name]


@contextmanager
def memo_free(soda):
    """Run the body with every lookup-side memo empty; restore them after."""
    lookup, inverted = soda._lookup, soda.warehouse.inverted
    holders = [
        (lookup, "_alternatives_cache"), (lookup, "_metadata_cache"),
        (inverted, "_phrase_cache"), (inverted, "_sorted_cache"),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name in holders]
    for owner, name in holders:
        setattr(owner, name, {})
    try:
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def answer(result) -> dict:
    """The wire shape of *result* without its (per-compute) timings."""
    payload = result.to_dict()
    del payload["timings"]
    return payload


def fresh_answer(soda, text: str, execute: bool = True, limit=None) -> dict:
    """What an uncached, memo-free search answers for *text* right now."""
    with memo_free(soda):
        session = SearchSession(
            soda, execute=execute, limit=limit, result_cache_size=0
        )
        return answer(session.search(text))


def reads_table(result, table: str) -> bool:
    """True when a statement of *result* scans *table*."""
    return any(table in scored.statement.tables for scored in result.statements)
