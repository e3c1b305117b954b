"""Persistent columnar segment checkpoints.

A checkpoint is one gzip-compressed JSON document holding the whole
catalog: schemas, per-table counters, and per-column data in its
*native* storage form — dictionary columns keep their value table and
code list, typed-array columns keep their typecode — so loading is a
bulk columnar fill instead of a row-at-a-time re-ingest (the perf
ledger's ``recover_s`` on ``engine_ingest_mix`` measures it).

The file is written atomically (temp file, fsync, ``os.replace``) and
stamped with the WAL *generation* it pairs with; recovery replays only
the WAL file of the matching generation, which is what makes the
checkpoint-then-truncate sequence crash-safe at every intermediate
point (see :mod:`repro.sqlengine.txn.manager`).
"""

from __future__ import annotations

import gzip
import os
from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.sqlengine.catalog import Column, ForeignKey
from repro.sqlengine.encoding import ArrayColumn, ColumnDictionary
from repro.sqlengine.types import SqlType
from repro.sqlengine.txn.wal import dump_payload, load_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sqlengine.catalog import Catalog, Table

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def _column_state(table: "Table", index: int) -> dict:
    dictionary = table.column_dictionary(index)
    if dictionary is not None:
        return {
            "t": "dict",
            # dead slots stay None so surviving codes keep their meaning
            "values": list(dictionary.values),
            "codes": list(table.column_codes(index)),
        }
    store = table.column_data(index)
    if isinstance(store, ArrayColumn) and not store.demoted:
        return {"t": "array", "typecode": store.typecode, "values": store[:]}
    return {"t": "plain", "values": list(store)}


def catalog_state(catalog: "Catalog", generation: int) -> dict:
    """The JSON-ready image of *catalog* for WAL generation *generation*."""
    tables = []
    for table in catalog._tables.values():  # creation order, not sorted
        tables.append(
            {
                "name": table.name,
                "columns": [
                    [c.name, c.sql_type.value, c.primary_key]
                    for c in table.columns
                ],
                "foreign_keys": [
                    [list(fk.columns), fk.ref_table, list(fk.ref_columns)]
                    for fk in table.foreign_keys
                ],
                "version": table.version,
                "mutation_count": table.mutation_count,
                "row_count": len(table.rows),
                "data": [
                    _column_state(table, index)
                    for index in range(len(table.columns))
                ],
            }
        )
    return {
        "checkpoint_version": CHECKPOINT_VERSION,
        "generation": generation,
        "ddl_version": catalog.ddl_version,
        "tables": tables,
    }


def save_checkpoint(path: str, catalog: "Catalog", generation: int) -> int:
    """Atomically write the checkpoint file; returns its byte size."""
    payload = gzip.compress(
        dump_payload(catalog_state(catalog, generation)), mtime=0
    )
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path) or ".")
    return len(payload)


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint file (shape only, not content)."""
    try:
        with gzip.open(path, "rb") as handle:
            state = load_payload(handle.read())
    except FileNotFoundError:
        raise RecoveryError(
            f"checkpoint missing: {path}", path=path, kind="checkpoint"
        ) from None
    except (OSError, EOFError, ValueError) as exc:
        raise RecoveryError(
            f"unreadable checkpoint {path}: {exc}", path=path, kind="checkpoint"
        ) from exc
    if not isinstance(state, dict) or "tables" not in state:
        raise RecoveryError(
            f"malformed checkpoint {path}: not a catalog image",
            path=path,
            kind="checkpoint",
        )
    if state.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise RecoveryError(
            f"checkpoint {path} has unsupported version "
            f"{state.get('checkpoint_version')!r}",
            path=path,
            kind="checkpoint",
        )
    return state


def _decoded_values(column_state: dict) -> list:
    """The plain Python value list of one stored column."""
    if column_state["t"] == "dict":
        values = column_state["values"]
        return [
            None if code is None else values[code]
            for code in column_state["codes"]
        ]
    return list(column_state["values"])


def _restore_dictionary(
    table: "Table", index: int, column_state: dict
) -> None:
    """Rebuild one column's dictionary + codes from their stored form."""
    dictionary = ColumnDictionary()
    values = list(column_state["values"])
    codes = list(column_state["codes"])
    dictionary.values = values
    dictionary.refcounts = [0] * len(values)
    for code in codes:
        if code is not None:
            dictionary.refcounts[code] += 1
    dictionary.free_codes = [
        code for code, value in enumerate(values) if value is None
    ]
    dictionary.code_of = {
        value: code for code, value in enumerate(values) if value is not None
    }
    table._dictionaries[index] = dictionary
    table._codes[index] = codes


def restore_catalog(catalog: "Catalog", state: dict, path: str = "") -> None:
    """Recreate the saved tables inside an empty *catalog*.

    Storage is bulk-filled in columnar form, bypassing the per-value
    insert path entirely; rows are rebuilt by zipping the columns.
    Encoding mismatches between the file and the catalog's settings
    degrade gracefully: a stored dictionary loads as plain values when
    encoding is disabled, a stored plain TEXT column disables its new
    dictionary, and array/plain numeric storage converts either way
    through the normal slice-assignment path.
    """
    try:
        for table_state in state["tables"]:
            columns = [
                Column(name, SqlType(type_name), bool(primary_key))
                for name, type_name, primary_key in table_state["columns"]
            ]
            foreign_keys = [
                ForeignKey(tuple(cols), ref_table, tuple(ref_cols))
                for cols, ref_table, ref_cols in table_state["foreign_keys"]
            ]
            table = catalog.create_table(
                table_state["name"], columns, foreign_keys
            )
            column_values = []
            for index, column_state in enumerate(table_state["data"]):
                values = _decoded_values(column_state)
                if len(values) != table_state["row_count"]:
                    raise RecoveryError(
                        f"checkpoint {path}: column "
                        f"{columns[index].name!r} of "
                        f"{table.name!r} has {len(values)} values for "
                        f"{table_state['row_count']} rows",
                        path=path,
                        kind="checkpoint",
                    )
                column_values.append(values)
                if column_state["t"] == "dict":
                    if table.column_dictionary(index) is not None:
                        _restore_dictionary(table, index, column_state)
                    # else: encoding now disabled — plain values suffice
                elif table.column_dictionary(index) is not None:
                    # stored unencoded (cardinality had outgrown the
                    # threshold); don't resurrect a dictionary the
                    # writer already dropped
                    table._disable_dictionary(index)
                table.column_data(index)[:] = values
            table.rows[:] = list(zip(*column_values)) if column_values else []
            table._check_dictionary_thresholds()
            table._version = table_state["version"]
            table._mutation_count = table_state["mutation_count"]
        catalog._ddl_version = state["ddl_version"]
    except RecoveryError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise RecoveryError(
            f"malformed checkpoint {path}: {exc!r}", path=path, kind="checkpoint"
        ) from exc
