"""The :class:`ResultSet` produced by executing a SELECT.

Lives in its own module so both :mod:`~repro.sqlengine.database` and
the planner's physical operators can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SqlExecutionError


@dataclass
class ResultSet:
    """The rows produced by a SELECT.

    DML statements return an empty result whose ``rowcount`` records how
    many rows the statement touched (None for queries and DDL).
    """

    columns: list[str]
    rows: list[tuple]
    rowcount: "int | None" = None

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise SqlExecutionError(
                f"no column {name!r} in result (have {self.columns})"
            ) from None
        return [row[index] for row in self.rows]
