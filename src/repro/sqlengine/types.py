"""SQL value model with three-valued comparison semantics.

Values are plain Python objects: ``int``, ``float``, ``str``,
``datetime.date``, ``bool`` and ``None`` (SQL NULL).  This module
centralises type names, coercion and the comparison rules used by the
expression evaluator — in particular that any comparison involving NULL
yields *unknown* (represented as ``None``), which a WHERE clause treats
as not-satisfied.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from repro.errors import SqlTypeError


class SqlType(enum.Enum):
    """The column types supported by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    @classmethod
    def from_name(cls, name: str) -> "SqlType":
        """Parse a type name, accepting common aliases.

        >>> SqlType.from_name('int')
        <SqlType.INTEGER: 'INTEGER'>
        """
        upper = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "REAL": cls.REAL,
            "FLOAT": cls.REAL,
            "DOUBLE": cls.REAL,
            "DECIMAL": cls.REAL,
            "NUMERIC": cls.REAL,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "CHAR": cls.TEXT,
            "STRING": cls.TEXT,
            "DATE": cls.DATE,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
        }
        if upper not in aliases:
            raise SqlTypeError(f"unknown SQL type: {name!r}")
        return aliases[upper]


def coerce_value(value: Any, sql_type: SqlType) -> Any:
    """Coerce *value* to *sql_type*, raising SqlTypeError if impossible.

    NULL (``None``) is valid for every type.
    """
    if value is None:
        return None
    if sql_type is SqlType.INTEGER:
        if isinstance(value, bool):
            raise SqlTypeError(f"boolean {value!r} is not an INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SqlTypeError(f"cannot coerce {value!r} to INTEGER")
    if sql_type is SqlType.REAL:
        if isinstance(value, bool):
            raise SqlTypeError(f"boolean {value!r} is not a REAL")
        if isinstance(value, (int, float)):
            return float(value)
        raise SqlTypeError(f"cannot coerce {value!r} to REAL")
    if sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return value
        raise SqlTypeError(f"cannot coerce {value!r} to TEXT")
    if sql_type is SqlType.DATE:
        if isinstance(value, datetime.date) and not isinstance(
            value, datetime.datetime
        ):
            return value
        if isinstance(value, str):
            return parse_date(value)
        raise SqlTypeError(f"cannot coerce {value!r} to DATE")
    if sql_type is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        raise SqlTypeError(f"cannot coerce {value!r} to BOOLEAN")
    raise SqlTypeError(f"unhandled SQL type: {sql_type}")  # pragma: no cover


def parse_date(text: str) -> datetime.date:
    """Parse an ISO ``YYYY-MM-DD`` date string."""
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise SqlTypeError(f"invalid DATE literal: {text!r}") from exc


def compare_values(left: Any, right: Any) -> int | None:
    """Three-valued comparison: -1 / 0 / +1, or None if either is NULL.

    Numeric types compare across int/float.  Dates compare with dates and
    with ISO date strings (the engine stores dates natively but generated
    SQL uses string literals).  Mixed other types raise SqlTypeError.
    """
    if left is None or right is None:
        return None
    left, right = _align(left, right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def _align(left: Any, right: Any) -> tuple[Any, Any]:
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return left, right
        raise SqlTypeError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return left, right
    if isinstance(left, datetime.date) and isinstance(right, str):
        return left, parse_date(right)
    if isinstance(left, str) and isinstance(right, datetime.date):
        return parse_date(left), right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    raise SqlTypeError(f"cannot compare {left!r} with {right!r}")


def values_equal(left: Any, right: Any) -> bool | None:
    """SQL equality: None if either side is NULL."""
    result = compare_values(left, right)
    if result is None:
        return None
    return result == 0


def infer_type(value: Any) -> SqlType:
    """Infer the SqlType of a non-NULL Python value."""
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.REAL
    if isinstance(value, str):
        return SqlType.TEXT
    if isinstance(value, datetime.date):
        return SqlType.DATE
    raise SqlTypeError(f"cannot infer SQL type of {value!r}")


def format_value(value: Any) -> str:
    """Render a value the way it would appear in a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
