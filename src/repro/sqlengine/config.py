"""The engine configuration: one frozen ``EngineConfig``.

Every engine knob of a :class:`~repro.sqlengine.database.Database` is a
field of this immutable dataclass, passed as ``Database(config=
EngineConfig(...))``; there is no other spelling.  Validity is decided
here, in ``__post_init__``, and nowhere else: the planner and the
physical builder read settings that are already known to be good.  The
constants the fields are bounded by live here too, and the planner
modules import them.

``EngineConfig.from_cli`` parses the ``--engine-config
key=value[,key=value]`` flag shared by every ``repro`` command.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import SqlCatalogError, SqlExecutionError

#: default number of prepared plans kept per database
DEFAULT_PLAN_CACHE_SIZE = 128

#: rows per frozen segment when none is configured — large enough to
#: keep per-pin delta copies cheap, small enough that sustained writes
#: freeze regularly and zones stay selective
DEFAULT_SEGMENT_ROWS = 4096


def _require_int(name: str, value, minimum: int, error=SqlExecutionError):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise error(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class EngineConfig:
    """Every engine knob of one :class:`Database`, immutable.

    >>> config = EngineConfig(segment_rows=256)
    >>> dataclasses.replace(config, plan_cache_size=0).plan_cache_size
    0
    """

    #: prepared plans kept in the LRU plan cache (0 disables caching)
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    #: rows per frozen columnar segment of every table (the delta holds
    #: fewer); small values exist for tests of the segment layout
    segment_rows: int = DEFAULT_SEGMENT_ROWS
    #: default per-request time budget in milliseconds (None = no
    #: deadline).  A query over budget raises a structured
    #: :class:`~repro.resilience.deadline.DeadlineExceeded` at the next
    #: cooperative checkpoint (pipeline step / scan batch); the HTTP
    #: front end maps it to 503 and accepts a
    #: per-request ``?timeout_ms=`` override
    request_timeout_ms: "int | None" = None

    def __post_init__(self) -> None:
        _require_int("plan_cache_size", self.plan_cache_size, 0)
        _require_int("segment_rows", self.segment_rows, 1, error=SqlCatalogError)
        if self.request_timeout_ms is not None:
            _require_int("request_timeout_ms", self.request_timeout_ms, 1)

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "EngineConfig":
        """A copy with *changes* applied (validated like construction)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        """The resolved settings as a plain dict (stable key order)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_cli(
        cls, spec: "str | None", base: "EngineConfig | None" = None
    ) -> "EngineConfig":
        """Parse a ``key=value[,key=value]`` CLI spec.

        Keys are the field names (``-`` accepted for ``_``); values are
        integers, and ``request_timeout_ms`` also accepts ``none``.
        Unknown keys and malformed values raise
        :class:`SqlExecutionError` with the valid choices, so the CLI
        can report them as ordinary engine errors.

        >>> EngineConfig.from_cli("segment-rows=256").segment_rows
        256
        """
        config = base if base is not None else cls()
        if not spec:
            return config
        fields = {field.name: field for field in dataclasses.fields(cls)}
        changes: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, raw = item.partition("=")
            key = key.strip().replace("-", "_")
            if not sep:
                raise SqlExecutionError(
                    f"--engine-config entries must look like key=value, "
                    f"got {item!r}"
                )
            if key not in fields:
                raise SqlExecutionError(
                    f"unknown engine-config key {key!r} (choose from "
                    f"{', '.join(sorted(fields))})"
                )
            changes[key] = cls._parse_value(key, raw.strip())
        return dataclasses.replace(config, **changes)

    @staticmethod
    def _parse_value(key: str, raw: str):
        if key == "request_timeout_ms" and raw.lower() in ("none", "null"):
            return None
        try:
            return int(raw)
        except ValueError:
            raise SqlExecutionError(
                f"engine-config {key} expects an integer, got {raw!r}"
            ) from None


#: the configuration a ``Database`` or ``QueryPlanner`` gets when none
#: is passed (frozen, so one instance is shared)
DEFAULT_CONFIG = EngineConfig()
