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

#: upper bound on ``parallel_workers``
MAX_PARALLEL_WORKERS = 64

#: freeze threshold ``repro serve`` uses when none is configured —
#: large enough to keep per-pin delta copies cheap, small enough that
#: sustained writes freeze regularly
DEFAULT_SEGMENT_ROWS = 4096

#: the engines a plan can compile to: vectorized batch (default) or
#: row-at-a-time volcano
EXECUTION_MODES = ("batch", "row")


def _require_bool(name: str, value, error=SqlExecutionError):
    if not isinstance(value, bool):
        raise error(f"{name} must be True or False, got {value!r}")
    return value


def _require_int(name: str, value, minimum: int, error=SqlExecutionError):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise error(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class EngineConfig:
    """Every engine knob of one :class:`Database`, immutable.

    >>> config = EngineConfig(execution_mode="row", parallel_workers=1)
    >>> dataclasses.replace(config, fused=False).fused
    False
    """

    #: prepared plans kept in the LRU plan cache (0 disables caching)
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    #: ``"batch"`` (vectorized, default) or ``"row"`` (volcano)
    execution_mode: str = "batch"
    #: dictionary-encoding cardinality cap for TEXT columns
    #: (None = engine default, 0 disables encoding)
    dict_encoding_threshold: "int | None" = None
    #: fused filter/project expression codegen (batch mode)
    fused: bool = True
    #: morsel-driven parallel scan pipelines (1 = serial)
    parallel_workers: int = 1
    #: typed ``array.array`` buffers for INTEGER/REAL columns
    array_store: bool = False
    #: rows per frozen columnar segment; 0 (default) keeps the classic
    #: flat single-threaded storage, > 0 opts tables into immutable
    #: frozen segments + one mutable delta with snapshot-pinned reads
    segment_rows: int = 0
    #: default per-request time budget in milliseconds (None = no
    #: deadline).  A query over budget raises a structured
    #: :class:`~repro.resilience.deadline.DeadlineExceeded` at the next
    #: cooperative checkpoint (pipeline step / scan batch / morsel
    #: boundary); the HTTP front end maps it to 503 and accepts a
    #: per-request ``?timeout_ms=`` override
    request_timeout_ms: "int | None" = None

    def __post_init__(self) -> None:
        _require_int("plan_cache_size", self.plan_cache_size, 0)
        if self.execution_mode not in EXECUTION_MODES:
            raise SqlExecutionError(
                f"unknown execution mode {self.execution_mode!r} (choose "
                f"from {', '.join(EXECUTION_MODES)})"
            )
        if self.dict_encoding_threshold is not None:
            _require_int(
                "dict_encoding_threshold",
                self.dict_encoding_threshold,
                0,
                error=SqlCatalogError,
            )
        _require_bool("fused", self.fused)
        workers = self.parallel_workers
        if (
            not isinstance(workers, int)
            or isinstance(workers, bool)
            or not 1 <= workers <= MAX_PARALLEL_WORKERS
        ):
            raise SqlExecutionError(
                "parallel_workers must be an integer between 1 and "
                f"{MAX_PARALLEL_WORKERS}, got {workers!r}"
            )
        _require_bool("array_store", self.array_store, error=SqlCatalogError)
        _require_int("segment_rows", self.segment_rows, 0, error=SqlCatalogError)
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

        Keys are the field names (``-`` accepted for ``_``); booleans
        accept ``true/false/1/0``, ``dict_encoding_threshold`` also
        accepts ``none``.  Unknown keys and malformed values raise
        :class:`SqlExecutionError` with the valid choices, so the CLI
        can report them as ordinary engine errors.

        >>> EngineConfig.from_cli("segment-rows=256,fused=false").fused
        False
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
        lowered = raw.lower()
        if key in ("fused", "array_store"):
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise SqlExecutionError(
                f"engine-config {key} expects true/false, got {raw!r}"
            )
        if key == "execution_mode":
            return lowered
        if key in ("dict_encoding_threshold", "request_timeout_ms") and (
            lowered in ("none", "null")
        ):
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
