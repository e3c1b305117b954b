"""Request deadlines with cooperative cancellation.

A :class:`Deadline` is created once at the edge of a request (the HTTP
front end's ``?timeout_ms=``, or ``EngineConfig(request_timeout_ms=)``
for any direct :class:`~repro.sqlengine.database.Database` /
:class:`~repro.core.soda.Soda` caller) and installed thread-locally via
:func:`deadline_scope` — the same pattern the tracer uses
(:func:`repro.obs.tracing.current_tracer`), so layers that cannot be
handed a deadline explicitly read the *active* one with
:func:`current_deadline`.

Cancellation is **cooperative**: nothing is interrupted mid-operation.
Instead the long-running loops of the engine — pipeline step
boundaries, scan and join-output batch boundaries (row and
vectorized) — call :meth:`Deadline.check` at natural safe points and raise
:class:`DeadlineExceeded` when the budget is spent.  The exception
unwinds through the ordinary ``with`` scopes (snapshot pins, undo
guards, tracer spans), so a timed-out request leaves the engine exactly
as consistent as a failed one, and the *next* request proceeds
normally.

The per-check cost matters on hot paths, so callers fetch the active
deadline once per operator/loop (``deadline = current_deadline()``)
and skip all checks when it is None — an undeadlined query pays one
thread-local read per operator, nothing per batch.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

from repro.errors import ReproError

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "current_deadline",
    "deadline_scope",
]


class DeadlineExceeded(ReproError):
    """A request ran past its deadline and was cooperatively unwound.

    Structured for the wire: :attr:`timeout_ms` is the budget,
    :attr:`elapsed_ms` how long the request had been running when the
    check fired, and :attr:`where` names the checkpoint that noticed
    (``"step:execute"``, ``"scan"``, ``"join"``, ...).
    """

    def __init__(
        self,
        message: str,
        timeout_ms: float = 0.0,
        elapsed_ms: float = 0.0,
        where: str = "",
    ) -> None:
        super().__init__(message)
        self.timeout_ms = timeout_ms
        self.elapsed_ms = elapsed_ms
        self.where = where


class Deadline:
    """A monotonic time budget for one request.

    ``clock`` is injectable (seconds, monotonic) so tests can drive a
    deadline over the edge without sleeping.

    >>> ticks = iter([0.0, 0.05, 0.2]).__next__
    >>> deadline = Deadline(100, clock=ticks)
    >>> deadline.expired  # 50ms in
    False
    >>> deadline.expired  # 200ms in
    True
    """

    __slots__ = ("timeout_ms", "_clock", "_started", "_expires")

    def __init__(self, timeout_ms: float, clock=perf_counter) -> None:
        if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
            raise ValueError(
                f"timeout_ms must be a positive number, got {timeout_ms!r}"
            )
        self.timeout_ms = float(timeout_ms)
        self._clock = clock
        self._started = clock()
        self._expires = self._started + self.timeout_ms / 1000.0

    def elapsed_ms(self) -> float:
        """Milliseconds since the deadline was created."""
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds left in the budget (never negative)."""
        return max(0.0, (self._expires - self._clock()) * 1000.0)

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        now = self._clock()
        if now >= self._expires:
            elapsed = (now - self._started) * 1000.0
            raise DeadlineExceeded(
                f"request exceeded its {self.timeout_ms:g}ms deadline "
                f"after {elapsed:.1f}ms"
                + (f" (at {where})" if where else ""),
                timeout_ms=self.timeout_ms,
                elapsed_ms=elapsed,
                where=where,
            )


# like the active tracer, the active deadline is per-thread: concurrent
# serving runs many requests at once and a deadline must only ever
# cancel its own request
_ACTIVE = threading.local()


def current_deadline() -> "Deadline | None":
    """The deadline cooperative checkpoints should honour right now."""
    return getattr(_ACTIVE, "deadline", None)


@contextmanager
def deadline_scope(deadline: "Deadline | None"):
    """Install *deadline* as this thread's active deadline for the block.

    ``deadline_scope(None)`` is a true no-op scope (the previous
    deadline, if any, stays active), so callers can wrap
    unconditionally.  Scopes nest; the innermost installed deadline
    wins, and the previous one is restored on exit.
    """
    if deadline is None:
        yield None
        return
    previous = getattr(_ACTIVE, "deadline", None)
    _ACTIVE.deadline = deadline
    try:
        yield deadline
    finally:
        _ACTIVE.deadline = previous
