"""Crash-point injection for the durability write path.

:class:`FaultInjector` wraps any :class:`~repro.sqlengine.txn.wal.LogStorage`
and kills the process-under-test (by raising :class:`InjectedCrash`)
after a configurable number of bytes has reached the underlying
storage — mid-record, on a record boundary, or during fsync.  Tests
sweep the budget across every byte offset of a workload's WAL traffic
to prove that recovery from *any* torn prefix reproduces the last
committed state exactly.
"""

from __future__ import annotations

from repro.sqlengine.txn.wal import LogStorage


class InjectedCrash(Exception):
    """Raised by :class:`FaultInjector` at the configured kill point.

    Deliberately *not* part of the :class:`~repro.errors.ReproError`
    hierarchy: a crash is not an error the engine may catch and handle
    — it must propagate like a power cut.
    """


class FaultInjector(LogStorage):
    """A LogStorage proxy that crashes after ``byte_budget`` bytes.

    A write that would exceed the remaining budget persists only the
    prefix that fits, then raises — modelling a torn write.  With
    ``fail_sync=True`` the crash fires on the next ``sync`` instead,
    modelling a kernel that buffered everything but died before the
    flush hit the platter.  A budget of ``None`` never crashes.
    """

    def __init__(
        self,
        inner: LogStorage,
        byte_budget: "int | None" = None,
        fail_sync: bool = False,
    ) -> None:
        self.inner = inner
        self.byte_budget = byte_budget
        self.fail_sync = fail_sync
        #: total bytes accepted (telemetry for sweep tests)
        self.bytes_written = 0

    def append(self, payload: bytes) -> None:
        if self.byte_budget is None:
            self.inner.append(payload)
            self.bytes_written += len(payload)
            return
        remaining = self.byte_budget - self.bytes_written
        if len(payload) > remaining:
            if remaining > 0:
                self.inner.append(payload[:remaining])
                self.bytes_written += remaining
            self.inner.sync()  # the torn prefix is what recovery will see
            raise InjectedCrash(
                f"injected crash after {self.bytes_written} bytes"
            )
        self.inner.append(payload)
        self.bytes_written += len(payload)

    def sync(self) -> None:
        if self.fail_sync:
            raise InjectedCrash("injected crash during fsync")
        self.inner.sync()

    def close(self) -> None:
        self.inner.close()
