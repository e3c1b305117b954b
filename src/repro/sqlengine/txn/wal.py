"""Write-ahead log: record codec, storage interface, value serde.

Framing: each record is ``>II`` (payload length, CRC32 of payload)
followed by the payload bytes.  Payloads are UTF-8 JSON objects; the
``t`` key tags the record type (``"sql"`` for one auto-committed
statement, ``"txn"`` for the statement list of one committed explicit
transaction, ``"rows"`` for a programmatic bulk insert).

:func:`scan_records` distinguishes the two failure shapes recovery
cares about: a *torn tail* (the file ends mid-record, or the final
record fails its checksum — the classic power-cut-during-append) is
reported as a safe truncation point, while a checksum failure with
committed records *after* it means the log body itself is damaged and
replaying past it would resurrect an inconsistent prefix — that is
surfaced as corruption for the caller to raise loudly.
"""

from __future__ import annotations

import datetime
import json
import os
import struct
import zlib

_HEADER = struct.Struct(">II")  # (payload length, CRC32 of payload)


# ---------------------------------------------------------------------------
# value serde (shared with checkpoints)
# ---------------------------------------------------------------------------


def _json_default(value):
    if isinstance(value, datetime.date):
        return {"@d": value.isoformat()}
    raise TypeError(f"not WAL-serializable: {value!r}")  # pragma: no cover


def _json_object_hook(obj: dict):
    if len(obj) == 1 and "@d" in obj:
        return datetime.date.fromisoformat(obj["@d"])
    return obj


def dump_payload(obj) -> bytes:
    """Serialize one record payload (dates survive the round-trip)."""
    return json.dumps(
        obj, default=_json_default, separators=(",", ":")
    ).encode("utf-8")


def load_payload(payload: bytes):
    """Inverse of :func:`dump_payload`."""
    return json.loads(payload.decode("utf-8"), object_hook=_json_object_hook)


# ---------------------------------------------------------------------------
# record framing
# ---------------------------------------------------------------------------


def encode_record(payload: bytes) -> bytes:
    """Frame one payload as ``length + crc32 + payload``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_records(data: bytes) -> "tuple[list[bytes], int, str | None]":
    """Walk a log image, returning ``(payloads, valid_length, corruption)``.

    *payloads* are the intact record payloads in order and
    *valid_length* the byte offset they span — the safe truncation
    point.  *corruption* is ``None`` unless a record fails its
    checksum while intact records follow it (mid-log damage); a torn
    tail is silently excluded from *valid_length* instead.
    """
    payloads: list[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            break  # torn header at the tail
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > total:
            break  # torn payload at the tail
        payload = bytes(data[offset + _HEADER.size : end])
        if zlib.crc32(payload) != crc:
            if end < total:
                return (
                    payloads,
                    offset,
                    f"checksum mismatch at offset {offset} "
                    f"with {total - end} bytes after it",
                )
            break  # bad final record: a torn write, not corruption
        payloads.append(payload)
        offset = end
    return payloads, offset, None


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


class LogStorage:
    """Byte-level log storage; the seam fault injection wraps.

    ``append`` buffers bytes at the end of the log, ``sync`` makes
    everything appended so far durable (the commit point), ``close``
    releases the storage.  Recovery reads and truncates the log file
    directly, before any storage is opened on it.
    """

    def append(self, payload: bytes) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class FileLogStorage(LogStorage):
    """Append-only file storage; ``sync`` is ``flush`` + ``fsync``."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "ab")

    def append(self, payload: bytes) -> None:
        self._file.write(payload)

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()


class MemoryLogStorage(LogStorage):
    """In-memory storage for tests (no filesystem, trivially inspectable)."""

    def __init__(self, image: bytes = b"") -> None:
        self._buffer = bytearray(image)
        self.synced_length = len(image)

    def append(self, payload: bytes) -> None:
        self._buffer.extend(payload)

    def sync(self) -> None:
        self.synced_length = len(self._buffer)

    def read(self) -> bytes:
        """Everything appended so far (for inspection)."""
        return bytes(self._buffer)

    def close(self) -> None:
        pass
