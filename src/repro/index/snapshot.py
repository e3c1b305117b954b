"""Versioned index snapshots for warehouse warm-starts.

The paper amortizes a 24-hour index build across many interactive
searches; the equivalent here is persisting the built indexes so a
process restart loads them instead of re-scanning the catalog.  A
snapshot bundles:

* the base-data :class:`~repro.index.inverted.InvertedIndex`,
* every materialized
  :class:`~repro.index.classification.ClassificationIndex` variant
  (keyed by its ``include_dbpedia`` / ``include_physical`` build flags),
* a format version and a *catalog stamp* — the warehouse name,
  ``Catalog.fingerprint()`` (DDL version, total rows, total
  UPDATE/DELETE mutations) and a sampled content digest
  (:func:`catalog_digest`) taken at save time.  The mutation count
  makes a snapshot stale after any UPDATE or DELETE, even one that
  leaves the row count unchanged (an in-place rewrite, or a delete
  followed by a same-size reinsert).

Loading verifies the stamp against the live catalog, so a snapshot
cannot silently serve postings for data it has not seen — the digest
samples actual row content, catching same-shape catalogs populated
with different data (e.g. a different generator seed); a mismatch
raises :class:`~repro.errors.WarehouseError` (callers may catch it and
fall back to a cold build).

File-level failures raise the structured
:class:`~repro.errors.SnapshotError` (a ``WarehouseError`` subclass)
carrying the snapshot ``path`` and a failure ``kind`` — ``"missing"``,
``"corrupt"`` (unreadable bytes: truncated gzip, damaged deflate),
``"malformed"`` (valid bytes, wrong shape) or ``"version"`` — so
callers can log *why* a warm start failed without string matching.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SnapshotError, WarehouseError
from repro.index.classification import ClassificationIndex
from repro.index.inverted import InvertedIndex

SNAPSHOT_VERSION = 1


def catalog_digest(catalog) -> str:
    """A cheap, process-stable digest of the catalog's data content.

    Samples each table's name, row count and first/middle/last rows —
    O(tables), not O(rows), so verifying it never approaches the cost
    of the full scan a warm-start avoids.  Deliberately a sample: two
    catalogs differing only in unsampled interior rows collide, which
    the fingerprint's total row count makes hard in practice.
    """
    digest = hashlib.sha256()
    for table in catalog.tables():
        digest.update(table.name.encode())
        count = len(table)
        digest.update(str(count).encode())
        if count:
            for position in (0, count // 2, count - 1):
                digest.update(repr(table.row(position)).encode())
    return digest.hexdigest()


@dataclass
class IndexSnapshot:
    """The in-memory form of one saved snapshot."""

    name: str
    fingerprint: tuple  # (ddl_version, total_rows, total_mutations) at save
    inverted: InvertedIndex
    #: (include_dbpedia, include_physical) -> ClassificationIndex
    classifications: dict = field(default_factory=dict)
    #: sampled data-content digest (see :func:`catalog_digest`)
    content_digest: str = ""

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "name": self.name,
            "fingerprint": list(self.fingerprint),
            "content_digest": self.content_digest,
            "inverted": self.inverted.to_dict(),
            "classifications": [
                {
                    "include_dbpedia": include_dbpedia,
                    "include_physical": include_physical,
                    "index": index.to_dict(),
                }
                for (include_dbpedia, include_physical), index in sorted(
                    self.classifications.items()
                )
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexSnapshot":
        if not isinstance(payload, dict):
            raise SnapshotError(
                f"malformed index snapshot: expected an object, "
                f"got {type(payload).__name__}",
                kind="malformed",
            )
        version = payload.get("snapshot_version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported index snapshot version: {version!r} "
                f"(expected {SNAPSHOT_VERSION})",
                kind="version",
            )
        try:
            fingerprint = tuple(payload["fingerprint"])
            if len(fingerprint) == 2:
                # pre-DML snapshots stamped (ddl_version, total_rows);
                # a catalog that has never seen an UPDATE/DELETE has
                # mutation count 0, so the migrated stamp still matches
                # and the warm start is preserved
                fingerprint += (0,)
            return cls(
                name=payload["name"],
                fingerprint=fingerprint,
                inverted=InvertedIndex.from_dict(payload["inverted"]),
                classifications={
                    (entry["include_dbpedia"], entry["include_physical"]):
                        ClassificationIndex.from_dict(entry["index"])
                    for entry in payload.get("classifications", [])
                },
                content_digest=payload.get("content_digest", ""),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise SnapshotError(
                f"malformed index snapshot: {exc}", kind="malformed"
            ) from exc

    # ------------------------------------------------------------------
    def verify(
        self, name: str, fingerprint: tuple, content_digest: "str | None" = None
    ) -> None:
        """Raise unless the snapshot matches the live warehouse state."""
        if self.name != name:
            raise WarehouseError(
                f"index snapshot is for warehouse {self.name!r}, "
                f"not {name!r}"
            )
        if self.fingerprint != tuple(fingerprint):
            raise WarehouseError(
                f"index snapshot is stale: catalog fingerprint "
                f"{tuple(fingerprint)} != stamped {self.fingerprint}"
            )
        if (
            content_digest is not None
            and self.content_digest
            and self.content_digest != content_digest
        ):
            raise WarehouseError(
                "index snapshot is stale: catalog content digest does not "
                "match the stamped digest (same shape, different data)"
            )


def save_snapshot(snapshot: IndexSnapshot, path, compress: bool = True) -> None:
    """Write *snapshot* to *path* as gzip-compressed compact JSON.

    Compression is the default (the conventional extension is
    ``.json.gz``; postings compress ~5-10x) and deterministic (the gzip
    mtime field is pinned), so identical snapshots are byte-identical
    on disk.  ``compress=False`` writes the legacy plain-JSON format,
    which :func:`load_snapshot` keeps reading either way.
    """
    payload = json.dumps(snapshot.to_dict(), separators=(",", ":")).encode()
    if compress:
        payload = gzip.compress(payload, mtime=0)
    Path(path).write_bytes(payload)


def load_snapshot(path) -> IndexSnapshot:
    """Read a snapshot from *path* (format-validated, stamp NOT verified).

    The format is sniffed from the content, not the file name: gzip
    members are detected by their magic bytes, anything else is parsed
    as legacy plain JSON — so pre-compression snapshots keep loading.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise SnapshotError(
            f"index snapshot missing: {path!s}", path=str(path), kind="missing"
        ) from exc
    except OSError as exc:
        raise SnapshotError(
            f"cannot read index snapshot {path!s}: {exc}",
            path=str(path),
            kind="corrupt",
        ) from exc
    try:
        if raw[:2] == b"\x1f\x8b":
            raw = gzip.decompress(raw)
        text = raw.decode("utf-8")
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        # OSError covers gzip.BadGzipFile; EOFError is a truncated gzip
        # member; zlib.error a corrupted deflate stream
        raise SnapshotError(
            f"corrupt index snapshot {path!s}: {exc}",
            path=str(path),
            kind="corrupt",
        ) from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SnapshotError(
            f"malformed index snapshot {path!s}: {exc}",
            path=str(path),
            kind="malformed",
        ) from exc
    try:
        return IndexSnapshot.from_dict(payload)
    except SnapshotError as exc:
        if exc.path:
            raise
        raise SnapshotError(str(exc), path=str(path), kind=exc.kind) from exc
