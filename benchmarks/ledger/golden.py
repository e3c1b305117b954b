"""The correctness gate: recorded digests of every distinct input's answer.

``golden/<workload>.json`` holds one section per size (``full``,
``smoke``), each mapping an input key to the digest of its answer at
the commit that recorded it (``run.py --record-golden``).  A run checks
every answer it receives; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def digest(answer) -> str:
    """Digest of a JSON-serialisable answer (tuples and dates included)."""
    blob = json.dumps(answer, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def load(workload: str, size: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        raise SystemExit(
            f"no golden file {path}; record one with run.py --record-golden"
        )
    sections = json.loads(path.read_text())
    if size not in sections:
        raise SystemExit(f"{path} has no {size!r} section; record it")
    return sections[size]


def save(workload: str, size: str, entries: dict) -> Path:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{workload}.json"
    sections = json.loads(path.read_text()) if path.exists() else {}
    sections[size] = entries
    path.write_text(json.dumps(sections, sort_keys=True, indent=0) + "\n")
    return path


class Checker:
    """Checks answers against one golden section, or records a new one."""

    def __init__(self, workload: str, size: str, record: bool) -> None:
        self.workload = workload
        self.size = size
        self.recording = record
        self.entries = {} if record else load(workload, size)
        self.mismatches: list = []

    def check(self, key: str, answer) -> bool:
        """True when *answer* matches (always, while recording)."""
        value = digest(answer)
        if self.recording:
            self.entries[key] = value
            return True
        if self.entries.get(key) == value:
            return True
        self.mismatches.append(key)
        return False

    def finish(self) -> None:
        if self.recording:
            save(self.workload, self.size, self.entries)
