"""Output checks and the determinism fingerprint.

Every check is one operation: :class:`Ops` counts it as attempted and, when
it fails, as failed, and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
            print(f"check failed: {self.failures[-1]}", file=sys.stderr)
        return ok


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_json(path):
    """The parsed document, or None when the file is missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def checkpoint_problem(path) -> str:
    """Empty when the checkpoint loads and holds only finite values."""
    from lidarmoe.params import CheckpointError, load_checkpoint
    try:
        store, _ = load_checkpoint(path)
    except (OSError, ValueError, CheckpointError, struct.error) as exc:
        return f"{type(exc).__name__}: {exc}"
    bad = [n for n in store.names() if not np.all(np.isfinite(store.get(n)))]
    return f"non-finite values in {bad}" if bad else ""


def csv_rows(path) -> int:
    """Data rows of a CSV file with one header line; -1 when unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    except OSError:
        return -1


def miou_ok(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 100.0


class DigestBook:
    """sha256 digests of a run's outputs, kept across runs of one seed.

    Runs of the same code and seed must write identical files; ``check``
    compares each digest with the one an earlier run recorded under the same
    key and records the new ones.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.doc = read_json(self.path) or {}

    def check(self, ops: Ops, key: str, files: dict) -> None:
        seen = self.doc.setdefault(key, {})
        for name, path in sorted(files.items()):
            digest = sha256_file(path) if Path(path).exists() else "missing"
            if name in seen:
                ops.record(f"fingerprint {key}/{name}", seen[name] == digest,
                           f"{digest[:12]} differs from {seen[name][:12]}")
            else:
                seen[name] = digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(self.path)
