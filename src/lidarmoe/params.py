"""Named parameter storage and checkpoint files.

A :class:`ParameterStore` maps unique names to float32 arrays. A store
carries no freeze flag: a graph's parameters take gradients exactly when
the graph runs in train mode, so a frozen network is one that is only
evaluated. Checkpoints serialize a store to a single file: an 8-byte
magic, a JSON manifest (names, shapes, dtype tag, stage metadata, format
version), then the raw little-endian row-major values in manifest order.
Loading reproduces every tensor bit-exactly. Each manifest entry also
holds ``"trainable": true``, which version-1 files have always carried;
the reader rejects any other value.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .dataio import atomic_write, read_exact
from .errors import CheckpointError, LidarMoeError

CHECKPOINT_MAGIC = b"LMOECKPT"
CHECKPOINT_VERSION = 1


class ParameterStore:
    """Uniquely named float32 tensors."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._values:
            raise ValueError(f"duplicate parameter name: {name}")
        self._values[name] = np.ascontiguousarray(value, dtype=np.float32)

    def get(self, name: str) -> np.ndarray:
        try:
            return self._values[name]
        except KeyError:
            raise LidarMoeError(f"missing parameter {name}") from None

    def set(self, name: str, value) -> None:
        arr = np.ascontiguousarray(value, dtype=np.float32)
        if arr.shape != self._values[name].shape:
            raise ValueError(f"shape mismatch for {name}")
        self._values[name] = arr

    def names(self):
        return list(self._values)

    def copy(self) -> "ParameterStore":
        dup = ParameterStore()
        for name in self.names():
            dup.add(name, self._values[name].copy())
        return dup

    def state_equal(self, other: "ParameterStore") -> bool:
        if self.names() != other.names():
            return False
        return all(np.array_equal(self._values[n], other._values[n])
                   for n in self.names())


def glorot_uniform(shape, rng) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in = int(shape[0])
    fan_out = int(shape[-1])
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape).astype(np.float32)


def add_linear(store, name, n_in, n_out, rng):
    store.add(f"{name}.w", glorot_uniform((n_in, n_out), rng))
    store.add(f"{name}.b", np.zeros(n_out, dtype=np.float32))


def save_checkpoint(path, store: ParameterStore, metadata: dict) -> None:
    names = store.names()
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": "f32",
        "params": [
            {"name": n, "shape": list(store.get(n).shape), "trainable": True}
            for n in names
        ],
        "metadata": metadata,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(store.get(n).astype("<f4").tobytes(order="C"))

    atomic_write(path, write)


def load_checkpoint(path):
    """Read a checkpoint; returns ``(ParameterStore, metadata)``.

    A magic, version, dtype, manifest or length problem raises
    :class:`CheckpointError` naming ``path``; so does an entry whose
    ``name`` is not a string or whose ``trainable`` is anything but
    ``true``.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic in {path}")
        (mlen,) = struct.unpack("<Q", read_exact(fh, 8, path, CheckpointError))
        try:
            manifest = json.loads(read_exact(fh, mlen, path, CheckpointError)
                                  .decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise CheckpointError(f"corrupt manifest in {path}") from exc
        if not isinstance(manifest, dict) \
                or manifest.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version in {path}")
        if manifest.get("dtype") != "f32":
            raise CheckpointError(f"unsupported dtype tag in {path}")
        store = ParameterStore()
        try:
            for entry in manifest["params"]:
                shape = tuple(entry["shape"])
                raw = read_exact(fh, 4 * int(np.prod(shape)), path, CheckpointError)
                arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
                if entry["trainable"] is not True:
                    raise ValueError(f"trainable must be true, got {entry['trainable']!r}")
                if not isinstance(entry["name"], str):
                    raise ValueError(f"name must be a string, got {entry['name']!r}")
                store.add(entry["name"], arr)
            metadata = manifest["metadata"]
        except (KeyError, TypeError, ValueError) as exc:  # a duplicate name too
            raise CheckpointError(f"malformed manifest in {path}: {exc!r}") from exc
    return store, metadata
