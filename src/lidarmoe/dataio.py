"""Dataset serialization.

LPCD point-cloud file: magic "LPCD", u32 version=1, u64 N, then N records
of {f32 x, f32 y, f32 z, f32 intensity, u16 beam, i32 label},
little-endian; the reader rejects a record whose floats are not finite.
A camera render, one ``datagen.CameraRender``, is stored as .npz with one
(H, W) array per field, named and typed by ``CAMERA_ARRAYS``: ``class_id``
int32, ``depth`` float64 and ``superpixel`` int32.
A dataset manifest is a JSON document listing per-split scan/camera pairs;
``save_manifest`` writes what ``load_manifest`` reads.
Every output file is written through :func:`atomic_write`, which makes its
directory: a command that fails before its first write leaves nothing.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import NUM_CLASSES, CameraRender
from .errors import LidarMoeError
from .pointcloud import PointCloud
from .sensors import at_least, read_key

LPCD_MAGIC = b"LPCD"
LPCD_VERSION = 1
_RECORD = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                    ("intensity", "<f4"), ("beam", "<u2"), ("label", "<i4")])
_FRACTION = (lambda v: 0 < v <= 1), "in (0, 1]"
# the stored dtype of each CameraRender field, in field order
CAMERA_ARRAYS = {"class_id": np.int32, "depth": np.float64, "superpixel": np.int32}


def atomic_write(path, write) -> None:
    """Call ``write(fh)`` on a binary file beside ``path``, then rename it
    over ``path``, so an interrupted write never leaves a partial file at
    ``path``. Makes ``path``'s missing parent directories first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """UTF-8 text, written atomically."""
    blob = text.encode("utf-8")
    atomic_write(path, lambda fh: fh.write(blob))


def write_json(path, doc) -> None:
    """Indented, key-sorted JSON plus a final newline, written atomically;
    a NaN or infinity raises ValueError, as JSON has no such number."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _non_finite(token):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path) -> dict:
    """The JSON object in a UTF-8 file; raises LidarMoeError naming ``path``
    when the file is not UTF-8, not JSON (``NaN`` and ``Infinity`` are not)
    or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_non_finite)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise LidarMoeError(f"{path} is not a UTF-8 JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise LidarMoeError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def read_csv(path, header: str, dtype) -> np.ndarray:
    """The (rows, fields) ``dtype`` array of a numeric UTF-8 CSV file whose
    first line is ``header``, (0, fields) for a file with no row below it;
    raises LidarMoeError naming the file when the header or a row is
    malformed or a value is not finite."""
    width = header.count(",") + 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() != header:
                raise ValueError(f"first line must be {header}")
            lines = [line for line in fh if line.strip()]
        rows = np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=2) if lines \
            else np.empty((0, width), dtype)
        if rows.size and rows.shape[1] != width:
            raise ValueError(f"{rows.shape[1]} fields per row, want {width}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite value")
    except ValueError as exc:
        raise LidarMoeError(f"{path}: {exc}") from exc
    return rows.reshape(-1, width)


def read_exact(fh, size, path, error=LidarMoeError) -> bytes:
    """The next ``size`` bytes of ``fh``, or ``error`` when ``path`` ends first."""
    if not 0 <= size <= os.fstat(fh.fileno()).st_size - fh.tell():
        raise error(f"truncated file {path}")
    return fh.read(size)


def write_lpcd(path, cloud: PointCloud) -> None:
    rec = np.empty(cloud.count, dtype=_RECORD)
    rec["x"], rec["y"], rec["z"] = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    rec["intensity"] = cloud.intensity
    rec["beam"] = cloud.beam.astype("<u2")
    rec["label"] = cloud.label

    def write(fh):
        fh.write(LPCD_MAGIC)
        fh.write(struct.pack("<I", LPCD_VERSION))
        fh.write(struct.pack("<Q", cloud.count))
        fh.write(rec.tobytes())

    atomic_write(path, write)


def read_lpcd(path) -> PointCloud:
    with open(path, "rb") as fh:
        if fh.read(4) != LPCD_MAGIC:
            raise LidarMoeError(f"bad magic in {path}")
        version, n = struct.unpack("<IQ", read_exact(fh, 12, path))
        if version != LPCD_VERSION:
            raise LidarMoeError(f"unsupported LPCD version {version} in {path}")
        rec = np.frombuffer(read_exact(fh, n * _RECORD.itemsize, path), dtype=_RECORD)
    for name in ("x", "y", "z", "intensity"):
        bad = np.flatnonzero(~np.isfinite(rec[name]))
        if bad.size:
            raise LidarMoeError(f"{path}: record {bad[0]} has {name} {rec[name][bad[0]]}, "
                                "want a finite number")
    xyz = np.stack([rec["x"], rec["y"], rec["z"]], axis=1)
    return PointCloud(xyz, rec["intensity"], rec["beam"].astype(np.int32),
                      rec["label"])


def write_camera_npz(path, render: CameraRender) -> None:
    atomic_write(path, lambda fh: np.savez(fh, **{
        name: getattr(render, name).astype(dtype) for name, dtype in CAMERA_ARRAYS.items()}))


def read_camera_npz(path) -> CameraRender:
    """The render stored at ``path``, each array in the dtype it was stored in."""
    try:
        with np.load(path) as data:
            return CameraRender(*(data[name] for name in CAMERA_ARRAYS))
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise LidarMoeError(f"corrupt camera file {path}: {exc}") from exc


@dataclass
class ScanEntry:
    scan: str
    camera: str | None = None


@dataclass
class DatasetManifest:
    """Per-split scan lists with optional camera pairings.

    Training scans must carry camera pairings for the contrastive stages;
    validation scans must be labeled. ``annotation_fraction`` subsamples
    the labeled training scans for fine-tuning.
    """

    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    num_classes: int = NUM_CLASSES
    annotation_fraction: float = 1.0


def save_manifest(path, manifest: DatasetManifest) -> None:
    """The document ``load_manifest`` reads, plus each split's scan count."""
    splits = {split: [{"scan": e.scan, "camera": e.camera} for e in getattr(manifest, split)]
              for split in ("train", "val")}
    write_json(path, {"num_classes": manifest.num_classes,
                      "annotation_fraction": manifest.annotation_fraction,
                      "splits": splits, "counts": {k: len(v) for k, v in splits.items()}})


_CSV_UNSAFE = frozenset(',"\r\n')


def load_manifest(path) -> DatasetManifest:
    """The manifest at ``path``; raises LidarMoeError naming it on a bad key,
    on a split that lists two scans of one file stem, a scan's name, or on
    a stem that a CSV field cannot hold unquoted (a comma, a double quote,
    CR or LF), since output rows begin with it."""
    doc, owner = read_json(path), f"manifest {path}"
    splits = read_key(doc, owner, "splits", "dict", {})

    def entries(split):
        where = f"{owner} {split} entry"
        listed = [ScanEntry(read_key(e, where, "scan", "str"),
                            read_key(e, where, "camera", "str or null", None))
                  for e in read_key(splits, owner, split, "list", [])]
        seen = set()
        for i, stem in enumerate(Path(e.scan).stem for e in listed):
            if not _CSV_UNSAFE.isdisjoint(stem):
                raise LidarMoeError(f"{where} {i}: scan name {stem!r} holds a comma, "
                                    "a double quote or a line break")
            if stem in seen:
                raise LidarMoeError(f"{owner} {split} lists two scans named {stem}")
            seen.add(stem)
        return listed

    return DatasetManifest(
        entries("train"), entries("val"),
        read_key(doc, owner, "num_classes", "int", NUM_CLASSES, at_least(1)),
        float(read_key(doc, owner, "annotation_fraction", "float", 1.0, _FRACTION)))


def resolve(base: Path, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base / p


class TrainingLog:
    """One stage's CSV of (step, stage, term, value) rows, written atomically on close."""

    def __init__(self, path, stage: str):
        self.path = Path(path)
        self.stage = stage
        self._rows = ["step,stage,term,value\n"]

    def append(self, step: int, term: str, value: float) -> None:
        self._rows.append(f"{step},{self.stage},{term},{float(value)!r}\n")

    def close(self) -> None:
        write_text(self.path, "".join(self._rows))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
