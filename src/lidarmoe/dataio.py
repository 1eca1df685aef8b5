"""Dataset serialization.

LPCD point-cloud file: magic "LPCD", u32 version=1, u64 N, then N records
of {f32 x, f32 y, f32 z, f32 intensity, u16 beam, i32 label},
little-endian. Camera renders are stored as .npz with arrays ``class_id``
(H, W) int32, ``depth`` (H, W) float64, and ``superpixel`` (H, W) int32.
A dataset manifest is a JSON document listing per-split scan/camera pairs.
Every output file except the streamed training log and the camera renders
is written through :func:`atomic_write`.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import ClassImage
from .pointcloud import PointCloud

LPCD_MAGIC = b"LPCD"
LPCD_VERSION = 1
_RECORD = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                    ("intensity", "<f4"), ("beam", "<u2"), ("label", "<i4")])


class DataFormatError(ValueError):
    """Corrupt or mismatched dataset file."""


def atomic_write(path, write) -> None:
    """Call ``write(fh)`` on a binary file beside ``path``, then rename it
    over ``path``, so an interrupted write never leaves a partial file at
    ``path``."""
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
    """Indented, key-sorted JSON plus a final newline, written atomically."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
            raise DataFormatError(f"bad magic in {path}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != LPCD_VERSION:
            raise DataFormatError(f"unsupported LPCD version {version}")
        (n,) = struct.unpack("<Q", fh.read(8))
        raw = fh.read(n * _RECORD.itemsize)
        if len(raw) != n * _RECORD.itemsize:
            raise DataFormatError(f"truncated LPCD file {path}")
        rec = np.frombuffer(raw, dtype=_RECORD)
    xyz = np.stack([rec["x"], rec["y"], rec["z"]], axis=1)
    return PointCloud(xyz, rec["intensity"], rec["beam"].astype(np.int32),
                      rec["label"])


def write_camera_npz(path, image: ClassImage, superpixel_map: np.ndarray) -> None:
    np.savez(path, class_id=image.class_id.astype(np.int32),
             depth=image.depth.astype(np.float64),
             superpixel=superpixel_map.astype(np.int32))


def read_camera_npz(path):
    with np.load(path) as data:
        image = ClassImage(data["class_id"], data["depth"])
        superpixel = data["superpixel"]
    return image, superpixel


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
    num_classes: int = 6
    annotation_fraction: float = 1.0

    def to_json(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "annotation_fraction": self.annotation_fraction,
            "splits": {
                "train": [{"scan": e.scan, "camera": e.camera} for e in self.train],
                "val": [{"scan": e.scan, "camera": e.camera} for e in self.val],
            },
            "counts": {"train": len(self.train), "val": len(self.val)},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DatasetManifest":
        def entries(lst):
            return [ScanEntry(scan=e["scan"], camera=e.get("camera")) for e in lst]

        splits = doc.get("splits", {})
        return cls(train=entries(splits.get("train", [])),
                   val=entries(splits.get("val", [])),
                   num_classes=int(doc.get("num_classes", 6)),
                   annotation_fraction=float(doc.get("annotation_fraction", 1.0)))


def save_manifest(path, manifest: DatasetManifest) -> None:
    write_json(path, manifest.to_json())


def load_manifest(path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return DatasetManifest.from_json(json.load(fh))


def resolve(base: Path, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base / p


class TrainingLog:
    """CSV stream of (step, stage, term, value) rows."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write("step,stage,term,value\n")

    def append(self, step: int, stage: str, term: str, value: float) -> None:
        self._fh.write(f"{step},{stage},{term},{float(value)!r}\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
