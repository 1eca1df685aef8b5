"""Spinning-LiDAR and pinhole-camera models, read from JSON documents."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import LidarMoeError


def is_number(v) -> bool:
    """A finite int or float; a bool does not count."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# accepted JSON values per field type name; a matrix is a list of number lists
FIELD_TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": is_number,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "str or null": lambda v: v is None or isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
    "numbers": lambda v: isinstance(v, list) and all(map(is_number, v)),
    "matrix": lambda v: isinstance(v, list) and all(map(FIELD_TYPES["numbers"], v)),
}


_REQUIRED = object()


def read_key(doc, owner, key, what, default=_REQUIRED):
    """``doc[key]`` checked with ``FIELD_TYPES[what]``, or ``default`` when
    given and the key is absent; raises LidarMoeError naming ``owner``
    (the document, say "sensor config") and the key."""
    if not isinstance(doc, dict):
        raise LidarMoeError(f"{owner} must be a JSON object")
    if key not in doc:
        if default is _REQUIRED:
            raise LidarMoeError(f"{owner} missing key {key!r}")
        return default
    value = doc[key]
    if not FIELD_TYPES[what](value):
        raise LidarMoeError(f"{owner} {key} must be {what}, got {value!r}")
    return value


def check_fields(config, owner, tuple_rule):
    """Raise LidarMoeError naming ``owner`` (say "run config") and the first
    dataclass field of ``config`` whose value does not fit its annotation;
    ``tuple_rule`` is the ``(check, expected)`` pair for ``tuple`` fields."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "tuple":
            check, what = tuple_rule
            ok = isinstance(value, tuple) and check(value)
        else:
            ok, what = FIELD_TYPES[f.type](value), f.type
        if not ok:
            raise LidarMoeError(f"{owner} {f.name} must be {what}, got {value!r}")


def config_to_json(config) -> dict:
    """Dataclass ``config`` as a JSON object, ``tuple`` fields as lists."""
    return {f.name: list(getattr(config, f.name)) if f.type == "tuple"
            else getattr(config, f.name) for f in fields(config)}


def config_from_json(cls, doc: dict, owner):
    """A ``cls`` from a JSON object, lists made tuples for ``tuple`` fields;
    raises LidarMoeError naming ``owner`` and every key that is no field."""
    tuples = {f.name: f.type == "tuple" for f in fields(cls)}
    unknown = sorted(set(doc) - set(tuples))
    if unknown:
        raise LidarMoeError(f"unknown {owner} key(s): {', '.join(unknown)}")
    return cls(**{k: tuple(v) if tuples[k] and isinstance(v, list) else v
                  for k, v in doc.items()})


@dataclass(frozen=True)
class SensorModel:
    """Spinning LiDAR with evenly spaced beams and azimuth steps.

    ``fov_total`` is the vertical field of view in radians, ``fov_down``
    the part of it below horizontal. Beam elevations are cell-centered and
    evenly spaced inside [-fov_down, fov_total - fov_down], beam 0 lowest;
    azimuths are cell-centered in [-pi, pi). ``range_h``/``range_w`` give
    the spherical-projection grid resolution.
    """

    beam_count: int
    azimuth_steps: int
    fov_total: float
    fov_down: float
    max_range: float
    range_h: int
    range_w: int

    def __post_init__(self):
        if not (0.0 < self.fov_down < self.fov_total):
            raise LidarMoeError("need 0 < fov_down < fov_total")
        if self.range_h < 1 or self.range_w < 1:
            raise LidarMoeError("range image resolution must be >= 1")
        if self.beam_count < 1 or self.azimuth_steps < 1:
            raise LidarMoeError("beam_count and azimuth_steps must be >= 1")
        if self.max_range <= 0:
            raise LidarMoeError("max_range must be positive")

    def beam_elevations(self) -> np.ndarray:
        b = self.beam_count
        return (-self.fov_down
                + self.fov_total * (np.arange(b) + 0.5) / b).astype(np.float64)

    def azimuths(self) -> np.ndarray:
        a = self.azimuth_steps
        return (-np.pi + 2.0 * np.pi * (np.arange(a) + 0.5) / a).astype(np.float64)

    @classmethod
    def from_json(cls, doc: dict) -> "SensorModel":
        def read(key, what):
            return read_key(doc, "sensor config", key, what)

        return cls(
            beam_count=read("beam_count", "int"),
            azimuth_steps=read("azimuth_steps", "int"),
            fov_total=float(read("fov_total_rad", "float")),
            fov_down=float(read("fov_down_rad", "float")),
            max_range=float(read("max_range_m", "float")),
            range_h=read("range_h", "int"),
            range_w=read("range_w", "int"),
        )


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: 3x3 intrinsics and a 4x4 rigid LiDAR-to-camera
    transform. Camera frame convention: +z forward, +x right, +y down."""

    intrinsics: np.ndarray
    extrinsics: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.extrinsics, dtype=np.float64).reshape(4, 4)
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsics", t)
        if k[1, 0] != 0 or k[2, 0] != 0 or k[2, 1] != 0:
            raise LidarMoeError("intrinsics must be upper-triangular")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise LidarMoeError("focal lengths must be positive")
        r = t[:3, :3]
        if np.linalg.norm(r.T @ r - np.eye(3)) >= 1e-6:
            raise LidarMoeError("extrinsic rotation block must be orthonormal")
        if not np.allclose(t[3], [0, 0, 0, 1]):
            raise LidarMoeError("extrinsics bottom row must be [0,0,0,1]")
        if self.width < 1 or self.height < 1:
            raise LidarMoeError("image size must be >= 1")

    def center_in_lidar(self) -> np.ndarray:
        """Camera optical center expressed in the LiDAR frame."""
        r = self.extrinsics[:3, :3]
        t = self.extrinsics[:3, 3]
        return -r.T @ t

    @classmethod
    def from_json(cls, doc: dict) -> "CameraModel":
        def read(key, what):
            return read_key(doc, "camera config", key, what)

        return cls(
            intrinsics=np.asarray(read("cam_intrinsics", "matrix"), dtype=np.float64),
            extrinsics=np.asarray(read("cam_extrinsics", "matrix"), dtype=np.float64),
            width=read("cam_w", "int"),
            height=read("cam_h", "int"),
        )

