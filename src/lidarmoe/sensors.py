"""Spinning-LiDAR and pinhole-camera models, and the one reader of JSON
config documents: each config class names its fields as its JSON keys, is
built by ``config_from_json`` and checks its values by type and by rule
(``at_least``, ``POSITIVE``, ``one_of``), as ``read_key`` checks a CLI key."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

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
    "tuple": lambda v: isinstance(v, tuple),
}


def at_least(low):
    """The rule ``value >= low``, a ``(check, expected)`` pair."""
    return (lambda v: v >= low), f">= {low}"


POSITIVE = (lambda v: v > 0), "> 0"


def one_of(choices):
    """The rule ``value in choices``, written ``a|b|c``."""
    return (lambda v: v in choices), "|".join(map(str, choices))


REQUIRED = object()


def read_key(doc, owner, key, what, default=REQUIRED, rule=None):
    """``doc[key]`` checked with ``FIELD_TYPES[what]`` and then ``rule``, or
    ``default`` when given and the key is absent. Raises LidarMoeError
    naming ``owner`` (say "eval config") and the key, as in ``<owner> <key>
    must be <expected>, got <value>``."""
    if not isinstance(doc, dict):
        raise LidarMoeError(f"{owner} must be a JSON object")
    if key not in doc:
        if default is REQUIRED:
            raise LidarMoeError(f"{owner} missing key {key!r}")
        return default
    value = doc[key]
    if not FIELD_TYPES[what](value):
        raise LidarMoeError(f"{owner} {key} must be {what}, got {value!r}")
    if rule is not None and not rule[0](value):
        raise LidarMoeError(f"{owner} {key} must be {rule[1]}, got {value!r}")
    return value


def reject_unknown(doc, accepted, owner):
    """Raise LidarMoeError naming ``owner`` and every key of ``doc`` that is
    not in ``accepted``."""
    unknown = sorted(set(doc) - set(accepted))
    if unknown:
        raise LidarMoeError(f"unknown {owner} key(s): {', '.join(unknown)}")


def check_fields(config, owner, rules):
    """``read_key`` of each dataclass field of ``config`` by its annotation
    and its rule in ``rules`` (field name -> ``(check, expected)``)."""
    for f in fields(config):
        read_key(vars(config), owner, f.name, f.type, rule=rules.get(f.name))


def config_to_json(config) -> dict:
    """Dataclass ``config`` as a JSON object, ``tuple`` fields as lists."""
    return {f.name: list(getattr(config, f.name)) if f.type == "tuple"
            else getattr(config, f.name) for f in fields(config)}


def config_from_json(cls, doc: dict, owner):
    """A ``cls`` from the keys of ``doc`` named as its fields, lists made
    tuples for ``tuple`` fields; other keys are ignored. Raises
    LidarMoeError naming ``owner`` and a missing key that has no default;
    ``cls`` checks the values it is given."""
    values = {}
    for f in fields(cls):
        if f.name in doc:
            value = doc[f.name]
            values[f.name] = tuple(value) if f.type == "tuple" and isinstance(value, list) \
                else value
        elif f.default is MISSING:
            raise LidarMoeError(f"{owner} missing key {f.name!r}")
    return cls(**values)


@dataclass(frozen=True)
class SensorModel:
    """Spinning LiDAR with evenly spaced beams and azimuth steps.

    ``fov_total_rad`` is the vertical field of view, ``fov_down_rad`` the
    part of it below horizontal. Beam elevations are cell-centered and
    evenly spaced inside [-fov_down_rad, fov_total_rad - fov_down_rad],
    beam 0 lowest; azimuths are cell-centered in [-pi, pi).
    ``range_h``/``range_w`` give the spherical-projection grid resolution.
    """

    beam_count: int
    azimuth_steps: int
    fov_total_rad: float
    fov_down_rad: float
    max_range_m: float
    range_h: int
    range_w: int

    def __post_init__(self):
        check_fields(self, "sensor config", {
            "beam_count": at_least(1), "azimuth_steps": at_least(1),
            "max_range_m": POSITIVE, "range_h": at_least(1), "range_w": at_least(1)})
        if not 0.0 < self.fov_down_rad < self.fov_total_rad:
            raise LidarMoeError("sensor config fov_down_rad must be in (0, fov_total_rad)")

    def beam_elevations(self) -> np.ndarray:
        b = self.beam_count
        return -self.fov_down_rad + self.fov_total_rad * (np.arange(b) + 0.5) / b

    def azimuths(self) -> np.ndarray:
        a = self.azimuth_steps
        return (-np.pi + 2.0 * np.pi * (np.arange(a) + 0.5) / a).astype(np.float64)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: 3x3 intrinsics and a 4x4 rigid LiDAR-to-camera
    transform, each given as a list of rows and held as a float64 array.
    Camera frame convention: +z forward, +x right, +y down."""

    cam_intrinsics: matrix
    cam_extrinsics: matrix
    cam_w: int
    cam_h: int

    def __post_init__(self):
        check_fields(self, "camera config", {"cam_w": at_least(1), "cam_h": at_least(1)})
        for name, n in (("cam_intrinsics", 3), ("cam_extrinsics", 4)):
            rows = getattr(self, name)
            if len(rows) != n or any(len(row) != n for row in rows):
                raise LidarMoeError(f"camera config {name} must be {n}x{n}, got {rows!r}")
            object.__setattr__(self, name, np.asarray(rows, dtype=np.float64))
        k, t = self.cam_intrinsics, self.cam_extrinsics
        if k[1, 0] != 0 or k[2, 0] != 0 or k[2, 1] != 0:
            raise LidarMoeError("camera config cam_intrinsics must be upper-triangular")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise LidarMoeError("camera config cam_intrinsics focal lengths must be positive")
        r = t[:3, :3]
        if np.linalg.norm(r.T @ r - np.eye(3)) >= 1e-6:
            raise LidarMoeError("camera config cam_extrinsics rotation block must be "
                                "orthonormal")
        if not np.allclose(t[3], [0, 0, 0, 1]):
            raise LidarMoeError("camera config cam_extrinsics bottom row must be [0,0,0,1]")

    def center_in_lidar(self) -> np.ndarray:
        """Camera optical center expressed in the LiDAR frame."""
        r = self.cam_extrinsics[:3, :3]
        t = self.cam_extrinsics[:3, 3]
        return -r.T @ t
