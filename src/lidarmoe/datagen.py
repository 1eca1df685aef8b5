"""Synthetic scene construction, LiDAR/camera ray casting, augmentation,
and corruption generators.

Scenes are compositions of three primitive kinds on a fixed 6-class palette:
ground plane (0), vehicle box (1), pedestrian cylinder (2), pole cylinder
(3), building box (4), barrier box (5). A camera image is one
``CameraRender``, its class, depth and superpixel arrays. All generators are
pure functions of their inputs and an integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LidarMoeError
from .pointcloud import PointCloud
from .sensors import POSITIVE, CameraModel, SensorModel, at_least, check_fields, is_number

CLASS_GROUND = 0
CLASS_VEHICLE = 1
CLASS_PEDESTRIAN = 2
CLASS_POLE = 3
CLASS_BUILDING = 4
CLASS_BARRIER = 5
NUM_CLASSES = 6

# intensity = base(class) * (1 - range / max_range_m), clamped to [0, 1];
# indexed by class id: ground, vehicle, pedestrian, pole, building, barrier
INTENSITY_BASE = np.array([0.30, 0.80, 0.55, 0.95, 0.65, 0.45])

_RAY_EPS = 1e-9


@dataclass(frozen=True)
class Primitive:
    """One scene element.

    pose: (x, y, z, yaw) center and heading for boxes; (x, y, z_base)
    center-bottom for cylinders; (x, y, z_surface) for the ground plane.
    extents: half-extents (hx, hy, hz) for boxes and the ground
    rectangle (hz unused for ground); (radius, height) for cylinders.
    """

    kind: str
    pose: tuple
    extents: tuple
    class_id: int

    def __post_init__(self):
        if self.kind not in _PRIMITIVE_KINDS:
            raise LidarMoeError(f"unknown primitive kind: {self.kind}")
        n_pose, n_extents, _, _ = _PRIMITIVE_KINDS[self.kind]
        if len(self.pose) != n_pose or len(self.extents) != n_extents:
            raise LidarMoeError(f"a {self.kind} takes {n_pose} pose and {n_extents} extents "
                                f"values, got {len(self.pose)} and {len(self.extents)}")
        sized = self.extents[:2] if self.kind == "ground-plane" else self.extents
        if any(e <= 0 for e in sized):
            raise LidarMoeError("extents must be strictly positive")
        if not 0 <= self.class_id < NUM_CLASSES:
            raise LidarMoeError(f"class_id must be in [0, {NUM_CLASSES})")


@dataclass(frozen=True)
class Scene:
    primitives: tuple

    def __post_init__(self):
        grounds = [p for p in self.primitives if p.kind == "ground-plane"]
        if len(grounds) != 1:
            raise LidarMoeError("scene must contain exactly one ground plane")


@dataclass(frozen=True)
class SceneConfig:
    """Placement recipe for random scenes.

    Counts per kind plus an (x, y) placement window. Object centers are
    drawn uniformly inside the window, and nothing keeps an object off the
    sensor origin: a building box of the default window can hold it
    (``generate_dataset`` seed 0, scenes ``train_340`` and ``val_247``).
    A ray cast from inside a box does not hit that box.
    """

    n_boxes: int = 7
    n_pedestrians: int = 8
    n_poles: int = 8
    n_buildings: int = 3
    n_barriers: int = 5
    x_bounds: tuple = (3.5, 20.0)
    y_bounds: tuple = (-9.0, 9.0)
    ground_z: float = -1.8
    ground_half: float = 120.0

    def __post_init__(self):
        bounds = (lambda v: len(v) == 2 and all(map(is_number, v))), "two numbers"
        check_fields(self, "scene config", dict(
            {name: at_least(0) for name, *_ in _PLACEMENTS}, x_bounds=bounds, y_bounds=bounds,
            ground_half=POSITIVE))
        if self.x_bounds[0] > self.x_bounds[1] or self.y_bounds[0] > self.y_bounds[1]:
            raise LidarMoeError("placement bounds must have min <= max")


# (count field, kind, class, size ranges) of each placed object. Each draws
# x, y, a box its yaw, then its sizes: a box's half-extents (hx, hy, hz),
# its center hz above the ground; a cylinder's (radius, height) at its base
_PLACEMENTS = (
    ("n_boxes", "box", CLASS_VEHICLE, ((1.6, 2.4), (0.7, 1.0), (0.6, 0.9))),
    ("n_pedestrians", "vertical-cylinder", CLASS_PEDESTRIAN, ((0.25, 0.35), (1.5, 1.9))),
    ("n_poles", "vertical-cylinder", CLASS_POLE, ((0.10, 0.18), (3.5, 5.0))),
    ("n_buildings", "box", CLASS_BUILDING, ((3.0, 6.0), (0.3, 0.6), (2.5, 4.0))),
    ("n_barriers", "box", CLASS_BARRIER, ((1.5, 3.0), (0.15, 0.3), (0.4, 0.6))),
)


def build_scene(config: SceneConfig, seed: int) -> Scene:
    """Generate a random scene; deterministic for fixed (config, seed)."""
    rng = np.random.default_rng(seed)
    z0 = config.ground_z
    prims = [Primitive("ground-plane", (0.0, 0.0, z0),
                       (config.ground_half, config.ground_half, 1.0), CLASS_GROUND)]
    for count, kind, class_id, ranges in _PLACEMENTS:
        for _ in range(getattr(config, count)):
            x, y = (float(rng.uniform(*b)) for b in (config.x_bounds, config.y_bounds))
            yaw = (float(rng.uniform(-np.pi, np.pi)),) if kind == "box" else ()
            sizes = tuple(float(rng.uniform(*r)) for r in ranges)
            z = z0 + sizes[2] if kind == "box" else z0
            prims.append(Primitive(kind, (x, y, z) + yaw, sizes, class_id))
    return Scene(primitives=tuple(prims))


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------

def _ray_plane_rect(origin, dirs, prim):
    px, py, pz = prim.pose
    hx, hy = prim.extents[0], prim.extents[1]
    dz = dirs[:, 2]
    t = np.full(dirs.shape[0], np.inf)
    moving = np.abs(dz) > _RAY_EPS
    tt = (pz - origin[2]) / np.where(moving, dz, 1.0)
    x = origin[0] + tt * dirs[:, 0]
    y = origin[1] + tt * dirs[:, 1]
    ok = moving & (tt > _RAY_EPS) & (np.abs(x - px) <= hx) & (np.abs(y - py) <= hy)
    t[ok] = tt[ok]
    return t


def _rotate(rows, rot):
    """``rows @ rot.T``, rounded alike for every row count: numpy computes a
    one-row product by GEMV, which rounds unlike the GEMM of two or more
    rows, so one row is taken from a two-row product."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ rot.T)[:1]
    return rows @ rot.T


def _ray_obb(origin, dirs, prim):
    cx, cy, cz, yaw = prim.pose
    hx, hy, hz = prim.extents
    c, s = np.cos(yaw), np.sin(yaw)
    # world -> box frame
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    o = _rotate((origin - np.array([cx, cy, cz]))[None], rot)[0]
    d = _rotate(dirs, rot)
    half = np.array([hx, hy, hz])
    t_near = np.full(dirs.shape[0], -np.inf)
    t_far = np.full(dirs.shape[0], np.inf)
    ok = np.ones(dirs.shape[0], dtype=bool)
    for ax in range(3):
        da = d[:, ax]
        oa = o[ax]
        parallel = np.abs(da) <= _RAY_EPS
        ok &= ~(parallel & (np.abs(oa) > half[ax]))
        safe = np.where(parallel, 1.0, da)
        t1 = (-half[ax] - oa) / safe
        t2 = (half[ax] - oa) / safe
        lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
        t_near = np.where(parallel, t_near, np.maximum(t_near, lo))
        t_far = np.where(parallel, t_far, np.minimum(t_far, hi))
    ok &= (t_near <= t_far) & (t_near > _RAY_EPS)
    t = np.full(dirs.shape[0], np.inf)
    t[ok] = t_near[ok]
    return t


def _ray_cylinder(origin, dirs, prim):
    cx, cy, zb = prim.pose
    r, h = prim.extents
    zt = zb + h
    ox = origin[0] - cx
    oy = origin[1] - cy
    oz = origin[2]
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    n = dirs.shape[0]
    best = np.full(n, np.inf)

    a = dx * dx + dy * dy
    b = 2.0 * (ox * dx + oy * dy)
    cq = ox * ox + oy * oy - r * r
    disc = b * b - 4.0 * a * cq
    quad = (a > _RAY_EPS) & (disc >= 0.0)
    sq = np.sqrt(np.where(quad, disc, 0.0))
    for sign in (-1.0, 1.0):
        tt = (-b + sign * sq) / np.where(quad, 2.0 * a, 1.0)
        z = oz + tt * dz
        ok = quad & (tt > _RAY_EPS) & (z >= zb) & (z <= zt)
        best = np.where(ok & (tt < best), tt, best)

    moving = np.abs(dz) > _RAY_EPS
    for zcap in (zb, zt):
        tt = (zcap - oz) / np.where(moving, dz, 1.0)
        x = ox + tt * dx
        y = oy + tt * dy
        ok = moving & (tt > _RAY_EPS) & (x * x + y * y <= r * r)
        best = np.where(ok & (tt < best), tt, best)
    return best


def _box_sphere(prim):
    return prim.pose[:3], float(np.linalg.norm(prim.extents))


def _cylinder_sphere(prim):
    (x, y, zb), (r, h) = prim.pose, prim.extents
    return (x, y, zb + h / 2), float(np.sqrt(r * r + h * h / 4))


def _unbounded(prim):
    return prim.pose, np.inf


# (pose length, extents length, intersector, bounding sphere) of each kind;
# the lengths are those of Primitive's docstring, and a sphere is (center,
# radius) and holds every point of the primitive
_PRIMITIVE_KINDS = {
    "ground-plane": (3, 3, _ray_plane_rect, _unbounded),
    "box": (4, 3, _ray_obb, _box_sphere),
    "vertical-cylinder": (3, 2, _ray_cylinder, _cylinder_sphere),
}

# A ray can hit a primitive only inside its bounding sphere's cone. The cone
# test widens the radius by _CULL_PAD_M metres and scales its cosine bound by
# _CULL_COS: a float64 intersector places a surface to ~1e-14 m at scene
# scale and the cone test's dot products round at ~1e-16 relative, so both
# margins are orders of magnitude wider than any rounding and culling never
# drops a ray the full test would hit.
_CULL_PAD_M = 1e-6
_CULL_COS = 1.0 - 1e-9
# Candidate rows are padded to a multiple of this by repeating the last one.
# numpy keeps up to 7 freed blocks of each size under 1 KiB for reuse, so
# temporaries of hundreds of distinct small row counts stay allocated (about
# 0.7 MB over one reference dataset); with few distinct counts they do not.
_CULL_ROW_BLOCK = 64


def cast_rays(scene: Scene, origin, dirs):
    """Nearest-hit distances and class ids for rays ``origin + t * dirs``.

    ``origin`` is one (3,) point shared by every ray; ``dirs`` need not be
    unit length, and ``t`` is in units of each ray's ``|dirs|``. Returns
    ``(t, class_id)`` with ``t = inf`` and class -1 for misses. Ties go to
    the earlier primitive in scene order.

    Each primitive is tested only on the rays inside the cone its bounding
    sphere (center ``c``, radius ``r``) subtends from the origin: with
    ``v = c - origin``, ``L = |v|`` and ``r' = r + _CULL_PAD_M``, a ray is
    kept when ``dirs @ v >= _CULL_COS * sqrt(L**2 - r'**2) * |dirs|``, and
    every ray is kept when ``L <= r'``. The margins only widen the cone, so
    the result is the full test's, bit for bit.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
    best_t = np.full(n, np.inf)
    best_c = np.full(n, -1, dtype=np.int32)
    for prim in scene.primitives:
        _, _, intersect, sphere = _PRIMITIVE_KINDS[prim.kind]
        center, radius = sphere(prim)
        v = np.asarray(center, dtype=np.float64) - origin
        reach_sq = v @ v - (radius + _CULL_PAD_M) ** 2
        if reach_sq > 0.0:
            rows = np.flatnonzero(dirs @ v >= _CULL_COS * np.sqrt(reach_sq) * norms)
        else:
            rows = np.arange(n)
        # a repeated row gets the same t and writes the same value
        rows = np.append(rows, np.repeat(rows[-1:], -len(rows) % _CULL_ROW_BLOCK))
        t = intersect(origin, dirs[rows], prim)
        closer = t < best_t[rows]
        hit = rows[closer]
        best_t[hit] = t[closer]
        best_c[hit] = prim.class_id
    return best_t, best_c


def simulate_lidar(scene: Scene, sensor: SensorModel) -> PointCloud:
    """Cast one ray per (beam, azimuth) pair from the origin.

    Points are emitted in (beam, azimuth)-sorted order; rays with no hit
    within ``max_range_m`` produce no point. Intensity is the class base
    reflectance with linear range falloff.
    """
    elev = sensor.beam_elevations()
    azim = sensor.azimuths()
    bb, aa = np.meshgrid(np.arange(sensor.beam_count), np.arange(sensor.azimuth_steps),
                         indexing="ij")
    bb, aa = bb.ravel(), aa.ravel()
    ce, se = np.cos(elev[bb]), np.sin(elev[bb])
    dirs = np.stack([ce * np.cos(azim[aa]), ce * np.sin(azim[aa]), se], axis=1)
    t, cls = cast_rays(scene, np.zeros(3), dirs)
    hit = np.isfinite(t) & (t <= sensor.max_range_m)
    t, cls, bb = t[hit], cls[hit], bb[hit]
    xyz = dirs[hit] * t[:, None]
    intensity = np.clip(INTENSITY_BASE[cls] * (1.0 - t / sensor.max_range_m), 0.0, 1.0)
    return PointCloud(xyz, intensity, bb.astype(np.int32), cls)


@dataclass(frozen=True)
class CameraRender:
    """One camera image's (H, W) arrays: per-pixel semantic class (-1 for no
    hit), hit depth and superpixel id.

    ``depth`` is the Euclidean distance from the camera center to the hit
    surface, +inf where nothing is hit. ``superpixel`` is the tile-then-class
    partition of ``class_id``. ``dataio.CAMERA_ARRAYS`` stores one array per
    field, in field order.
    """

    class_id: np.ndarray
    depth: np.ndarray
    superpixel: np.ndarray


def _tile_superpixels(class_map: np.ndarray, tile: int) -> np.ndarray:
    """Split the class map into fixed tiles, then by class inside each tile.

    Returns an int32 superpixel-id map with ids dense in [0, S); every
    superpixel is single-class by construction.
    """
    h, w = class_map.shape
    vv, uu = np.mgrid[0:h, 0:w]
    n_tx = (w + tile - 1) // tile
    tile_id = (vv // tile) * n_tx + (uu // tile)
    # one int64 key orders pixels by (tile, class) as the pair would
    keys = tile_id.astype(np.int64) * (NUM_CLASSES + 1) + class_map + 1
    _, inverse = np.unique(keys.ravel(), return_inverse=True)
    return inverse.reshape(h, w).astype(np.int32)


def render_camera(scene: Scene, camera: CameraModel, tile: int = 16) -> CameraRender:
    """Ray-cast the scene through every pixel center; superpixels are
    ``tile`` x ``tile`` tiles split by class."""
    h, w = camera.cam_h, camera.cam_w
    vv, uu = np.mgrid[0:h, 0:w]
    pix = np.stack([uu.ravel() + 0.5, vv.ravel() + 0.5, np.ones(h * w)], axis=0)
    k_inv = np.linalg.inv(camera.cam_intrinsics)
    cam_dirs = k_inv @ pix
    r = camera.cam_extrinsics[:3, :3]
    dirs = (r.T @ cam_dirs).T
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    t, cls = cast_rays(scene, camera.center_in_lidar(), dirs)
    class_map = cls.reshape(h, w)
    return CameraRender(class_map, t.reshape(h, w), _tile_superpixels(class_map, tile))


# ---------------------------------------------------------------------------
# augmentation and corruption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentParams:
    flip_x: bool
    flip_y: bool
    rotation: float
    scale: float


def draw_augment_params(seed: int) -> AugmentParams:
    """Flips with p=0.5 each, z-rotation uniform in [-pi, pi], isotropic
    scale uniform in [0.95, 1.05]; draw order fixed for reproducibility."""
    rng = np.random.default_rng(seed)
    flip_x = bool(rng.random() < 0.5)
    flip_y = bool(rng.random() < 0.5)
    rotation = float(rng.uniform(-np.pi, np.pi))
    scale = float(rng.uniform(0.95, 1.05))
    return AugmentParams(flip_x, flip_y, rotation, scale)


def apply_augment(cloud: PointCloud, params: AugmentParams) -> PointCloud:
    """Flip-x, flip-y, rotate about z, then scale; other fields unchanged."""
    xyz = cloud.xyz.astype(np.float64).copy()
    if params.flip_x:
        xyz[:, 0] = -xyz[:, 0]
    if params.flip_y:
        xyz[:, 1] = -xyz[:, 1]
    c, s = np.cos(params.rotation), np.sin(params.rotation)
    x = xyz[:, 0] * c - xyz[:, 1] * s
    y = xyz[:, 0] * s + xyz[:, 1] * c
    xyz[:, 0], xyz[:, 1] = x, y
    xyz *= params.scale
    return cloud.replace_xyz(xyz)


def augment(cloud: PointCloud, seed: int) -> PointCloud:
    return apply_augment(cloud, draw_augment_params(seed))


CORRUPTION_KINDS = ("beam-missing", "jitter", "range-cut")
CORRUPTION_SEVERITIES = (1, 2, 3)
_JITTER_SIGMA = {1: 0.02, 2: 0.05, 3: 0.10}
_RANGE_LIMIT = {1: 40.0, 2: 30.0, 3: 20.0}


def dropped_beams(beam_count: int, severity: int) -> np.ndarray:
    """Beam indices removed by the beam-missing corruption.

    Severity 1 and 2 drop every 4th / 2nd beam; severity 3 drops the
    half-up-rounded multiples of 1.5 (two thirds of all beams).
    """
    if severity in (1, 2):
        k = {1: 4, 2: 2}[severity]
        return np.arange(0, beam_count, k)
    j = np.arange(int(np.ceil(beam_count / 1.5)) + 1)
    idx = np.unique(np.floor(1.5 * j + 0.5).astype(np.int64))
    return idx[idx < beam_count]


def corrupt(cloud: PointCloud, kind: str, severity: int, seed: int) -> PointCloud:
    """Simplified sensor-corruption analogues, deterministic per seed."""
    if kind not in CORRUPTION_KINDS:
        raise LidarMoeError(f"unknown corruption kind: {kind}")
    if severity not in CORRUPTION_SEVERITIES:
        raise LidarMoeError("severity must be 1, 2, or 3")
    if kind == "beam-missing":
        gone = dropped_beams(int(cloud.beam.max(initial=-1)) + 1, severity)
        keep = ~np.isin(cloud.beam, gone)
        return cloud.select(keep)
    if kind == "jitter":
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(cloud.xyz.shape) * _JITTER_SIGMA[severity]
        return cloud.replace_xyz(cloud.xyz.astype(np.float64) + noise)
    keep = cloud.depth() <= _RANGE_LIMIT[severity]
    return cloud.select(keep)
