"""Representation transforms: spherical range projection, sparse
voxelization, camera projection, superpoint construction, and the label
spaces of the derived representations.

All functions are pure over immutable inputs. The range projection maps a
point (x, y, z) with depth d to

    u = 0.5 * (1 - atan2(y, x) / pi) * W_r
    v = (1 - (asin(z / d) + fov_down_rad) / fov_total_rad) * H_r

floored to integers and clamped to the grid. Cell collisions keep the
minimum-depth point, but every point retains its pixel so unprojection
stays total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import segment_means
from .errors import LidarMoeError
from .pointcloud import PointCloud, row_norms
from .sensors import CameraModel, SensorModel


@dataclass(frozen=True)
class RangeImage:
    """Spherical projection of a cloud onto an (H_r, W_r) grid.

    ``features`` is (H_r, W_r, 5) float32 carrying (x, y, z, intensity,
    depth) of each cell's kept point, zeros where empty. ``kept_index``
    is (H_r, W_r) int32 with the kept point id or -1. ``pixel_u`` /
    ``pixel_v`` map every input point to its cell.
    """

    features: np.ndarray
    kept_index: np.ndarray
    pixel_u: np.ndarray
    pixel_v: np.ndarray

    @property
    def height(self):
        return self.features.shape[0]

    @property
    def width(self):
        return self.features.shape[1]

    def point_cell_ids(self) -> np.ndarray:
        """Flat cell index (v * W_r + u) per input point."""
        return (self.pixel_v.astype(np.int64) * self.width
                + self.pixel_u.astype(np.int64))


def range_uv_exact(xyz, sensor: SensorModel):
    """Pre-floor (u, v) coordinates of the spherical projection, float64."""
    xyz = np.asarray(xyz).reshape(-1, 3)
    d = row_norms(xyz)
    if np.any(d <= 0):
        raise LidarMoeError("points must have positive depth")
    x, y, z = (xyz[:, j].astype(np.float64) for j in range(3))
    u = 0.5 * (1.0 - np.arctan2(y, x) / np.pi) * sensor.range_w
    v = (1.0 - (np.arcsin(z / d) + sensor.fov_down_rad) / sensor.fov_total_rad) * sensor.range_h
    return u, v, d


def project_to_range(cloud: PointCloud, sensor: SensorModel) -> RangeImage:
    h, w = sensor.range_h, sensor.range_w
    u, v, d = range_uv_exact(cloud.xyz, sensor)
    uc = np.clip(np.floor(u).astype(np.int64), 0, w - 1)
    vc = np.clip(np.floor(v).astype(np.int64), 0, h - 1)

    cell = vc * w + uc
    # min-depth point per cell, ties to the lower point id: each cell's
    # minimum depth, then the points at it written in reverse id order so
    # the lowest id lands last; no sort
    min_depth = np.full(h * w, np.inf)
    np.minimum.at(min_depth, cell, d)
    win = (d == min_depth[cell]).nonzero()[0][::-1]
    kept = np.full(h * w, -1, np.int32)
    kept[cell[win]] = win

    # filled by flat cell, one column block at a time
    cells = (kept >= 0).nonzero()[0]
    src = kept[cells]
    features = np.zeros((h * w, 5), np.float32)
    features[cells, :3] = np.take(cloud.xyz, src, axis=0)
    features[cells, 3] = cloud.intensity[src]
    features[cells, 4] = d[src]
    return RangeImage(features.reshape(h, w, 5), kept.reshape(h, w),
                      uc.astype(np.int32), vc.astype(np.int32))


@dataclass(frozen=True)
class VoxelGrid:
    """Sparse voxelization with floored integer coordinates.

    ``coords`` is (M, 3) int64 voxel coordinates in lexicographic order,
    ``point_voxel`` the per-point voxel id in [0, M), and ``features`` the
    (M, 4) mean of member (x, y, z, intensity).
    """

    coords: np.ndarray
    point_voxel: np.ndarray
    features: np.ndarray

    @property
    def count(self):
        return self.coords.shape[0]


def lexicographic_keys(coords: np.ndarray, pad: int = 0):
    """One int64 key per integer (x, y, z) row, ordered as the rows are
    lexicographically, plus the key step of each axis.

    Every axis spans the rows' range widened by ``pad`` cells on each side,
    so a row moved by up to ``pad`` cells per axis keeps a distinct key.
    Empty ``coords`` give empty keys. Raises LidarMoeError when the keys
    would not fit in int64.
    """
    if not len(coords):
        return np.zeros(0, np.int64), (1, 1, 1)
    # column by column: an axis-0 reduction of a 3-wide array is ~8x slower
    lo = [int(coords[:, j].min()) - pad for j in range(3)]
    hi = [int(coords[:, j].max()) + pad for j in range(3)]
    span = [b - a + 1 for a, b in zip(lo, hi)]
    limit = np.iinfo(np.int64)
    if min(lo) < limit.min or max(hi) > limit.max or span[0] * span[1] * span[2] > limit.max:
        raise LidarMoeError("voxel coordinate range too large for int64 keys")
    steps = (span[1] * span[2], span[2], 1)
    keys = ((coords[:, 0] - lo[0]) * steps[0] + (coords[:, 1] - lo[1]) * steps[1]
            + (coords[:, 2] - lo[2]))
    return keys, steps


def voxelize(cloud: PointCloud, sizes) -> VoxelGrid:
    sx, sy, sz = sizes
    if sx <= 0 or sy <= 0 or sz <= 0:
        raise LidarMoeError("voxel sizes must be positive")
    # column by column: an (N, 3) divide and floor is ~2x slower
    idx = np.empty((cloud.count, 3), np.int64)
    for j, size in enumerate((sx, sy, sz)):
        idx[:, j] = np.floor(cloud.xyz[:, j].astype(np.float64) / size)
    # unique keys sort like the coordinate rows, so voxel ids follow the
    # lexicographic order of their coordinates
    uniq, inverse = np.unique(lexicographic_keys(idx)[0], return_inverse=True)
    m, inverse = uniq.shape[0], inverse.astype(np.int64)
    # any member point's row gives its voxel's coordinates
    member = np.empty(m, np.int64)
    member[inverse] = np.arange(cloud.count)
    coords = np.take(idx, member, axis=0)
    # float64 so pooled means stay exact; consumers cast on entry
    feats, _ = segment_means(inverse, cloud.features(), m)
    return VoxelGrid(coords, inverse, feats)


def project_to_image(cloud: PointCloud, camera: CameraModel):
    """Pinhole projection of every point.

    Returns ``(u, v, in_frustum)`` float64/bool arrays; ``in_frustum`` is
    True iff the camera-frame depth is positive and (u, v) lands inside
    the image.
    """
    xyz = cloud.xyz.astype(np.float64)
    hom = np.concatenate([xyz, np.ones((cloud.count, 1))], axis=1)
    cam = (camera.cam_extrinsics @ hom.T)[:3]
    z = cam[2]
    safe_z = np.where(np.abs(z) > 1e-12, z, 1e-12)
    proj = camera.cam_intrinsics @ (cam / safe_z)
    u, v = proj[0], proj[1]
    in_frustum = (z > 0) & (u >= 0) & (u < camera.cam_w) & (v >= 0) & (v < camera.cam_h)
    return u, v, in_frustum


@dataclass(frozen=True)
class SuperpointPartition:
    """Image-anchored point groups.

    ``point_group`` maps each point to a group id in [0, S) or -1;
    ``superpixel_of`` links each group back to its source superpixel id.
    """

    point_group: np.ndarray
    superpixel_of: np.ndarray

    @property
    def count(self):
        return len(self.superpixel_of)


def build_superpoints(cloud: PointCloud, camera: CameraModel,
                      superpixel_map: np.ndarray, pixel_depth: np.ndarray,
                      tolerance: float = 0.1) -> SuperpointPartition:
    """Assign points to superpixels through the camera projection.

    A point joins the superpoint of the superpixel under its projected
    pixel iff it is in the frustum and its distance to the camera agrees
    with the rendered pixel depth within ``tolerance`` (occlusion rule).
    Superpixels with no member points are dropped and ids recompacted.
    """
    group = np.full(cloud.count, -1, np.int64)
    u, v, ok = project_to_image(cloud, camera)
    ui = np.floor(u).astype(np.int64)
    vi = np.floor(v).astype(np.int64)
    dist = row_norms(cloud.xyz.astype(np.float64) - camera.center_in_lidar())
    sel = np.flatnonzero(ok)
    agree = np.abs(dist[sel] - pixel_depth[vi[sel], ui[sel]]) <= tolerance
    sel = sel[agree]
    group[sel] = superpixel_map[vi[sel], ui[sel]]

    assigned = group >= 0
    used, compact = np.unique(group[assigned], return_inverse=True)
    group[assigned] = compact
    return SuperpointPartition(group.astype(np.int32), used.astype(np.int32))


def project_labels(cloud: PointCloud, target) -> np.ndarray:
    """Label space for a derived representation.

    Range target: the kept (min-depth) point's label per cell, -1 for
    empty cells, flattened row-major. Voxel target: majority vote over
    member labels, ties to the smallest class id.
    """
    labels = cloud.label.astype(np.int64)
    if isinstance(target, RangeImage):
        out = np.full(target.height * target.width, -1, np.int64)
        kept = target.kept_index.ravel().astype(np.int64)
        have = kept >= 0
        out[have] = labels[kept[have]]
        return out.astype(np.int32)
    if isinstance(target, VoxelGrid):
        m = target.count
        out = np.full(m, -1, np.int64)
        lab = labels.copy()
        valid = lab >= 0
        if np.any(valid):
            num_classes = int(lab[valid].max()) + 1
            votes = np.bincount(
                target.point_voxel[valid] * num_classes + lab[valid],
                minlength=m * num_classes).reshape(m, num_classes)
            has_vote = votes.sum(axis=1) > 0
            out[has_vote] = votes[has_vote].argmax(axis=1)
        return out.astype(np.int32)
    raise LidarMoeError(f"unsupported target type: {type(target).__name__}")
