"""Miniature representation backbones and the frozen teacher.

Three small encoders preserve each representation's inductive bias. Each
takes graph values (its features as a ``Var``, then its index arrays), a
parameter prefix and a head name:

* range: two 3x3 convolutions (5 -> 32 -> 32) over the projection grid,
  then a per-cell linear head;
* voxel: pointwise MLP (4 -> 32), one mean aggregation over 6-connected
  existing voxels (self included), MLP (32 -> 32), linear head; voxel ids
  follow the lexicographic order of the voxel coordinates;
* point: farthest-point-sampled centroids, k-nearest-neighbor groups,
  shared pointwise MLP (4 -> 32) max-pooled per group, and a per-point
  head over (own feature || nearest centroid feature). A group lists its
  k points by ascending distance to the centroid, ties to the smaller
  point id.

The frozen teacher is two weight arrays drawn from a fixed seed, a class
embedding and a projection: a pixel's class embedding plus a sinusoidal
positional code, projected, then averaged per superpixel. It reads the
ground-truth ``class_id`` of the camera render, and the superpixels it
averages over are split by class (``datagen._tile_superpixels``), so it is
an oracle: stage-1 gains measured against it are upper bounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import LidarMoeError
from .datagen import ClassImage
from .geometry import VoxelGrid, lexicographic_keys
from .params import ParameterStore, add_linear, glorot_uniform
from .pointcloud import PointCloud

TRUNK_CH = 32
POINT_CONCAT_CH = 2 * TRUNK_CH
TEACHER_CH = 32

# metric inputs (coordinates, depth) are divided by this before the first
# layer so activations start near unit scale; intensity is already in [0, 1]
COORD_SCALE = 30.0
_SCALE_XYZI = np.array([1.0, 1.0, 1.0, COORD_SCALE], np.float32) / COORD_SCALE
_SCALE_RANGE = np.array([1.0, 1.0, 1.0, COORD_SCALE, 1.0], np.float32) / COORD_SCALE


def linear(ctx, x, name):
    return ad.add(ad.matmul(x, ctx.param(f"{name}.w")), ctx.param(f"{name}.b"))


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_range_params(store: ParameterStore, dim: int, rng):
    store.add("range.conv1.w", glorot_uniform((9 * 5, TRUNK_CH), rng))
    store.add("range.conv1.b", np.zeros(TRUNK_CH, np.float32))
    store.add("range.conv2.w", glorot_uniform((9 * TRUNK_CH, TRUNK_CH), rng))
    store.add("range.conv2.b", np.zeros(TRUNK_CH, np.float32))
    add_linear(store, "range.head", TRUNK_CH, dim, rng)


def init_voxel_params(store: ParameterStore, dim: int, rng):
    add_linear(store, "voxel.mlp1", 4, TRUNK_CH, rng)
    add_linear(store, "voxel.mlp2", TRUNK_CH, TRUNK_CH, rng)
    add_linear(store, "voxel.head", TRUNK_CH, dim, rng)


def init_point_params(store: ParameterStore, dim: int, rng):
    add_linear(store, "point.mlp", 4, TRUNK_CH, rng)
    add_linear(store, "point.head", POINT_CONCAT_CH, dim, rng)


def init_encoder_params(store, kind, dim, rng):
    """The ``kind`` backbone's parameters, named ``<kind>.*``."""
    {"range": init_range_params, "voxel": init_voxel_params,
     "point": init_point_params}[kind](store, dim, rng)


def trunk_width(kind: str) -> int:
    return POINT_CONCAT_CH if kind == "point" else TRUNK_CH


# ---------------------------------------------------------------------------
# range encoder
# ---------------------------------------------------------------------------

def build_range_embed(ctx, image, prefix, head):
    """Per-cell features of the (H_r, W_r, 5) ``image``: two 3x3
    convolutions, then the ``head`` linear layer over each cell."""
    x = ad.mul(image, ad.as_var(_SCALE_RANGE))
    h, w, _ = x.shape
    y = ad.relu(ad.conv2d3x3(x, ctx.param(f"{prefix}.conv1.w"),
                             ctx.param(f"{prefix}.conv1.b")))
    y = ad.relu(ad.conv2d3x3(y, ctx.param(f"{prefix}.conv2.w"),
                             ctx.param(f"{prefix}.conv2.b")))
    return linear(ctx, ad.reshape(y, (h * w, TRUNK_CH)), f"{prefix}.{head}")


# ---------------------------------------------------------------------------
# voxel encoder
# ---------------------------------------------------------------------------

_NEIGHBOR_OFFSETS = np.array([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                              (0, -1, 0), (0, 0, 1), (0, 0, -1)], np.int64)


def voxel_neighbor_pairs(grid: VoxelGrid):
    """(src, dst) voxel-id pairs for the 6-connected existing neighbors of
    every voxel, self included, sorted by (dst, src)."""
    # grid.coords are in lexicographic order, so their keys are sorted
    keys, steps = lexicographic_keys(grid.coords, pad=1)
    dst = np.tile(np.arange(grid.count, dtype=np.int64), len(_NEIGHBOR_OFFSETS))
    wanted = (keys[None, :] + (_NEIGHBOR_OFFSETS @ np.array(steps))[:, None]).ravel()
    src = np.minimum(np.searchsorted(keys, wanted), grid.count - 1)
    hit = keys[src] == wanted
    src, dst = src[hit].astype(np.int64), dst[hit]
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def build_voxel_embed(ctx, feats, pairs, prefix, head):
    """Per-voxel features: MLP, mean over each voxel's ``(src, dst)``
    neighbor ``pairs``, MLP, then the ``head`` linear layer."""
    x = ad.mul(feats, ad.as_var(_SCALE_XYZI))
    h = ad.relu(linear(ctx, x, f"{prefix}.mlp1"))
    src, dst = pairs
    agg = ad.segment_mean(ad.gather_rows(h, src), dst, x.shape[0])
    return linear(ctx, ad.relu(linear(ctx, agg, f"{prefix}.mlp2")),
                  f"{prefix}.{head}")


# ---------------------------------------------------------------------------
# point encoder
# ---------------------------------------------------------------------------

def _fps_sq_dist(xyz: np.ndarray, count: int):
    """Greedy farthest-point centroid ids, starting from point 0 (distance
    ties resolve to the smallest id), plus the (count, N) float64 squared
    distances from each centroid to every point."""
    n = xyz.shape[0]
    count = min(count, n)
    if count < 1:
        raise LidarMoeError("need at least one point and one centroid")
    x, y, z = (xyz[:, j].astype(np.float64) for j in range(3))
    chosen = np.zeros(count, np.int64)
    d2 = np.empty((count, n), np.float64)
    dist = None
    for i in range(count):
        if i:
            chosen[i] = int(np.argmax(dist))
        c = chosen[i]
        dx, dy, dz = x - x[c], y - y[c], z - z[c]
        row = d2[i]
        np.multiply(dx, dx, out=row)
        row += dy * dy
        row += dz * dz
        # the running minimum compares Euclidean distances, as sqrt can
        # merge nearly equal squared distances into one tie
        dist = np.sqrt(row) if dist is None else np.minimum(dist, np.sqrt(row))
    return chosen, d2


@dataclass(frozen=True)
class PointGrouping:
    """Sampled centroids plus their k-NN membership and the per-point
    nearest centroid, all precomputed from geometry."""

    centroid_ids: np.ndarray
    member_rows: np.ndarray
    member_group: np.ndarray
    nearest_centroid: np.ndarray

    @property
    def count(self):
        return self.centroid_ids.shape[0]


def point_grouping(cloud: PointCloud, centroid_count: int, k: int) -> PointGrouping:
    """FPS centroids, each centroid's k nearest points in ascending squared
    distance (ties to the smaller point id), and each point's nearest
    centroid (ties to the earlier centroid)."""
    if cloud.count < 1 or k < 1:
        raise LidarMoeError("need at least one point and k >= 1")
    centroids, d2 = _fps_sq_dist(cloud.xyz, centroid_count)
    count, k_eff = centroids.shape[0], min(k, cloud.count)
    kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1].copy()
    # every row has >= k_eff candidates at or below its k-th distance;
    # ordering them by (row, distance, point id) puts each row's k nearest
    # first
    rows, cols = np.nonzero(d2 <= kth[:, None])
    order = np.lexsort((cols, d2[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows, np.arange(count))
    first_k = (starts[:, None] + np.arange(k_eff)).ravel()
    nearest = np.argmin(d2, axis=0).astype(np.int64)
    return PointGrouping(centroids,
                         cols[first_k].astype(np.int64),
                         np.repeat(np.arange(count, dtype=np.int64), k_eff),
                         nearest)


def build_point_embed(ctx, feats, grouping: PointGrouping, prefix, head):
    """Per-point features: pointwise MLP, max-pooled per ``grouping`` group,
    each point's own feature beside its nearest centroid's, then ``head``."""
    x = ad.mul(feats, ad.as_var(_SCALE_XYZI))
    h = ad.relu(linear(ctx, x, f"{prefix}.mlp"))
    members = ad.gather_rows(h, grouping.member_rows)
    pooled = ad.segment_max(members, grouping.member_group, grouping.count)
    per_point = ad.gather_rows(pooled, grouping.nearest_centroid)
    return linear(ctx, ad.concat_cols([h, per_point]), f"{prefix}.{head}")


# ---------------------------------------------------------------------------
# frozen teacher
# ---------------------------------------------------------------------------

def teacher_weights(num_classes: int, dim: int, seed: int):
    """The teacher's (num_classes, 32) class embedding and (32, dim) projection."""
    rng = np.random.default_rng(seed)
    return (glorot_uniform((num_classes, TEACHER_CH), rng),
            glorot_uniform((TEACHER_CH, dim), rng))


POSITION_SCALE = 0.25


@functools.lru_cache(maxsize=4)
def positional_code(width: int, height: int) -> np.ndarray:
    """Sinusoidal (u, v) code per pixel, shape (H * W, 32), row-major.

    Scaled down so the class embedding dominates the pixel feature and
    position acts as a tie-breaker within a class. Made once per image
    size and shared, so the array is read-only.
    """
    vv, uu = np.mgrid[0:height, 0:width]
    un = (uu.ravel() + 0.5) / width
    vn = (vv.ravel() + 0.5) / height
    freqs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]) * np.pi
    parts = []
    for p in (un, vn):
        ang = p[:, None] * freqs[None, :]
        parts.extend([np.sin(ang), np.cos(ang)])
    code = (POSITION_SCALE * np.concatenate(parts, axis=1)).astype(np.float32)
    code.flags.writeable = False
    return code


def teacher_features(class_image: ClassImage, weights,
                     superpixel_map: np.ndarray) -> np.ndarray:
    """Per-superpixel embeddings Q, shape (S, D), of the teacher ``weights``.

    Per-pixel feature = one-hot(class) @ class embedding + positional
    code, through the frozen projection; Q is the superpixel mean. Class
    -1 pixels contribute only their positional code.
    """
    emb, proj = (w.astype(np.float64) for w in weights)
    cls = class_image.class_id.ravel().astype(np.int64)
    h, w = class_image.class_id.shape
    feat = positional_code(w, h).astype(np.float64)
    labeled = cls >= 0
    feat[labeled] += emb[cls[labeled]]
    pix = feat @ proj

    sp = superpixel_map.ravel().astype(np.int64)
    means, _ = ad.segment_means(sp, pix, int(sp.max(initial=-1)) + 1)
    return means.astype(np.float32)
