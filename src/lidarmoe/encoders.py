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
  point id. Grouping is one pass over the centroids and builds no
  distance matrix.

A backbone's parameter names come from its ``_LAYERS`` rows (``param_names``),
so no other module parses a name to tell its trunk from its head; so do its
trunk's shapes (``trunk_shapes``), against which a loaded checkpoint is
checked.

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
from .datagen import CameraRender
from .geometry import VoxelGrid, lexicographic_keys
from .params import add_linear, glorot_uniform
from .pointcloud import PointCloud

TRUNK_CH = 32
TEACHER_CH = 32

# metric inputs (coordinates, depth) are divided by this before the first
# layer so activations start near unit scale; intensity is already in [0, 1]
COORD_SCALE = 30.0
_SCALE_XYZI = np.array([1.0, 1.0, 1.0, COORD_SCALE], np.float32) / COORD_SCALE
_SCALE_RANGE = np.array([1.0, 1.0, 1.0, COORD_SCALE, 1.0], np.float32) / COORD_SCALE


def linear(ctx, x, name):
    return ad.linear(x, ctx.param(f"{name}.w"), ctx.param(f"{name}.b"))


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

# each backbone's linear layers, (name, fan-in), in draw order: every layer
# but the last maps to TRUNK_CH, the last is the head; the point head reads
# each point's own feature beside its nearest centroid's
_LAYERS = {
    "range": (("conv1", 9 * 5), ("conv2", 9 * TRUNK_CH), ("head", TRUNK_CH)),
    "voxel": (("mlp1", 4), ("mlp2", TRUNK_CH), ("head", TRUNK_CH)),
    "point": (("mlp", 4), ("head", 2 * TRUNK_CH)),
}


def init_encoder_params(store, kind, dim, rng):
    """The ``kind`` backbone's parameters, named ``<kind>.*``."""
    *trunk, (head, head_in) = _LAYERS[kind]
    for name, fan_in in trunk:
        add_linear(store, f"{kind}.{name}", fan_in, TRUNK_CH, rng)
    add_linear(store, f"{kind}.{head}", head_in, dim, rng)


def trunk_width(kind: str) -> int:
    return _LAYERS[kind][-1][1]


def trunk_shapes(kind: str) -> dict:
    """``{name: shape}`` of the ``kind`` backbone's trunk parameters in draw
    order: each ``_LAYERS`` row before the head maps its fan-in to
    TRUNK_CH."""
    *trunk, _ = _LAYERS[kind]
    return {f"{kind}.{layer}.{part}": shape for layer, fan_in in trunk
            for part, shape in (("w", (fan_in, TRUNK_CH)), ("b", (TRUNK_CH,)))}


def param_names(kind: str):
    """``(trunk, head)``: the ``kind`` backbone's parameter names in draw
    order, split before its last ``_LAYERS`` row, the head."""
    *trunk, head = ([f"{kind}.{layer}.w", f"{kind}.{layer}.b"] for layer, _ in _LAYERS[kind])
    return sum(trunk, []), head


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

@dataclass(frozen=True)
class PointGrouping:
    """Sampled centroids plus their k-NN membership, ``k`` point rows per
    centroid laid out centroid by centroid, and the per-point nearest
    centroid, all precomputed from geometry."""

    centroid_ids: np.ndarray
    member_rows: np.ndarray
    nearest_centroid: np.ndarray

    @property
    def count(self):
        return self.centroid_ids.shape[0]

    @property
    def k(self):
        return self.member_rows.shape[0] // self.count


def point_grouping(cloud: PointCloud, centroid_count: int, k: int) -> PointGrouping:
    """FPS centroids, each centroid's k nearest points in ascending squared
    distance (ties to the smaller point id), and each point's nearest
    centroid (ties to the earlier centroid), in one pass over the centroids
    that reads each centroid's distance row once and keeps no (count, N)
    matrix."""
    n = cloud.count
    if n < 1 or k < 1:
        raise LidarMoeError("need at least one point and k >= 1")
    count, k_eff = min(centroid_count, n), min(k, n)
    if count < 1:
        raise LidarMoeError("need at least one point and one centroid")
    x, y, z = (cloud.xyz[:, j].astype(np.float64) for j in range(3))
    centroids = np.zeros(count, np.int64)
    members = np.empty((count, k_eff), np.int64)
    nearest = np.zeros(n, np.int64)
    # all infinite, so the first argmax is point 0 and the first row is
    # every point's nearest
    dist, best = np.full(n, np.inf), np.full(n, np.inf)
    for i in range(count):
        c = centroids[i] = np.argmax(dist)
        dx, dy, dz = x - x[c], y - y[c], z - z[c]
        row = dx * dx
        row += dy * dy
        row += dz * dz
        # the running minimum compares Euclidean distances, as sqrt can
        # merge nearly equal squared distances into one tie
        np.minimum(dist, np.sqrt(row), out=dist)
        nearest[row < best] = i  # strict: a tie keeps the earlier centroid
        np.minimum(best, row, out=best)
        kth = np.partition(row, k_eff - 1)[k_eff - 1]
        near = np.flatnonzero(row <= kth)
        members[i] = near[np.lexsort((near, row[near]))[:k_eff]]
    return PointGrouping(centroids, members.ravel(), nearest)


def build_point_embed(ctx, feats, grouping: PointGrouping, prefix, head):
    """Per-point features: pointwise MLP, max-pooled per ``grouping`` group,
    each point's own feature beside its nearest centroid's, then ``head``."""
    x = ad.mul(feats, ad.as_var(_SCALE_XYZI))
    h = ad.relu(linear(ctx, x, f"{prefix}.mlp"))
    members = ad.gather_rows(h, grouping.member_rows)
    pooled = ad.segment_max(members, grouping.k)
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


def teacher_features(render: CameraRender, weights) -> np.ndarray:
    """Per-superpixel embeddings Q, shape (S, D), of the teacher ``weights``.

    Per-pixel feature = one-hot(class) @ class embedding + positional
    code, through the frozen projection; Q is the superpixel mean. Class
    -1 pixels contribute only their positional code.
    """
    emb, proj = (w.astype(np.float64) for w in weights)
    cls = render.class_id.ravel().astype(np.int64)
    h, w = render.class_id.shape
    feat = positional_code(w, h).astype(np.float64)
    labeled = cls >= 0
    feat[labeled] += emb[cls[labeled]]
    pix = feat @ proj

    sp = render.superpixel.ravel().astype(np.int64)
    means, _ = ad.segment_means(sp, pix, int(sp.max(initial=-1)) + 1)
    return means.astype(np.float32)
