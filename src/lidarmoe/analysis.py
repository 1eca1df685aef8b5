"""Gate-routing statistics, cosine-similarity maps, and dependency-free
SVG plotting for the analysis CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import segment_means
from .dataio import write_text
from .errors import LidarMoeError
from .moe import REPRESENTATIONS
from .pointcloud import PointCloud

ROUTE_AXES = ("beam", "distance-bin", "class")
DEFAULT_DISTANCE_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0)


@dataclass(frozen=True)
class RouteTable:
    """Mean gate load per expert within buckets along one axis."""

    axis: str
    buckets: list
    counts: np.ndarray
    loads: np.ndarray  # (n_buckets, 3) mean (alpha, beta, gamma)

    def global_load(self) -> np.ndarray:
        """Count-weighted mean load over all buckets."""
        return (self.loads * self.counts[:, None]).sum(axis=0) / self.counts.sum()


def route_stats(gates: np.ndarray, cloud: PointCloud, axis: str,
                distance_edges=DEFAULT_DISTANCE_EDGES) -> RouteTable:
    """Bucket the per-point (N, 3) gate weights by beam, distance bin, or
    class.

    Buckets are named ``beam<id>``, ``class<id>`` and, for distance bins
    [e0,e1), ..., [e_last, max), ``<e0>-<e1>m`` ... ``<e_last>m+``. Points
    below the first edge and ignore-labeled points (label -1) fall in no
    bucket; raises LidarMoeError when no point falls in one.
    """
    if axis not in ROUTE_AXES:
        raise LidarMoeError(f"unknown axis: {axis}")
    if gates.shape[0] != cloud.count:
        raise LidarMoeError("gate rows and point count disagree")
    if axis == "distance-bin":
        edges = np.asarray(distance_edges, np.float64)
        if edges.size < 1 or np.any(np.diff(edges) <= 0):
            raise LidarMoeError("distance_edges must be increasing")
        key = np.searchsorted(edges, cloud.depth(), side="right") - 1
    else:
        key = (cloud.beam if axis == "beam" else cloud.label).astype(np.int64)
    mask = key >= 0
    key, gates = key[mask], gates[mask]
    if key.size == 0:
        raise LidarMoeError(f"no point falls in any {axis} bucket")
    ids = np.unique(key)
    if axis == "distance-bin":
        bounds = [f"-{hi:g}m" for hi in edges[1:]] + ["m+"]
        names = [f"{edges[b]:g}{bounds[b]}" for b in ids]
    else:
        names = [f"{axis}{b}" for b in ids.tolist()]
    bucket = np.searchsorted(ids, key)
    loads, _ = segment_means(bucket, gates, ids.size)
    return RouteTable(axis, names, np.bincount(bucket, minlength=ids.size), loads)


def write_route_csv(path, table: RouteTable) -> None:
    write_text(path, "axis,bucket,count,load_range,load_voxel,load_point\n" + "".join(
        f"{table.axis},{name},{cnt},{a!r},{b!r},{g!r}\n"
        for name, cnt, (a, b, g) in zip(table.buckets, table.counts.tolist(),
                                        table.loads.tolist())))


def cosine_map(features: np.ndarray, query: int):
    """Cosine similarity of every row against the query row.

    Zero-norm rows get similarity 0 and are reported in the returned
    flag vector.
    """
    feats = np.asarray(features, np.float64)
    n = feats.shape[0]
    if not (0 <= query < n):
        raise LidarMoeError("query id out of range")
    norms = np.linalg.norm(feats, axis=1)
    degenerate = norms == 0
    qn = norms[query]
    sims = np.zeros(n)
    if qn > 0:
        ok = ~degenerate
        sims[ok] = feats[ok] @ feats[query] / (norms[ok] * qn)
        sims = np.clip(sims, -1.0, 1.0)
    else:
        degenerate = np.ones(n, dtype=bool)
    return sims, degenerate


def write_cosine_csv(path, sims: np.ndarray, degenerate: np.ndarray) -> None:
    write_text(path, "point_id,similarity,zero_norm\n" + "".join(
        f"{i},{s!r},{int(z)}\n"
        for i, (s, z) in enumerate(zip(sims.tolist(), degenerate.tolist()))))


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

def _color(value: float) -> str:
    """Blue (-1) to white (0) to red (+1)."""
    v = float(np.clip(value, -1.0, 1.0))
    if v >= 0:
        r, g, b = 255, int(round(255 * (1 - v))), int(round(255 * (1 - v)))
    else:
        r, g, b = int(round(255 * (1 + v))), int(round(255 * (1 + v))), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def scatter_svg(path, xy: np.ndarray, values: np.ndarray, title="") -> None:
    """Top-down square scatter of points colored by a value in [-1, 1]."""
    xy = np.asarray(xy, np.float64)
    size, pad = 640, 24
    lo = xy.min(axis=0) if xy.size else np.zeros(2)
    hi = xy.max(axis=0) if xy.size else np.ones(2)
    span = np.maximum(hi - lo, 1e-9)
    scale = (size - 2 * pad) / span.max()
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
             f'<rect width="{size}" height="{size}" fill="#202020"/>']
    if title:
        parts.append(f'<text x="{pad}" y="16" fill="#eeeeee" font-size="12">{title}</text>')
    for (x, y), v in zip(xy.tolist(), values.tolist()):
        px = pad + (x - lo[0]) * scale
        py = size - pad - (y - lo[1]) * scale
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2" fill="{_color(v)}"/>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts))


_EXPERT_COLORS = ("#2ca02c", "#d62728", "#1f77b4")


def route_bars_svg(path, table: RouteTable, title="") -> None:
    """Stacked per-bucket expert-load bars."""
    n = max(len(table.buckets), 1)
    width, height, pad = 720, 360, 40
    bar_w = (width - 2 * pad) / n
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    if title:
        parts.append(f'<text x="{pad}" y="18" fill="#111111" font-size="13">{title}</text>')
    usable = height - 2 * pad
    for i, (name, loads) in enumerate(zip(table.buckets, table.loads.tolist())):
        x = pad + i * bar_w
        y = height - pad
        for load, color in zip(loads, _EXPERT_COLORS):
            h = usable * load
            y -= h
            parts.append(f'<rect x="{x + 1:.2f}" y="{y:.2f}" width="{bar_w - 2:.2f}" '
                         f'height="{h:.2f}" fill="{color}"/>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{height - pad + 14}" '
                     f'fill="#111111" font-size="9" text-anchor="middle">{name}</text>')
    for j, (nm, color) in enumerate(zip(REPRESENTATIONS, _EXPERT_COLORS)):
        parts.append(f'<rect x="{pad + j * 90}" y="{height - 14}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{pad + j * 90 + 14}" y="{height - 5}" fill="#111111" font-size="10">{nm}</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts))
