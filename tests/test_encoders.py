"""Backbone contracts: shapes, equivariances, pooling oracles, teacher
constancy, and micro-scale gradient checks."""

import tracemalloc

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph
from lidarmoe.datagen import CameraRender
from lidarmoe.encoders import (TRUNK_CH, build_point_embed, build_range_embed,
                               build_voxel_embed, init_encoder_params, param_names,
                               point_grouping, teacher_features, teacher_weights,
                               trunk_width, voxel_neighbor_pairs)
from lidarmoe.geometry import project_to_range, voxelize
from lidarmoe.moe import init_moe_params
from lidarmoe.params import ParameterStore, add_linear, glorot_uniform
from lidarmoe.pointcloud import PointCloud
from lidarmoe.sensors import SensorModel

from graph_eval import evaluate_builder


def small_sensor(w=16):
    return SensorModel(beam_count=8, azimuth_steps=w, fov_total_rad=0.6,
                       fov_down_rad=0.3, max_range_m=60.0, range_h=8, range_w=w)


def range_embed(ri, store):
    """Per-cell range embeddings, shape (H_r * W_r, D)."""
    return evaluate_builder(
        lambda ctx: build_range_embed(ctx, ctx.input("image"), "range", "head"),
        {"image": ri.features}, store)


def voxel_embed(grid, store):
    """Per-voxel embeddings, shape (M, D)."""
    pairs = voxel_neighbor_pairs(grid)
    return evaluate_builder(
        lambda ctx: build_voxel_embed(ctx, ctx.input("feats"), pairs, "voxel", "head"),
        {"feats": grid.features}, store)


def point_embed(cloud, store, centroid_count, k):
    """Per-point embeddings, shape (N, D)."""
    grouping = point_grouping(cloud, centroid_count, k)
    return evaluate_builder(
        lambda ctx: build_point_embed(ctx, ctx.input("feats"), grouping, "point", "head"),
        {"feats": cloud.features()}, store)


def make_cloud(rng, n=30):
    xyz = rng.uniform(-8, 8, (n, 3)).astype(np.float32)
    xyz[:, 2] = rng.uniform(-1.5, 2.0, n)
    keep = np.linalg.norm(xyz, axis=1) > 0.5
    xyz = xyz[keep]
    n = xyz.shape[0]
    return PointCloud(xyz, rng.uniform(0, 1, n), rng.integers(0, 8, n),
                      rng.integers(0, 6, n))


# -- parameter layout --------------------------------------------------------

# each backbone's linear layers as explicit (name, fan-in, fan-out) calls in
# draw order; None stands for the embedding width
EXPLICIT_LAYERS = {
    "range": [("conv1", 9 * 5, TRUNK_CH), ("conv2", 9 * TRUNK_CH, TRUNK_CH),
              ("head", TRUNK_CH, None)],
    "voxel": [("mlp1", 4, TRUNK_CH), ("mlp2", TRUNK_CH, TRUNK_CH), ("head", TRUNK_CH, None)],
    "point": [("mlp", 4, TRUNK_CH), ("head", 2 * TRUNK_CH, None)],
}


def assert_same_store(got, want):
    assert got.names() == want.names()
    for name in want.names():
        assert got.get(name).shape == want.get(name).shape, name
        assert np.array_equal(got.get(name), want.get(name)), name


@pytest.mark.parametrize("kind", sorted(EXPLICIT_LAYERS))
def test_encoder_params_match_explicit_add_linear_calls(kind):
    dim = 7
    got, want = ParameterStore(), ParameterStore()
    init_encoder_params(got, kind, dim, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    for name, n_in, n_out in EXPLICIT_LAYERS[kind]:
        add_linear(want, f"{kind}.{name}", n_in, n_out or dim, rng)
    assert_same_store(got, want)
    assert trunk_width(kind) == EXPLICIT_LAYERS[kind][-1][1]


@pytest.mark.parametrize("kind", sorted(EXPLICIT_LAYERS))
def test_param_names_are_the_drawn_names_split_before_the_head(kind):
    store = ParameterStore()
    init_encoder_params(store, kind, 7, np.random.default_rng(11))
    trunk, head = param_names(kind)
    assert trunk + head == store.names()
    assert head == [f"{kind}.head.w", f"{kind}.head.b"]


def test_moe_params_match_glorot_draw_plus_zeros():
    channels = 5
    got, want = ParameterStore(), ParameterStore()
    init_moe_params(got, channels, np.random.default_rng(12))
    want.add("moe.fusion.w", glorot_uniform((3 * channels, channels),
                                            np.random.default_rng(12)))
    want.add("moe.fusion.b", np.zeros(channels, np.float32))
    want.add("moe.z_gate", np.zeros((channels, 3), np.float32))
    want.add("moe.z_noise", np.zeros((channels, 3), np.float32))
    assert_same_store(got, want)


# -- range -------------------------------------------------------------------

def test_range_zero_image_zero_head_gives_zero(rng):
    store = ParameterStore()
    init_encoder_params(store, "range", 4, rng)
    store.set("range.head.w", np.zeros((32, 4), np.float32))
    from lidarmoe.geometry import RangeImage
    ri = RangeImage(np.zeros((8, 16, 5), np.float32),
                    np.full((8, 16), -1, np.int32), np.zeros(0, np.int32),
                    np.zeros(0, np.int32))
    out = range_embed(ri, store)
    assert out.shape == (8 * 16, 4)
    assert np.all(out == 0)


def test_range_output_shape(rng):
    store = ParameterStore()
    init_encoder_params(store, "range", 6, rng)
    cloud = make_cloud(rng)
    ri = project_to_range(cloud, small_sensor())
    out = range_embed(ri, store)
    assert out.shape == (8 * 16, 6)
    assert np.all(np.isfinite(out))


def test_range_column_shift_equivariance(rng):
    """Shifting the grid one azimuth column shifts outputs one column,
    away from the padding boundary."""
    store = ParameterStore()
    init_encoder_params(store, "range", 4, rng)
    grid = rng.standard_normal((8, 16, 5)).astype(np.float32)
    shifted = np.roll(grid, 1, axis=1)

    def run(image):
        g = Graph(lambda ctx: {"out": build_range_embed(ctx, ctx.input("img"),
                                                        "range", "head")})
        return ad.evaluate(g, store, {"img": image})["out"].reshape(8, 16, 4)

    out_a = run(grid)
    out_b = run(shifted)
    # columns >= 2 of the shifted output equal columns >= 1 of the original,
    # except the two conv layers see padding within distance 2 of the edge
    assert np.allclose(out_b[:, 3:14], out_a[:, 2:13], atol=1e-5)


# -- voxel -------------------------------------------------------------------

def test_voxel_single_voxel_neighborhood_is_self(rng):
    store = ParameterStore()
    init_encoder_params(store, "voxel", 4, rng)
    cloud = PointCloud(np.array([[0.5, 0.5, 0.5]], np.float32), [0.3], [0], [0])
    grid = voxelize(cloud, (1, 1, 1))
    out = voxel_embed(grid, store)
    assert out.shape == (1, 4)
    assert np.all(np.isfinite(out))


def test_voxel_identical_isolated_voxels_identical_embeddings(rng):
    store = ParameterStore()
    init_encoder_params(store, "voxel", 4, rng)
    # two far-apart voxels with identical local content
    xyz = np.array([[0.25, 0.25, 0.25], [10.25, 0.25, 0.25]], np.float32)
    cloud = PointCloud(xyz, [0.5, 0.5], [0, 0], [0, 0])
    grid = voxelize(cloud, (1, 1, 1))
    out = voxel_embed(grid, store)
    # pooled features differ only in x; make them identical by construction:
    feats = grid.features.copy()
    feats[:, 0] = 0.25
    pairs = voxel_neighbor_pairs(grid)
    g = Graph(lambda ctx: {"out": build_voxel_embed(ctx, ctx.input("f"), pairs,
                                                    "voxel", "head")})
    out = ad.evaluate(g, store, {"f": feats})["out"]
    assert np.allclose(out[0], out[1], atol=1e-7)


def test_voxel_neighbor_means_match_bruteforce(rng):
    store = ParameterStore()
    init_encoder_params(store, "voxel", 4, rng)
    xyz = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [2.5, 0.5, 0.5]],
                   np.float32)
    cloud = PointCloud(xyz, [0.2, 0.4, 0.6], [0, 0, 0], [0, 0, 0])
    grid = voxelize(cloud, (1, 1, 1))
    pairs = voxel_neighbor_pairs(grid)

    from lidarmoe.encoders import _SCALE_XYZI
    w1 = store.get("voxel.mlp1.w").astype(np.float64)
    b1 = store.get("voxel.mlp1.b").astype(np.float64)
    h = np.maximum((grid.features * _SCALE_XYZI).astype(np.float64) @ w1 + b1, 0.0)
    # brute force: enumerate the 6-neighborhood per voxel
    coords = {tuple(c): i for i, c in enumerate(grid.coords.tolist())}
    want = np.zeros_like(h)
    for i, c in enumerate(grid.coords.tolist()):
        rows = [h[i]]
        for off in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)]:
            j = coords.get((c[0] + off[0], c[1] + off[1], c[2] + off[2]))
            if j is not None:
                rows.append(h[j])
        want[i] = np.mean(rows, axis=0)

    def build(ctx):
        x = ad.mul(ctx.input("f"), ad.as_var(_SCALE_XYZI))
        from lidarmoe.encoders import linear
        hh = ad.relu(linear(ctx, x, "voxel.mlp1"))
        gathered = ad.gather_rows(hh, pairs[0])
        return {"agg": ad.segment_mean(gathered, pairs[1], grid.count)}

    agg = ad.evaluate(Graph(build), store, {"f": grid.features})["agg"]
    assert np.allclose(agg, want, atol=1e-6)


def test_voxel_permutation_equivariance(rng):
    store = ParameterStore()
    init_encoder_params(store, "voxel", 5, rng)
    cloud = make_cloud(rng, 50)
    grid = voxelize(cloud, (2.0, 2.0, 2.0))
    out = voxel_embed(grid, store)
    aligned = out[grid.point_voxel]
    perm = rng.permutation(cloud.count)
    cloud_p = PointCloud(cloud.xyz[perm], cloud.intensity[perm],
                         cloud.beam[perm], cloud.label[perm])
    grid_p = voxelize(cloud_p, (2.0, 2.0, 2.0))
    aligned_p = voxel_embed(grid_p, store)[grid_p.point_voxel]
    assert np.array_equal(aligned_p, aligned[perm])


# -- point -------------------------------------------------------------------

def fps_ids(xyz, count):
    """Farthest-point centroid ids, as the point encoder samples them."""
    n = len(xyz)
    cloud = PointCloud(xyz, np.zeros(n), np.zeros(n), np.zeros(n))
    return point_grouping(cloud, count, 1).centroid_ids


def test_fps_starts_at_point_zero_and_spreads():
    xyz = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0], [5.0, 0, 0]])
    ids = fps_ids(xyz, 3)
    assert ids[0] == 0
    assert ids[1] == 2  # farthest from 0
    assert ids[2] == 3  # 5.0 maximizes min distance to {0, 10}


def test_fps_clips_to_n():
    xyz = np.zeros((3, 3))
    assert fps_ids(xyz, 10).shape[0] == 3


def test_point_grouping_holds_no_centroid_by_point_matrix():
    # at 48 centroids a (48, N) float64 distance matrix alone is 7.7 MB;
    # a pass that keeps one distance row per centroid peaks near 2 MB
    rng = np.random.default_rng(11)
    n = 20000
    xyz = rng.uniform(-40.0, 40.0, (n, 3)).astype(np.float32)
    cloud = PointCloud(xyz, np.zeros(n), np.zeros(n), np.zeros(n))
    tracemalloc.start()
    try:
        point_grouping(cloud, 48, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_point_single_point(rng):
    store = ParameterStore()
    init_encoder_params(store, "point", 4, rng)
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]], np.float32), [0.5], [0], [0])
    out = point_embed(cloud, store, centroid_count=4, k=3)
    assert out.shape == (1, 4)
    assert np.all(np.isfinite(out))


def test_point_duplicate_points_identical(rng):
    store = ParameterStore()
    init_encoder_params(store, "point", 4, rng)
    xyz = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [4.0, 0.0, 0.0]],
                   np.float32)
    cloud = PointCloud(xyz, [0.5, 0.5, 0.1], [0, 0, 0], [0, 0, 0])
    out = point_embed(cloud, store, centroid_count=2, k=2)
    assert np.allclose(out[0], out[1], atol=1e-7)


def test_point_global_pool_matches_bruteforce_max(rng):
    store = ParameterStore()
    init_encoder_params(store, "point", 4, rng)
    cloud = make_cloud(rng, 20)
    grouping = point_grouping(cloud, 1, cloud.count)
    assert grouping.count == 1
    from lidarmoe.encoders import _SCALE_XYZI
    w = store.get("point.mlp.w").astype(np.float64)
    b = store.get("point.mlp.b").astype(np.float64)
    h = np.maximum((cloud.features() * _SCALE_XYZI).astype(np.float64) @ w + b, 0.0)
    want = h.max(axis=0)

    def build(ctx):
        from lidarmoe.encoders import linear
        x = ad.mul(ctx.input("f"), ad.as_var(_SCALE_XYZI))
        hh = ad.relu(linear(ctx, x, "point.mlp"))
        members = ad.gather_rows(hh, grouping.member_rows)
        return {"pooled": ad.segment_max(members, grouping.member_group, 1)}

    pooled = ad.evaluate(Graph(build), store, {"f": cloud.features()})["pooled"]
    assert np.allclose(pooled[0], want, atol=1e-5)


def test_point_permutation_equivariance_fixing_start(rng):
    store = ParameterStore()
    init_encoder_params(store, "point", 6, rng)
    cloud = make_cloud(rng, 40)
    out = point_embed(cloud, store, centroid_count=8, k=4)
    perm = np.concatenate([[0], 1 + rng.permutation(cloud.count - 1)])
    cloud_p = PointCloud(cloud.xyz[perm], cloud.intensity[perm],
                         cloud.beam[perm], cloud.label[perm])
    out_p = point_embed(cloud_p, store, centroid_count=8, k=4)
    assert np.allclose(out_p, out[perm], atol=1e-6)


# -- teacher -----------------------------------------------------------------

def _render(rng, superpixels, h=16, w=16, classes=3):
    cls = rng.integers(-1, classes, (h, w)).astype(np.int32)
    depth = np.where(cls >= 0, rng.uniform(2, 20, (h, w)), np.inf)
    return CameraRender(cls, depth, superpixels)


def test_teacher_constant_across_calls(rng):
    weights = teacher_weights(6, 8, seed=5)
    render = _render(rng, np.arange(256, dtype=np.int32).reshape(16, 16) // 16)
    a = teacher_features(render, weights)
    b = teacher_features(render, weights)
    assert np.array_equal(a, b)
    assert a.shape == (16, 8)


def test_teacher_same_class_same_position_pattern_equal_rows():
    weights = teacher_weights(6, 8, seed=5)
    # two separate superpixels covering identical (u, v) column patterns:
    # same class, mirrored rows around the image center so the positional
    # sets match exactly is hard; instead use two single-pixel superpixels
    # at the same position in two calls and compare.
    cls = np.full((4, 4), 2, np.int32)
    sp_a = np.zeros((4, 4), np.int32)
    sp_a[0, 0] = 1
    a = teacher_features(CameraRender(cls, np.full((4, 4), 5.0), sp_a), weights)
    sp_b = np.zeros((4, 4), np.int32)
    sp_b[0, 0] = 1
    b = teacher_features(CameraRender(cls, np.full((4, 4), 5.0), sp_b), weights)
    assert np.allclose(a[1], b[1])


def test_teacher_single_pixel_superpixel_row():
    weights = teacher_weights(6, 8, seed=9)
    cls = np.full((2, 2), 1, np.int32)
    superpixels = np.array([[0, 1], [2, 3]], np.int32)
    q = teacher_features(CameraRender(cls, np.full((2, 2), 5.0), superpixels), weights)
    # mean over a single pixel equals the pixel feature: recompute directly
    from lidarmoe.encoders import positional_code
    pix = positional_code(2, 2).astype(np.float64)
    emb, proj = weights
    pix += emb.astype(np.float64)[1]
    want = pix @ proj.astype(np.float64)
    assert np.allclose(q, want.astype(np.float32), atol=1e-6)


def test_positional_code_is_made_once_per_size_and_read_only():
    """Every caller shares one array per image size, so no caller may write
    to it; the teacher reads it without writing."""
    from lidarmoe.encoders import positional_code
    code = positional_code(96, 64)
    assert positional_code(96, 64) is code and positional_code(64, 96) is not code
    assert code.shape == (96 * 64, 32) and code.dtype == np.float32
    with pytest.raises(ValueError, match="read-only"):
        code[0, 0] = 1.0
    assert code.tobytes() == positional_code.__wrapped__(96, 64).tobytes()
    weights = teacher_weights(6, 8, seed=9)
    cls = np.random.default_rng(2).integers(-1, 6, (64, 96)).astype(np.int32)
    superpixels = np.arange(64 * 96, dtype=np.int32).reshape(64, 96) // 97
    render = CameraRender(cls, np.full((64, 96), 5.0), superpixels)
    assert teacher_features(render, weights).shape == (64, 8)
    assert positional_code(96, 64) is code


def test_teacher_empty_superpixels():
    weights = teacher_weights(6, 8, seed=9)
    render = CameraRender(np.full((0, 4), -1, np.int32), np.full((0, 4), np.inf),
                          np.zeros((0, 4), np.int32))
    q = teacher_features(render, weights)
    assert q.shape == (0, 8)


# -- gradient checks ---------------------------------------------------------

@pytest.mark.parametrize("kind", ["range", "voxel", "point"])
def test_encoder_grad_check(kind, rng):
    store = ParameterStore()
    cloud = make_cloud(rng, 25)
    if kind == "range":
        init_encoder_params(store, "range", 4, rng)
        # dense grid at realistic magnitudes: empty cells would put conv
        # pre-activations exactly on the relu kink, where central
        # differences are undefined
        grid = np.concatenate([rng.standard_normal((8, 8, 3)) * 15,
                               rng.uniform(0, 1, (8, 8, 1)),
                               rng.uniform(5, 40, (8, 8, 1))],
                              axis=2).astype(np.float32)
        inputs = {"x": grid}
        build_out = lambda ctx: build_range_embed(ctx, ctx.input("x"), "range", "head")
    elif kind == "voxel":
        init_encoder_params(store, "voxel", 4, rng)
        grid = voxelize(cloud, (4.0, 4.0, 4.0))
        inputs, pairs = {"x": grid.features}, voxel_neighbor_pairs(grid)
        build_out = lambda ctx: build_voxel_embed(ctx, ctx.input("x"), pairs, "voxel",
                                                  "head")
    else:
        init_encoder_params(store, "point", 4, rng)
        grouping = point_grouping(cloud, 4, 3)
        inputs = {"x": cloud.features()}
        build_out = lambda ctx: build_point_embed(ctx, ctx.input("x"), grouping, "point",
                                                  "head")

    def build(ctx):
        out = build_out(ctx)
        return {"loss": ad.mean_all(ad.mul(out, out))}

    # eps small relative to the input scaling so steps stay on one side
    # of the relu/max kinks; differences run in float64
    assert ad.grad_check(Graph(build), store, inputs, eps=1e-5) < 1e-4
