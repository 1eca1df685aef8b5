"""The whole-array view geometry and scatter-adds against the reference
loop/dict/``np.add.at`` implementations in ``oracles``: equal dtype, shape
and values on reference scans, augmented copies, an augmented 64 x 512
scan, tie-heavy and tiny clouds, negative coordinates and zero-row
inputs."""

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.datagen import augment
from lidarmoe.encoders import point_grouping, voxel_neighbor_pairs
from lidarmoe.errors import LidarMoeError
from lidarmoe.geometry import project_labels, voxelize
from lidarmoe.params import ParameterStore
from lidarmoe.pipeline import RunConfig, generate_dataset, load_dataset
from lidarmoe.pointcloud import PointCloud

from oracles import (farthest_point_sample_loop, point_grouping_loop,
                     scatter_add_rows_at, voxel_neighbor_pairs_dict,
                     voxelize_unique_rows)

REF = RunConfig()


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def make_cloud(xyz, seed=0):
    xyz = np.asarray(xyz, np.float32).reshape(-1, 3)
    n = xyz.shape[0]
    rng = np.random.default_rng(seed)
    return PointCloud(xyz, rng.random(n), np.zeros(n, np.int32),
                      rng.integers(-1, 4, n))


@pytest.fixture(scope="module")
def reference_clouds(tmp_path_factory):
    """Every scan of the reference dataset plus 3 augmented copies each."""
    out = tmp_path_factory.mktemp("oracle_ds")
    generate_dataset({}, out, seed=0)
    data = load_dataset(out)
    clouds = []
    for i, scan in enumerate(data.train + data.val):
        clouds.append(scan.cloud)
        clouds.extend(augment(scan.cloud, 1000 * i + j) for j in range(3))
    return clouds


@pytest.fixture(scope="module")
def dense_cloud(tmp_path_factory):
    """One augmented scan of a 64 x 512 sensor, about 21k points."""
    out = tmp_path_factory.mktemp("oracle_dense")
    generate_dataset({"n_train": 1, "n_val": 0, "beam_count": 64, "azimuth_steps": 512,
                      "range_h": 64, "range_w": 512}, out, seed=0)
    return augment(load_dataset(out).train[0].cloud, 5)


def tie_heavy_clouds():
    rng = np.random.default_rng(7)
    base = rng.uniform(-20.0, 20.0, (300, 3))
    lattice = np.stack(np.meshgrid(*[np.arange(-3.0, 4.0)] * 3), -1).reshape(-1, 3)
    return [
        make_cloud(np.concatenate([base, base, base[::-1]])),   # duplicated points
        make_cloud(np.round(base * 10.0) / 10.0),                # 0.1 m grid
        make_cloud(np.round(rng.uniform(-2.0, 2.0, (500, 3)) * 10.0) / 10.0),
        make_cloud(lattice),                                     # equal distances
        make_cloud(np.zeros((20, 3))),                           # one location
    ]


def small_and_negative_clouds():
    rng = np.random.default_rng(8)
    return [
        make_cloud([[0.3, -0.7, 1.1]]),                          # n = 1
        make_cloud(rng.uniform(-5.0, 5.0, (5, 3))),              # n < k
        make_cloud(rng.uniform(-5.0, 5.0, (30, 3))),             # n < centroids
        make_cloud(rng.uniform(-40.0, -0.5, (800, 3))),          # all negative
        make_cloud(rng.uniform(-3.0, 3.0, (400, 3)) - 0.75),     # straddles 0
    ]


def check_view_geometry(cloud, centroid_count, k, sizes):
    # the first oracle output is farthest_point_sample_loop's centroids
    g = point_grouping(cloud, centroid_count, k)
    want = point_grouping_loop(cloud.xyz, centroid_count, k)
    for got, ref in zip((g.centroid_ids, g.member_rows, g.member_group,
                         g.nearest_centroid), want):
        assert_same(got, ref)

    grid = voxelize(cloud, sizes)
    coords, inverse, feats = voxelize_unique_rows(cloud.xyz, cloud.intensity, sizes)
    assert_same(grid.coords, coords)
    assert_same(grid.point_voxel, inverse)
    assert_same(grid.features, feats)
    for got, ref in zip(voxel_neighbor_pairs(grid), voxel_neighbor_pairs_dict(coords)):
        assert_same(got, ref)


def test_view_geometry_matches_oracles_on_reference_scans(reference_clouds, dense_cloud):
    assert len(reference_clouds) == 28
    for cloud in [*reference_clouds, dense_cloud]:
        check_view_geometry(cloud, REF.centroid_count, REF.knn_k, REF.voxel_size)


@pytest.mark.parametrize("centroid_count,k,sizes", [
    (48, 12, (1.5, 1.5, 1.5)), (16, 8, (0.1, 0.1, 0.1)), (5, 40, (1.0, 2.0, 0.5))])
def test_view_geometry_matches_oracles_on_tie_heavy_clouds(centroid_count, k, sizes):
    for cloud in tie_heavy_clouds():
        check_view_geometry(cloud, centroid_count, k, sizes)


@pytest.mark.parametrize("centroid_count,k,sizes", [
    (48, 12, (1.5, 1.5, 1.5)), (3, 1, (0.5, 0.5, 0.5)), (1, 6, (4.0, 4.0, 4.0))])
def test_view_geometry_matches_oracles_on_small_and_negative_clouds(
        centroid_count, k, sizes):
    for cloud in small_and_negative_clouds():
        check_view_geometry(cloud, centroid_count, k, sizes)


def test_fps_ties_on_euclidean_not_squared_distance():
    # squared distances 1 and 1 + 2**-52 share the Euclidean distance 1.0,
    # so the farther point is the tie's smaller id
    cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0 ** -26, 0.0]])
    centroids = point_grouping(cloud, 2, 1).centroid_ids
    assert_same(centroids, farthest_point_sample_loop(cloud.xyz, 2))
    assert centroids.tolist() == [0, 1]


def test_voxel_order_is_lexicographic_with_negative_coordinates():
    xyz = [[-0.5, 2.0, 0.0], [-1.5, 0.0, 3.0], [-1.5, -1.0, 9.0], [0.5, -3.0, -2.0]]
    grid = voxelize(make_cloud(xyz), (1.0, 1.0, 1.0))
    assert grid.coords.tolist() == [[-2, -1, 9], [-2, 0, 3], [-1, 2, 0], [0, -3, -2]]
    assert grid.point_voxel.tolist() == [2, 1, 0, 3]


def test_voxelize_empty_cloud_matches_oracle():
    cloud = make_cloud(np.zeros((0, 3)))
    grid = voxelize(cloud, (1.0, 1.0, 1.0))
    coords, inverse, feats = voxelize_unique_rows(cloud.xyz, cloud.intensity,
                                                  (1.0, 1.0, 1.0))
    assert_same(grid.coords, coords)
    assert_same(grid.point_voxel, inverse)
    assert_same(grid.features, feats)
    assert_same(voxel_neighbor_pairs(grid)[0], np.zeros(0, np.int64))
    assert_same(project_labels(cloud, grid), np.zeros(0, np.int32))


def test_voxel_key_range_overflow_is_a_contract_error():
    cloud = make_cloud([[0.0, 0.0, 0.0], [3e9, 3e9, 3e9]])
    with pytest.raises(LidarMoeError, match="^voxel coordinate range too large for int64 keys$"):
        voxelize(cloud, (1.0, 1.0, 1.0))


def test_voxel_label_votes_match_add_at(reference_clouds):
    cloud = reference_clouds[1]
    grid = voxelize(cloud, REF.voxel_size)
    valid = cloud.label >= 0
    num_classes = int(cloud.label[valid].max()) + 1
    votes = np.zeros((grid.count, num_classes), np.int64)
    np.add.at(votes, (grid.point_voxel[valid], cloud.label[valid].astype(np.int64)), 1)
    want = np.full(grid.count, -1, np.int64)
    has = votes.sum(axis=1) > 0
    want[has] = votes[has].argmax(axis=1)
    assert_same(project_labels(cloud, grid), want.astype(np.int32))


# -- scatter-adds --------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_rows_backward_matches_add_at(dtype):
    rng = np.random.default_rng(3)
    n, c = 4236, 64
    leaf = ad.Var(rng.standard_normal((n, c)).astype(dtype), requires_grad=True)
    idx = rng.integers(0, n, 2 * n)
    out = ad.gather_rows(leaf, idx)
    for g in (rng.standard_normal(out.shape),
              rng.standard_normal(out.shape).astype(np.float32)):
        got = out.bwd(g)[0]
        assert_same(got, scatter_add_rows_at(idx, g, n))


def test_gather_rows_backward_through_graph_matches_add_at():
    """float32 training grads and exact-mode float64 grads of a gather."""
    rng = np.random.default_rng(4)
    p = rng.standard_normal((50, 6)).astype(np.float32)
    w = rng.standard_normal((120, 6)).astype(np.float32)
    idx = rng.integers(0, 50, 120)
    for dtype in (np.float32, np.float64):
        graph = ad.Graph(lambda ctx: {"loss": ad.sum_all(ad.mul(
            ad.gather_rows(ctx.param("p"), idx), ctx.input("w")))})
        store = ParameterStore()
        store.add("p", p)
        ctx, outputs = graph.run(store, {"w": w}, train_mode=True, dtype=dtype)
        ad._backprop(outputs["loss"])
        got = ctx.param_vars()["p"].grad
        want = scatter_add_rows_at(idx, w.astype(dtype).astype(np.float64), 50)
        # the grad buffer holds the float64 sum rounded once to the graph dtype
        assert_same(got, want.astype(dtype))


def test_gather_rows_zero_rows():
    leaf = ad.Var(np.ones((4, 3), np.float32), requires_grad=True)
    out = ad.gather_rows(leaf, np.zeros(0, np.int64))
    assert out.shape == (0, 3)
    g = np.zeros((0, 3))
    assert_same(out.bwd(g)[0], scatter_add_rows_at(np.zeros(0, np.int64), g, 4))
    assert_same(ad.scatter_add_rows(np.zeros(0, np.int64), g, 0), np.zeros((0, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_mean_forward_matches_add_at(dtype):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3000, 32)).astype(dtype)
    seg = rng.integers(0, 700, 3000)
    out = ad.segment_mean(ad.Var(a), seg, 710)
    counts = np.bincount(seg, minlength=710).astype(np.float64)
    want = scatter_add_rows_at(seg, a.astype(np.float64), 710)
    assert_same(out.data, (want / np.maximum(counts, 1.0)[:, None]).astype(dtype))


@pytest.mark.parametrize("num_segments", [0, 3])
def test_segment_mean_zero_rows(num_segments):
    out = ad.segment_mean(ad.Var(np.zeros((0, 5), np.float32)),
                          np.zeros(0, np.int64), num_segments)
    assert_same(out.data, np.zeros((num_segments, 5), np.float32))


def test_segment_max_backward_routes_to_first_winner():
    rng = np.random.default_rng(6)
    a = np.round(rng.standard_normal((200, 8)), 1).astype(np.float32)  # ties
    seg = np.sort(rng.integers(0, 20, 200))
    seg[:20] = np.arange(20)
    leaf = ad.Var(a, requires_grad=True)
    out = ad.segment_max(leaf, seg, 20)
    g = rng.standard_normal(out.shape)
    want = np.zeros(a.shape)
    for s in range(20):
        rows = np.flatnonzero(seg == s)
        for c in range(a.shape[1]):
            want[rows[np.argmax(a[rows, c])], c] += g[s, c]
    assert_same(out.bwd(g)[0], want)
