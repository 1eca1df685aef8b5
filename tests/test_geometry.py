"""Projection, voxelization, superpoint, alignment, and label-space tests.

The spherical-projection oracle recomputes (u, v) per point with scalar
math; the voxel-mean oracle averages member rows directly.
"""

import math

import numpy as np
import pytest

from lidarmoe.datagen import SceneConfig, build_scene, simulate_lidar
from lidarmoe.encoders import voxel_neighbor_pairs
from lidarmoe.geometry import (build_superpoints, project_labels, project_to_image,
                               project_to_range, range_uv_exact, voxelize)
from lidarmoe.pipeline import RunConfig, build_group_mean, make_view
from lidarmoe.pointcloud import PointCloud
from lidarmoe.sensors import CameraModel, SensorModel

from cameras import forward_camera
from graph_eval import evaluate_builder
from oracles import align_to_points, group_mean


def sensor_1024():
    return SensorModel(beam_count=32, azimuth_steps=1024, fov_total_rad=0.5236,
                       fov_down_rad=0.2618, max_range_m=100.0, range_h=32,
                       range_w=1024)


def cloud_from_xyz(xyz, **kw):
    xyz = np.asarray(xyz, np.float32).reshape(-1, 3)
    n = xyz.shape[0]
    return PointCloud(xyz, kw.get("intensity", np.zeros(n)),
                      kw.get("beam", np.zeros(n, np.int32)),
                      kw.get("label", np.zeros(n, np.int32)))


# -- range projection --------------------------------------------------------

def test_forward_axis_point_uv():
    u, v, _ = range_uv_exact([[1.0, 0.0, 0.0]], sensor_1024())
    assert math.floor(u[0]) == 512
    assert math.floor(v[0]) == 16


def test_fov_top_edge_row_zero():
    s = sensor_1024()
    elev = s.fov_total_rad - s.fov_down_rad
    xyz = [[np.cos(elev), 0.0, np.sin(elev)]]
    _, v, _ = range_uv_exact(xyz, s)
    assert v[0] == pytest.approx(0.0, abs=1e-9)
    ri = project_to_range(cloud_from_xyz(xyz), s)
    assert ri.pixel_v[0] == 0


def test_uv_recomputation_oracle():
    s = SensorModel(beam_count=16, azimuth_steps=128, fov_total_rad=0.7,
                    fov_down_rad=0.4, max_range_m=80.0, range_h=16, range_w=128)
    rng = np.random.default_rng(0)
    n = 2000
    azim = rng.uniform(-np.pi, np.pi, n)
    elev = rng.uniform(-s.fov_down_rad + 1e-3, s.fov_total_rad - s.fov_down_rad - 1e-3, n)
    r = rng.uniform(1.0, 50.0, n)
    xyz = np.stack([r * np.cos(elev) * np.cos(azim),
                    r * np.cos(elev) * np.sin(azim),
                    r * np.sin(elev)], axis=1).astype(np.float32)
    u, v, _ = range_uv_exact(xyz, s)
    for i in range(n):
        x, y, z = (float(xyz[i, 0]), float(xyz[i, 1]), float(xyz[i, 2]))
        d = math.sqrt(x * x + y * y + z * z)
        ue = 0.5 * (1.0 - math.atan2(y, x) / math.pi) * s.range_w
        ve = (1.0 - (math.asin(z / d) + s.fov_down_rad) / s.fov_total_rad) * s.range_h
        assert abs(u[i] - ue) <= 1e-9 * max(1.0, abs(ue))
        assert abs(v[i] - ve) <= 1e-9 * max(1.0, abs(ve))


def test_min_depth_collision_rule():
    s = sensor_1024()
    near = [3.0, 0.0, 0.0]
    far = [5.0, 0.0, 0.0]
    cloud = cloud_from_xyz([far, near], intensity=[0.2, 0.9])
    ri = project_to_range(cloud, s)
    assert ri.pixel_u[0] == ri.pixel_u[1] and ri.pixel_v[0] == ri.pixel_v[1]
    cell = ri.kept_index[ri.pixel_v[0], ri.pixel_u[0]]
    assert cell == 1  # the 3 m point wins
    feats = ri.features[ri.pixel_v[0], ri.pixel_u[0]]
    assert feats[0] == pytest.approx(3.0)
    assert feats[4] == pytest.approx(3.0)


def test_out_of_fov_row_clamped():
    s = sensor_1024()
    below = [[1.0, 0.0, -1.0]]  # far below the FoV
    ri = project_to_range(cloud_from_xyz(below), s)
    assert ri.pixel_v[0] == s.range_h - 1
    inside = [[1.0, 0.0, 0.0]]
    ri2 = project_to_range(cloud_from_xyz(inside), s)
    assert ri2.pixel_v[0] == 16  # the unclamped row of test_forward_axis_point_uv


def test_pixel_map_total_and_in_bounds(rng):
    s = SensorModel(beam_count=8, azimuth_steps=32, fov_total_rad=0.6,
                    fov_down_rad=0.3, max_range_m=100.0, range_h=8, range_w=32)
    xyz = rng.standard_normal((500, 3)) * 10 + [0, 0, -1]
    xyz = xyz[np.linalg.norm(xyz, axis=1) > 0.1]
    ri = project_to_range(cloud_from_xyz(xyz), s)
    assert ri.pixel_u.shape[0] == xyz.shape[0]
    assert np.all((ri.pixel_u >= 0) & (ri.pixel_u < s.range_w))
    assert np.all((ri.pixel_v >= 0) & (ri.pixel_v < s.range_h))


# -- voxelize ----------------------------------------------------------------

def test_voxel_floor_with_negative_coordinate():
    grid = voxelize(cloud_from_xyz([[0.5, -0.2, 1.7]]), (0.5, 0.5, 0.5))
    assert grid.count == 1
    assert tuple(grid.coords[0]) == (1, -1, 3)


def test_single_voxel_mean():
    xyz = [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3]]
    cloud = cloud_from_xyz(xyz, intensity=[0.3, 0.6, 0.9])
    grid = voxelize(cloud, (1.0, 1.0, 1.0))
    assert grid.count == 1
    assert np.allclose(grid.features[0], [0.2, 0.2, 0.2, 0.6], atol=1e-6)


def test_distinct_voxels_m_equals_n():
    xyz = [[0.5, 0, 0], [1.5, 0, 0], [2.5, 0, 0]]
    grid = voxelize(cloud_from_xyz(xyz), (1.0, 1.0, 1.0))
    assert grid.count == 3


def test_voxel_mean_matches_bruteforce(rng):
    xyz = rng.uniform(-5, 5, (300, 3)).astype(np.float32)
    intensity = rng.uniform(0, 1, 300).astype(np.float32)
    cloud = cloud_from_xyz(xyz, intensity=intensity)
    grid = voxelize(cloud, (1.0, 2.0, 0.5))
    feats = np.concatenate([cloud.xyz, cloud.intensity[:, None]], axis=1).astype(np.float64)
    for m in range(grid.count):
        members = feats[grid.point_voxel == m]
        assert np.allclose(grid.features[m], members.mean(axis=0), atol=1e-9)
    assert grid.count <= cloud.count
    # every point maps to the voxel containing it
    for i in range(cloud.count):
        expected = np.floor(cloud.xyz[i].astype(np.float64) / [1.0, 2.0, 0.5])
        assert np.array_equal(grid.coords[grid.point_voxel[i]], expected)


# -- camera projection -------------------------------------------------------

def test_optical_axis_projection():
    cam = CameraModel(cam_intrinsics=[[50.0, 0, 32.0], [0, 50.0, 24.0], [0, 0, 1]],
                      cam_extrinsics=np.eye(4).tolist(), cam_w=64, cam_h=48)
    u, v, ok = project_to_image(cloud_from_xyz([[0.0, 0.0, 4.0]]), cam)
    assert u[0] == pytest.approx(32.0)
    assert v[0] == pytest.approx(24.0)
    assert ok[0]


def test_behind_camera_not_in_frustum():
    cam = CameraModel(cam_intrinsics=[[50.0, 0, 32.0], [0, 50.0, 24.0], [0, 0, 1]],
                      cam_extrinsics=np.eye(4).tolist(), cam_w=64, cam_h=48)
    _, _, ok = project_to_image(cloud_from_xyz([[0.0, 0.0, -4.0]]), cam)
    assert not ok[0]


def test_projective_ray_invariance():
    cam = forward_camera()
    p = np.array([[6.0, 1.0, 0.5]])
    u1, v1, _ = project_to_image(cloud_from_xyz(p), cam)
    # scale along the camera ray: keep direction from the camera center
    center = cam.center_in_lidar()
    p2 = center + 2.0 * (p - center)
    u2, v2, _ = project_to_image(cloud_from_xyz(p2), cam)
    assert u1[0] == pytest.approx(u2[0], abs=1e-6)
    assert v1[0] == pytest.approx(v2[0], abs=1e-6)


# -- superpoints -------------------------------------------------------------

def test_no_in_frustum_points_gives_empty_partition():
    cam = forward_camera()
    cloud = cloud_from_xyz([[-5.0, 0.0, 0.0]])  # behind the camera
    depth = np.full((cam.cam_h, cam.cam_w), np.inf)
    superpixels = np.zeros((cam.cam_h, cam.cam_w), np.int32)
    part = build_superpoints(cloud, cam, superpixels, depth)
    assert part.count == 0
    assert part.point_group[0] == -1


def test_occluded_point_excluded():
    cam = forward_camera()
    cloud = cloud_from_xyz([[10.0, 0.0, 0.2]])
    superpixels = np.zeros((cam.cam_h, cam.cam_w), np.int32)
    depth = np.full((cam.cam_h, cam.cam_w), 2.0)  # wall at 2 m
    part = build_superpoints(cloud, cam, superpixels, depth, tolerance=0.1)
    assert part.point_group[0] == -1


def test_wall_scene_assigns_points_bruteforce():
    from lidarmoe.datagen import (Primitive, Scene, render_camera,
                                  simulate_lidar)
    from lidarmoe.sensors import SensorModel
    scene = Scene(primitives=(
        Primitive("ground-plane", (0, 0, -500.0), (0.1, 0.1, 1.0), 0),
        Primitive("box", (8.0, 0.0, 0.0, 0.0), (0.5, 60.0, 60.0), 4),
    ))
    cam = forward_camera()
    sensor = SensorModel(beam_count=8, azimuth_steps=64, fov_total_rad=0.4,
                         fov_down_rad=0.2, max_range_m=60.0, range_h=8, range_w=64)
    cloud = simulate_lidar(scene, sensor)
    image = render_camera(scene, cam, tile=16)
    superpixels = image.superpixel
    part = build_superpoints(cloud, cam, superpixels, image.depth)
    u, v, ok = project_to_image(cloud, cam)
    center = cam.center_in_lidar()
    dist = np.linalg.norm(cloud.xyz.astype(np.float64) - center, axis=1)
    for i in range(cloud.count):
        if not ok[i]:
            assert part.point_group[i] == -1
            continue
        ui, vi = int(np.floor(u[i])), int(np.floor(v[i]))
        expected = (np.isfinite(image.depth[vi, ui])
                    and abs(dist[i] - image.depth[vi, ui]) <= 0.1)
        assert (part.point_group[i] >= 0) == expected
        if expected:
            sp = part.superpixel_of[part.point_group[i]]
            assert sp == superpixels[vi, ui]
    # partition laws
    assigned = part.point_group[part.point_group >= 0]
    sizes = np.bincount(assigned, minlength=part.count)
    assert sizes.size == part.count
    assert sizes.sum() == assigned.size
    assert np.all(sizes >= 1)


# -- alignment and pooling ---------------------------------------------------
# The graph path (gather over a view's row map, segment mean over a
# partition) is checked against the point-by-point oracles.

def aligned(feats, kind, cloud, sensor=None):
    view = make_view(kind, cloud, sensor, RunConfig(voxel_size=(1.0, 1.0, 1.0)))
    out = evaluate_builder(lambda ctx: view.align(ctx.input("f")), {"f": feats})
    assert np.array_equal(out, align_to_points(feats, view.mapping))
    return out


def pooled(feats, partition):
    out = evaluate_builder(lambda ctx: build_group_mean(ctx.input("f"), partition),
                           {"f": feats})
    assert np.allclose(out, group_mean(feats, partition), atol=1e-6)
    return out


def test_align_range_single_point(rng):
    s = SensorModel(beam_count=4, azimuth_steps=8, fov_total_rad=0.6, fov_down_rad=0.3,
                    max_range_m=50.0, range_h=4, range_w=8)
    cloud = cloud_from_xyz([[5.0, 0.0, 0.0]])
    ri = project_to_range(cloud, s)
    feats = rng.standard_normal((4 * 8, 3)).astype(np.float32)
    out = aligned(feats, "range", cloud, s)
    assert out.shape == (1, 3)
    cell = ri.point_cell_ids()[0]
    assert np.array_equal(out[0], feats[cell])


def test_align_voxel_shared_rows():
    cloud = cloud_from_xyz([[0.1, 0, 0], [0.2, 0, 0], [1.5, 0, 0]])
    grid = voxelize(cloud, (1.0, 1.0, 1.0))
    feats = np.arange(grid.count * 2, dtype=np.float32).reshape(grid.count, 2)
    out = aligned(feats, "voxel", cloud)
    assert out.shape == (3, 2)
    assert np.array_equal(out[0], out[1])


def test_align_range_collision_shares_kept_feature(rng):
    s = sensor_1024()
    cloud = cloud_from_xyz([[5.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    ri = project_to_range(cloud, s)
    feats = rng.standard_normal((s.range_h * s.range_w, 4)).astype(np.float32)
    out = aligned(feats, "range", cloud, s)
    assert np.array_equal(out[0], out[1])


def test_range_roundtrip_kept_points_get_own_feature(rng):
    """Unprojecting the range grid returns each point its cell's feature;
    for a cell's kept point that is its own (x, y, z, i, d) vector."""
    s = SensorModel(beam_count=8, azimuth_steps=32, fov_total_rad=0.6,
                    fov_down_rad=0.3, max_range_m=100.0, range_h=8, range_w=32)
    xyz = rng.standard_normal((200, 3)) * 10 + [0, 0, -1]
    xyz = xyz[np.linalg.norm(xyz, axis=1) > 0.5]
    cloud = cloud_from_xyz(xyz, intensity=rng.uniform(0, 1, xyz.shape[0]))
    ri = project_to_range(cloud, s)
    rows = aligned(ri.features.reshape(-1, 5), "range", cloud, s)
    cells = ri.point_cell_ids()
    assert np.array_equal(rows, ri.features.reshape(-1, 5)[cells])
    kept = ri.kept_index.ravel()
    d = cloud.depth()
    for cell_id in np.flatnonzero(kept >= 0):
        i = kept[cell_id]
        own = np.concatenate([cloud.xyz[i], [cloud.intensity[i]],
                              [np.float32(d[i])]])
        assert np.allclose(rows[i], own, atol=1e-6)


def _partition(groups, n):
    from lidarmoe.geometry import SuperpointPartition
    groups = np.asarray(groups, np.int32)
    s = np.bincount(groups[groups >= 0]).size
    return SuperpointPartition(groups, np.arange(s, dtype=np.int32))


def test_group_mean_basic():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    out = pooled(feats, _partition([0, 0], 2))
    assert np.allclose(out, [[0.5, 0.5]])


def test_group_mean_singletons_and_excluded():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], np.float32)
    out = pooled(feats, _partition([0, -1, 1], 3))
    assert np.allclose(out, [[1.0, 2.0], [5.0, 6.0]])
    empty = pooled(feats, _partition([-1, -1, -1], 3))
    assert empty.shape == (0, 2)


def test_group_mean_linearity(rng):
    feats_a = rng.standard_normal((20, 4)).astype(np.float32)
    feats_b = rng.standard_normal((20, 4)).astype(np.float32)
    part = _partition(rng.integers(-1, 3, 20), 20)
    lhs = pooled(2.0 * feats_a + 3.0 * feats_b, part)
    rhs = 2.0 * pooled(feats_a, part) + 3.0 * pooled(feats_b, part)
    assert np.allclose(lhs, rhs, atol=1e-5)


# -- label projection --------------------------------------------------------

def test_voxel_label_single_point():
    cloud = cloud_from_xyz([[0.5, 0.5, 0.5]], label=[4])
    grid = voxelize(cloud, (1, 1, 1))
    assert project_labels(cloud, grid)[0] == 4


def test_voxel_label_majority_and_tie():
    cloud = cloud_from_xyz([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]],
                           label=[2, 2, 5])
    grid = voxelize(cloud, (1, 1, 1))
    assert project_labels(cloud, grid)[0] == 2
    cloud2 = cloud_from_xyz([[0.1, 0, 0], [0.2, 0, 0]], label=[3, 1])
    assert project_labels(cloud2, voxelize(cloud2, (1, 1, 1)))[0] == 1


def test_range_label_is_kept_points():
    s = sensor_1024()
    cloud = cloud_from_xyz([[5.0, 0.0, 0.0], [3.0, 0.0, 0.0]], label=[1, 2])
    ri = project_to_range(cloud, s)
    labels = project_labels(cloud, ri)
    cell = ri.point_cell_ids()[0]
    assert labels[cell] == 2
    assert np.sum(labels >= 0) == 1


# -- empty inputs ------------------------------------------------------------

def test_empty_inputs_give_empty_fields_of_the_general_shapes_and_dtypes():
    """No point in, every per-point and per-group field comes out empty
    with the shape and dtype a non-empty input gives."""
    def fields(obj, names):
        return {n: (getattr(obj, n).shape, getattr(obj, n).dtype) for n in names}

    sensor = SensorModel(beam_count=8, azimuth_steps=32, fov_total_rad=0.6,
                         fov_down_rad=0.3, max_range_m=1.0, range_h=8, range_w=32)
    no_objects = SceneConfig(n_boxes=0, n_pedestrians=0, n_poles=0,
                             n_buildings=0, n_barriers=0)
    # the ground lies 1.8 m below the sensor, beyond the 1 m max range
    cloud = simulate_lidar(build_scene(no_objects, seed=0), sensor)
    assert fields(cloud, ("xyz", "intensity", "beam", "label")) == {
        "xyz": ((0, 3), np.float32), "intensity": ((0,), np.float32),
        "beam": ((0,), np.int32), "label": ((0,), np.int32)}

    ri = project_to_range(cloud, sensor)
    assert fields(ri, ("features", "kept_index", "pixel_u", "pixel_v")) == {
        "features": ((8, 32, 5), np.float32), "kept_index": ((8, 32), np.int32),
        "pixel_u": ((0,), np.int32), "pixel_v": ((0,), np.int32)}
    assert not ri.features.any() and (ri.kept_index == -1).all()

    camera = forward_camera()
    part = build_superpoints(cloud, camera, np.zeros((64, 96), np.int32),
                             np.ones((64, 96)))
    assert fields(part, ("point_group", "superpixel_of")) == {
        "point_group": ((0,), np.int32), "superpixel_of": ((0,), np.int32)}

    grid = voxelize(cloud, (1.0, 1.0, 1.0))
    assert fields(grid, ("coords", "point_voxel", "features")) == {
        "coords": ((0, 3), np.int64), "point_voxel": ((0,), np.int64),
        "features": ((0, 4), np.float64)}
    src, dst = voxel_neighbor_pairs(grid)
    assert (src.shape, src.dtype, dst.shape, dst.dtype) == \
        ((0,), np.int64, (0,), np.int64)
