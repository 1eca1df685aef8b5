"""Scene construction, ray casting, rendering, augmentation, corruption."""

import numpy as np
import pytest

import lidarmoe.datagen as dg
from lidarmoe.datagen import (AugmentParams, CLASS_BARRIER, CLASS_BUILDING, CLASS_GROUND,
                              CLASS_POLE, CLASS_VEHICLE, NUM_CLASSES, Primitive, Scene,
                              SceneConfig, apply_augment, augment, build_scene,
                              cast_rays, corrupt, dropped_beams, render_camera,
                              simulate_lidar)
from lidarmoe.errors import LidarMoeError
from lidarmoe.pointcloud import PointCloud
from lidarmoe.sensors import SensorModel

from cameras import forward_camera


def small_sensor(**kw):
    args = dict(beam_count=16, azimuth_steps=64, fov_total_rad=np.deg2rad(40.0),
                fov_down_rad=np.deg2rad(25.0), max_range_m=60.0, range_h=16,
                range_w=64)
    args.update(kw)
    return SensorModel(**args)


def ground_only_scene(z=-2.0):
    return Scene(primitives=(
        Primitive("ground-plane", (0.0, 0.0, z), (200.0, 200.0, 1.0), CLASS_GROUND),
    ))


# -- build_scene -------------------------------------------------------------

def test_empty_config_gives_ground_only():
    cfg = SceneConfig(n_boxes=0, n_pedestrians=0, n_poles=0, n_buildings=0,
                      n_barriers=0)
    scene = build_scene(cfg, seed=1)
    assert len(scene.primitives) == 1
    assert scene.primitives[0].kind == "ground-plane"


def test_build_scene_deterministic():
    cfg = SceneConfig()
    assert build_scene(cfg, 9) == build_scene(cfg, 9)
    assert build_scene(cfg, 9) != build_scene(cfg, 10)


def test_boxes_inside_bounds():
    cfg = SceneConfig(n_boxes=3, n_pedestrians=0, n_poles=0, n_buildings=0,
                      n_barriers=0, x_bounds=(5.0, 20.0), y_bounds=(-7.0, 7.0))
    scene = build_scene(cfg, seed=7)
    boxes = [p for p in scene.primitives if p.kind == "box"]
    assert len(boxes) == 3
    for box in boxes:
        assert cfg.x_bounds[0] <= box.pose[0] <= cfg.x_bounds[1]
        assert cfg.y_bounds[0] <= box.pose[1] <= cfg.y_bounds[1]


def test_invalid_bounds_rejected():
    with pytest.raises(LidarMoeError, match="^placement bounds must have min <= max$"):
        SceneConfig(x_bounds=(10.0, 5.0))


@pytest.mark.parametrize("kind, pose, extents, message", [
    ("box", (5.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0), "^extents must be strictly positive$"),
    ("box", (5.0, 0.0, 0.0, 0.0), (1.0, 1.0, -0.5), "^extents must be strictly positive$"),
    ("vertical-cylinder", (5.0, 0.0, 0.0), (1.0, 0.0), "^extents must be strictly positive$"),
    ("box", (5.0, 0.0, 0.0), (1.0, 1.0, 1.0),
     "^a box takes 4 pose and 3 extents values, got 3 and 3$"),
    ("box", (5.0, 0.0, 0.0, 0.0), (1.0, 1.0),
     "^a box takes 4 pose and 3 extents values, got 4 and 2$"),
    ("vertical-cylinder", (5.0, 0.0, 0.0, 0.0), (1.0, 2.0),
     "^a vertical-cylinder takes 3 pose and 2 extents values, got 4 and 2$"),
    ("vertical-cylinder", (5.0, 0.0, 0.0), (1.0, 2.0, 3.0),
     "^a vertical-cylinder takes 3 pose and 2 extents values, got 3 and 3$"),
    ("ground-plane", (0.0, 0.0), (9.0, 9.0, 1.0),
     "^a ground-plane takes 3 pose and 3 extents values, got 2 and 3$"),
])
def test_primitive_rejects_a_shape_its_kind_cannot_have(kind, pose, extents, message):
    with pytest.raises(LidarMoeError, match=message):
        Primitive(kind, pose, extents, 1)


def test_scene_requires_exactly_one_ground():
    with pytest.raises(LidarMoeError, match="^scene must contain exactly one ground plane$"):
        Scene(primitives=())


# -- simulate_lidar ----------------------------------------------------------

def test_horizontal_ray_misses_ground_plane():
    scene = ground_only_scene(z=-2.0)
    t, cls = cast_rays(scene, np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    assert np.isinf(t[0]) and cls[0] == -1


def test_cylinder_closed_form_hit():
    scene = Scene(primitives=(
        Primitive("ground-plane", (0, 0, -50.0), (500.0, 500.0, 1.0), 0),
        Primitive("vertical-cylinder", (5.0, 0.0, -2.0), (1.0, 4.0), 3),
    ))
    t, cls = cast_rays(scene, np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    assert t[0] == pytest.approx(4.0, abs=1e-12)
    assert cls[0] == 3


FAR_GROUND = Primitive("ground-plane", (0.0, 0.0, -500.0), (0.1, 0.1, 1.0), CLASS_GROUND)


@pytest.mark.parametrize("first, second", [(CLASS_VEHICLE, CLASS_BARRIER),
                                           (CLASS_BARRIER, CLASS_VEHICLE)])
def test_coincident_boxes_tie_to_the_earlier_primitive(first, second):
    boxes = tuple(Primitive("box", (6.0, 0.5, 0.0, 0.3), (1.0, 1.5, 1.0), c)
                  for c in (first, second))
    yaw, pitch = np.meshgrid(np.linspace(-0.4, 0.5, 40), np.linspace(-0.3, 0.3, 20))
    dirs = np.stack([np.cos(yaw).ravel(), np.sin(yaw).ravel(), np.tan(pitch).ravel()], axis=1)
    t, cls = cast_rays(Scene((FAR_GROUND,) + boxes), np.zeros(3), dirs)
    hit = np.isfinite(t)
    assert hit.sum() > 100 and not hit.all()
    assert np.all(cls[hit] == first)


def brute_force_cast(scene, origin, dirs):
    """Every intersector on every ray; the nearest hit wins by a strict <."""
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    best_t = np.full(len(dirs), np.inf)
    best_c = np.full(len(dirs), -1, dtype=np.int32)
    for prim in scene.primitives:
        _, _, intersect, _ = dg._PRIMITIVE_KINDS[prim.kind]
        t = intersect(origin, dirs, prim)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_c = np.where(closer, prim.class_id, best_c)
    return best_t, best_c


def assert_cast_is_brute_force(scene, origin, dirs):
    t, cls = cast_rays(scene, origin, dirs)
    ref_t, ref_c = brute_force_cast(scene, origin, dirs)
    assert np.array_equal(t, ref_t)
    assert np.array_equal(cls, ref_c)
    return t, cls


def test_culled_cast_is_brute_force_on_built_scenes(monkeypatch):
    # the near window puts the camera center inside some bounding spheres
    calls = []
    monkeypatch.setattr(dg, "cast_rays", lambda *args: calls.append(args) or cast_rays(*args))
    for cfg in (SceneConfig(), SceneConfig(x_bounds=(1.0, 8.0), y_bounds=(-4.0, 4.0))):
        for seed in range(10):
            scene = build_scene(cfg, seed)
            simulate_lidar(scene, small_sensor())
            render_camera(scene, forward_camera())
    assert len(calls) == 40
    for scene, origin, dirs in calls:
        assert_cast_is_brute_force(scene, origin, dirs)


def test_culled_cast_is_brute_force_at_the_cone_edges(rng):
    near_box = Primitive("box", (0.0, 2.0, 0.0, 0.4), (1.5, 0.3, 1.5), CLASS_BUILDING)
    far_box = Primitive("box", (15.0, 4.0, -1.0, 1.1), (2.0, 0.9, 0.8), CLASS_VEHICLE)
    pole = Primitive("vertical-cylinder", (6.0, -3.0, -1.8), (0.5, 3.0), CLASS_POLE)
    scene = Scene((Primitive("ground-plane", (0.0, 0.0, -1.8), (120.0, 120.0, 1.0),
                             CLASS_GROUND), near_box, far_box, pole))
    # rays through the far box's corners and the pole's rims, which lie on
    # their bounding spheres, and rays tangent to the pole's side
    cx, cy, cz, yaw = far_box.pose
    rot = np.array([[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0],
                    [0.0, 0.0, 1.0]])
    signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
    corners = (signs * far_box.extents) @ rot.T + (cx, cy, cz)
    phi = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    (px, py, zb), (r, h) = pole.pose, pole.extents
    rims = np.concatenate([np.stack([px + r * np.cos(phi), py + r * np.sin(phi),
                                     np.full(phi.size, z)], axis=1) for z in (zb, zb + h)])
    targets = np.repeat(np.concatenate([corners, rims]), 30, axis=0)
    targets *= 1.0 + rng.uniform(-1e-12, 1e-12, targets.shape)
    side = np.repeat([-1.0, 1.0], 200) + rng.uniform(-1e-12, 1e-12, 400)
    # origins inside the near box's bounding sphere (the LiDAR's and the
    # camera's), inside the near box itself, and outside every sphere but
    # the ground's
    for origin in (np.zeros(3), np.array([0.0, 0.0, 0.2]), np.array([0.1, 2.05, 0.3]),
                   np.array([-3.0, 9.0, 0.0])):
        vx, vy = px - origin[0], py - origin[1]
        bearing = np.arctan2(vy, vx) + side * np.arcsin(r / np.hypot(vx, vy))
        slope = rng.uniform(zb - origin[2], zb + h - origin[2], 400) / np.hypot(vx, vy)
        tangent = np.stack([np.cos(bearing), np.sin(bearing), slope], axis=1)
        dirs = np.concatenate([targets - origin, tangent, rng.standard_normal((600, 3))])
        dirs *= 10.0 ** rng.uniform(-3.0, 3.0, (len(dirs), 1))  # non-unit lengths
        t, cls = assert_cast_is_brute_force(scene, origin, dirs)
        assert {CLASS_GROUND, CLASS_VEHICLE, CLASS_POLE} <= set(cls.tolist())
        for i in np.flatnonzero(cls > CLASS_GROUND)[::40]:  # a one-ray cast is the same row
            one_t, one_c = cast_rays(scene, origin, dirs[i:i + 1])
            assert one_t[0] == t[i] and one_c[0] == cls[i]


def test_a_one_row_rotation_rounds_like_a_many_row_one(rng):
    # the box frame of a shared origin must round as one row of the batch did
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    rows = rng.standard_normal((200, 3)) * 20.0
    many = dg._rotate(rows, rot)
    for i in range(len(rows)):
        assert np.array_equal(dg._rotate(rows[i:i + 1], rot), many[i:i + 1])


def test_points_within_range_and_labeled():
    scene = build_scene(SceneConfig(), seed=3)
    sensor = small_sensor()
    cloud = simulate_lidar(scene, sensor)
    assert cloud.count > 0
    assert np.all(cloud.depth() <= sensor.max_range_m + 1e-9)
    assert np.all(cloud.label >= 0)
    assert np.all(cloud.beam < sensor.beam_count)
    assert np.all((cloud.intensity >= 0) & (cloud.intensity <= 1))


def test_points_lie_on_primitive_surfaces():
    scene = build_scene(SceneConfig(), seed=5)
    cloud = simulate_lidar(scene, small_sensor())
    # re-cast along each point direction: surface distance equals point depth
    d = cloud.depth()
    dirs = cloud.xyz.astype(np.float64) / d[:, None]
    t, _ = cast_rays(scene, np.zeros(3), dirs)
    assert np.all(np.abs(t - d) < 1e-4)


def test_lidar_deterministic():
    scene = build_scene(SceneConfig(), seed=11)
    a = simulate_lidar(scene, small_sensor())
    b = simulate_lidar(scene, small_sensor())
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.beam, b.beam)


# -- render_camera -----------------------------------------------------------

def test_empty_scene_renders_all_sky_one_superpixel_per_tile():
    scene = Scene(primitives=(
        Primitive("ground-plane", (0.0, 0.0, -500.0), (0.1, 0.1, 1.0), 0),
    ))
    cam = forward_camera(width=32, height=32)
    render = render_camera(scene, cam, tile=16)
    assert np.all(render.class_id == -1)
    assert np.all(np.isinf(render.depth))
    assert render.superpixel.max() + 1 == 4  # 2x2 tiles, one class each


def test_box_covering_tile_is_single_superpixel():
    # a huge box right in front fills the view
    scene = Scene(primitives=(
        Primitive("ground-plane", (0.0, 0.0, -500.0), (0.1, 0.1, 1.0), 0),
        Primitive("box", (5.0, 0.0, 0.0, 0.0), (0.5, 50.0, 50.0), 4),
    ))
    cam = forward_camera(width=32, height=32)
    render = render_camera(scene, cam, tile=16)
    superpixels = render.superpixel
    assert np.all(render.class_id == 4)
    # brute-force: every tile single class -> superpixel count = tile count
    assert superpixels.max() + 1 == 4
    for ty in range(2):
        for tx in range(2):
            tile = superpixels[ty * 16:(ty + 1) * 16, tx * 16:(tx + 1) * 16]
            assert np.unique(tile).size == 1


def test_superpixels_partition_and_single_class():
    scene = build_scene(SceneConfig(), seed=2)
    cam = forward_camera()
    render = render_camera(scene, cam, tile=16)
    superpixels = render.superpixel
    s = superpixels.max() + 1
    assert np.array_equal(np.unique(superpixels), np.arange(s))
    for sp in range(s):
        classes = np.unique(render.class_id[superpixels == sp])
        assert classes.size == 1


def test_tile_superpixels_number_tile_class_pairs_in_order(rng):
    h, w, tile = 37, 53, 8
    class_map = rng.integers(-1, NUM_CLASSES, size=(h, w)).astype(np.int32)
    vv, uu = np.mgrid[0:h, 0:w]
    pairs = np.stack([(vv // tile) * 7 + uu // tile, class_map], axis=-1).reshape(-1, 2)
    _, ref = np.unique(pairs, axis=0, return_inverse=True)
    sp = dg._tile_superpixels(class_map, tile)
    assert sp.dtype == np.int32
    assert np.array_equal(sp, ref.reshape(h, w))


def test_calibration_consistency():
    # lidar points projecting into the image agree with the rendered class
    # wherever the depths match (occlusion-aware agreement)
    from lidarmoe.geometry import project_to_image
    scene = build_scene(SceneConfig(), seed=8)
    sensor = small_sensor(azimuth_steps=128, range_w=128)
    cloud = simulate_lidar(scene, sensor)
    cam = forward_camera()
    image = render_camera(scene, cam)
    u, v, ok = project_to_image(cloud, cam)
    ui, vi = np.floor(u).astype(int), np.floor(v).astype(int)
    center = cam.center_in_lidar()
    dist = np.linalg.norm(cloud.xyz.astype(np.float64) - center, axis=1)
    sel = np.flatnonzero(ok)
    matched = 0
    for i in sel:
        depth = image.depth[vi[i], ui[i]]
        if np.isfinite(depth) and abs(dist[i] - depth) <= 1e-3:
            assert image.class_id[vi[i], ui[i]] == cloud.label[i]
            matched += 1
    assert matched > 0


# -- augment -----------------------------------------------------------------

def test_augment_identity_params():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]), [0.5], [0], [1])
    out = apply_augment(cloud, AugmentParams(False, False, 0.0, 1.0))
    assert np.allclose(out.xyz, cloud.xyz)


def test_augment_quarter_turn():
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), [0.5], [0], [1])
    out = apply_augment(cloud, AugmentParams(False, False, np.pi / 2, 1.0))
    assert np.allclose(out.xyz, [[0.0, 1.0, 0.0]], atol=1e-7)


def test_augment_preserves_distance_ratios(rng):
    xyz = rng.standard_normal((40, 3)).astype(np.float32) * 5
    cloud = PointCloud(xyz, np.zeros(40), np.zeros(40, np.int32),
                       np.zeros(40, np.int32))
    out = augment(cloud, seed=21)
    from lidarmoe.datagen import draw_augment_params
    s = draw_augment_params(21).scale
    d_in = np.linalg.norm(xyz[None] - xyz[:, None], axis=2)
    d_out = np.linalg.norm(out.xyz[None].astype(np.float64)
                           - out.xyz[:, None].astype(np.float64), axis=2)
    nz = d_in > 1e-6
    assert np.max(np.abs(d_out[nz] / d_in[nz] - s)) < 1e-5


def test_augment_preserves_attributes_and_determinism():
    xyz = np.arange(12, dtype=np.float32).reshape(4, 3) + 1
    cloud = PointCloud(xyz, [0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3], [5, 4, 3, 2])
    a = augment(cloud, 3)
    b = augment(cloud, 3)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.label, cloud.label)
    assert np.array_equal(a.beam, cloud.beam)
    assert np.array_equal(a.intensity, cloud.intensity)


# -- corrupt -----------------------------------------------------------------

def test_beam_missing_no_affected_beams_is_identity():
    surviving = np.setdiff1d(np.arange(16), dropped_beams(16, 1))
    n = surviving.size
    cloud = PointCloud(np.ones((n, 3), np.float32), np.zeros(n),
                       surviving.astype(np.int32), np.zeros(n, np.int32))
    out = corrupt(cloud, "beam-missing", 1, seed=0)
    assert out.count == n
    assert np.array_equal(out.beam, cloud.beam)


def test_beam_missing_severities_monotone():
    n = 16
    cloud = PointCloud(np.ones((n, 3), np.float32), np.zeros(n),
                       np.arange(n, dtype=np.int32), np.zeros(n, np.int32))
    kept = [corrupt(cloud, "beam-missing", s, 0).count for s in (1, 2, 3)]
    assert kept[0] > kept[1] > kept[2] > 0


def test_jitter_zero_sigma_is_identity(rng, monkeypatch):
    import lidarmoe.datagen as dg
    monkeypatch.setitem(dg._JITTER_SIGMA, 1, 0.0)
    xyz = rng.standard_normal((50, 3)).astype(np.float32)
    cloud = PointCloud(xyz, np.zeros(50), np.zeros(50, np.int32),
                       np.zeros(50, np.int32))
    out = corrupt(cloud, "jitter", 1, seed=9)
    assert np.array_equal(out.xyz, cloud.xyz)


def test_jitter_statistics_and_determinism(rng):
    n = 2000
    xyz = rng.standard_normal((n, 3)).astype(np.float32) * 10
    cloud = PointCloud(xyz, np.zeros(n), np.zeros(n, np.int32),
                       np.zeros(n, np.int32))
    a = corrupt(cloud, "jitter", 2, seed=5)
    b = corrupt(cloud, "jitter", 2, seed=5)
    assert np.array_equal(a.xyz, b.xyz)
    sigma = np.std(a.xyz.astype(np.float64) - xyz.astype(np.float64))
    assert 0.04 < sigma < 0.06


def test_range_cut_severity3_empties_cloud_at_25m():
    n = 8
    xyz = np.zeros((n, 3), np.float32)
    xyz[:, 0] = 25.0
    cloud = PointCloud(xyz, np.zeros(n), np.zeros(n, np.int32),
                       np.zeros(n, np.int32))
    assert corrupt(cloud, "range-cut", 3, seed=0).count == 0
    assert corrupt(cloud, "range-cut", 1, seed=0).count == n


def test_unknown_corruption_kind_rejected():
    cloud = PointCloud(np.ones((1, 3), np.float32), [0.0], [0], [0])
    with pytest.raises(LidarMoeError, match="^unknown corruption kind: fog$"):
        corrupt(cloud, "fog", 1, seed=0)
