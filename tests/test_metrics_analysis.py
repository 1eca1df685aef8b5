"""Metric formulas against hand counts, routing tables, cosine maps."""

import numpy as np
import pytest

from lidarmoe.analysis import (cosine_map, route_bars_svg, route_stats,
                               scatter_svg, write_route_csv)
from lidarmoe.errors import LidarMoeError
from lidarmoe.metrics import compute_mce_mrr, compute_miou
from lidarmoe.pointcloud import PointCloud


from oracles import confusion_bruteforce


# -- IoU ---------------------------------------------------------------------

def test_iou_worked_value():
    preds = [0] * 75 + [1] * 25
    labels = [0] * 50 + [1] * 25 + [0] * 25
    report = compute_miou(preds, labels, 2)
    assert report.tp[0] == 50 and report.fp[0] == 25 and report.fn[0] == 25
    assert report.iou[0] == pytest.approx(50.0)


def test_iou_perfect_predictions():
    labels = np.array([0, 1, 2, 2, 1, 0])
    report = compute_miou(labels, labels, 3)
    assert np.allclose(report.iou, 100.0)
    assert report.miou == pytest.approx(100.0)


def test_iou_matches_bruteforce(rng):
    preds = rng.integers(0, 3, 500)
    labels = rng.integers(-1, 3, 500)
    report = compute_miou(preds, labels, 3)
    tp, fp, fn = confusion_bruteforce(preds.tolist(), labels.tolist(), 3)
    assert report.tp.tolist() == tp
    assert report.fp.tolist() == fp
    assert report.fn.tolist() == fn
    for c in range(3):
        denom = tp[c] + fp[c] + fn[c]
        if denom:
            assert report.iou[c] == pytest.approx(100.0 * tp[c] / denom)


def test_iou_absent_class_excluded_from_mean():
    preds = np.array([0, 0, 1, 1])
    labels = np.array([0, 0, 1, 1])
    report = compute_miou(preds, labels, 5)
    assert np.isnan(report.iou[4])
    assert report.miou == pytest.approx(100.0)
    assert np.flatnonzero(~np.isnan(report.iou)).tolist() == [0, 1]


def test_iou_empty_input_rejected():
    with pytest.raises(LidarMoeError, match="^empty input$"):
        compute_miou([], [], 3)


@pytest.mark.parametrize("preds,labels,num_classes", [
    ([0, -1], [0, 1], 3), ([0, 3], [0, 1], 3), ([0, 1], [0, 3], 3), ([0], [0], 0),
])
def test_iou_class_id_outside_num_classes_rejected(preds, labels, num_classes):
    with pytest.raises(LidarMoeError, match=rf"^class ids must be in \[0, "
                                            rf"num_classes={num_classes}\)"):
        compute_miou(preds, labels, num_classes)


def test_iou_ignored_label_may_pair_with_any_prediction():
    report = compute_miou([0, 9], [0, -1], 2)
    assert report.tp.tolist() == [1, 0] and report.miou == pytest.approx(100.0)


# -- CE / RR -----------------------------------------------------------------

def test_ce_equal_baseline_is_100():
    ious = {"jitter": [50.0, 40.0, 30.0]}
    mce, _, per = compute_mce_mrr(ious, ious, clean_iou=60.0)
    assert mce == pytest.approx(100.0)
    assert per["jitter"]["ce"] == pytest.approx(100.0)


def test_rr_clean_level_is_100():
    ious = {"cut": [70.0, 70.0, 70.0]}
    _, mrr, _ = compute_mce_mrr(ious, {"cut": [50.0, 40.0, 30.0]}, clean_iou=70.0)
    assert mrr == pytest.approx(100.0)


def test_ce_rr_worked_triple():
    model = {"beam": [60.0, 50.0, 40.0]}
    base = {"beam": [50.0, 40.0, 30.0]}
    mce, mrr, per = compute_mce_mrr(model, base, clean_iou=70.0)
    assert per["beam"]["ce"] == pytest.approx(100.0 * 150.0 / 180.0, abs=0.01)
    assert per["beam"]["rr"] == pytest.approx(100.0 * 150.0 / 210.0, abs=0.01)


def test_ce_zero_baseline_error_rejected():
    with pytest.raises(LidarMoeError, match="^baseline corruption error is zero for x$"):
        compute_mce_mrr({"x": [50, 50, 50]}, {"x": [100.0, 100.0, 100.0]}, 70.0)


# -- route stats -------------------------------------------------------------

def make_cloud(n, beams, labels, depths):
    xyz = np.zeros((n, 3), np.float32)
    xyz[:, 0] = depths
    return PointCloud(xyz, np.zeros(n), np.asarray(beams, np.int32),
                      np.asarray(labels, np.int32))


def test_route_one_hot_fixture():
    n = 10
    gates = np.zeros((n, 3), np.float32)
    gates[:, 1] = 1.0
    cloud = make_cloud(n, [0] * 5 + [1] * 5, [0] * n, [5.0] * n)
    table = route_stats(gates, cloud, "beam")
    assert len(table.buckets) == 2
    assert np.allclose(table.loads, [[0, 1, 0], [0, 1, 0]])


def test_route_uniform_gates():
    n = 12
    gates = np.full((n, 3), 1.0 / 3.0, np.float32)
    cloud = make_cloud(n, [0] * n, np.arange(n) % 3, np.linspace(1, 45, n))
    for axis in ("beam", "distance-bin", "class"):
        table = route_stats(gates, cloud, axis)
        assert np.allclose(table.loads, 1.0 / 3.0, atol=1e-6)
        assert np.all(np.abs(table.loads.sum(axis=1) - 1.0) <= 1e-6)


def test_route_bucket_mean():
    gates = np.array([[1, 0, 0], [0, 1, 0]], np.float32)
    cloud = make_cloud(2, [3, 3], [0, 0], [5.0, 5.0])
    table = route_stats(gates, cloud, "beam")
    assert np.allclose(table.loads, [[0.5, 0.5, 0.0]])
    assert table.counts.tolist() == [2]


def test_route_distance_binning():
    gates = np.full((4, 3), 1.0 / 3.0, np.float32)
    cloud = make_cloud(4, [0] * 4, [0] * 4, [5.0, 15.0, 35.0, 45.0])
    table = route_stats(gates, cloud, "distance-bin")
    assert table.buckets == ["0-10m", "10-20m", "30-40m", "40m+"]
    assert table.counts.tolist() == [1, 1, 1, 1]


def test_route_buckets_of_every_axis():
    """A beam or class bucket is named by its id, a distance bin by its
    edges; unlabeled points and points below the first edge fall in none."""
    cloud = make_cloud(5, [2, 0, 2, 5, 0], [-1, 3, 1, 3, 3], [5.0, 15.0, 45.0, 2.0, 0.5])
    gates = np.full((5, 3), 1.0 / 3.0, np.float32)
    want = {"beam": (["beam0", "beam2", "beam5"], [2, 2, 1]),
            "class": (["class1", "class3"], [1, 3]),
            "distance-bin": (["1-10m", "10-20m", "40m+"], [2, 1, 1])}
    for axis, (names, counts) in want.items():
        table = route_stats(gates, cloud, axis, distance_edges=(1.0, 10.0, 20.0, 30.0, 40.0))
        assert (table.buckets, table.counts.tolist()) == (names, counts)


def test_route_global_load_equals_whole_cloud_mean(rng):
    n = 500
    gates = rng.dirichlet(np.ones(3), n).astype(np.float32)
    cloud = make_cloud(n, rng.integers(0, 8, n), rng.integers(0, 6, n),
                       rng.uniform(1, 55, n))
    for axis in ("beam", "distance-bin", "class"):
        table = route_stats(gates, cloud, axis)
        assert np.allclose(table.global_load(),
                           gates.astype(np.float64).mean(axis=0), atol=1e-6)


def test_route_unknown_axis_rejected():
    cloud = make_cloud(1, [0], [0], [5.0])
    with pytest.raises(LidarMoeError, match="^unknown axis: color$"):
        route_stats(np.ones((1, 3), np.float32), cloud, "color")


def test_route_csv_and_svg(tmp_path, rng):
    n = 40
    gates = rng.dirichlet(np.ones(3), n).astype(np.float32)
    cloud = make_cloud(n, rng.integers(0, 4, n), rng.integers(0, 3, n),
                       rng.uniform(1, 50, n))
    table = route_stats(gates, cloud, "beam")
    write_route_csv(tmp_path / "r.csv", table)
    route_bars_svg(tmp_path / "r.svg", table)
    lines = (tmp_path / "r.csv").read_text().strip().split("\n")
    assert lines[0] == "axis,bucket,count,load_range,load_voxel,load_point"
    assert len(lines) == 1 + len(table.buckets)
    assert (tmp_path / "r.svg").read_text().startswith("<svg")


# -- cosine map --------------------------------------------------------------

def test_cosine_self_orthogonal_negated():
    feats = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]], np.float32)
    sims, degenerate = cosine_map(feats, 0)
    assert sims[0] == pytest.approx(1.0)
    assert sims[1] == pytest.approx(0.0)
    assert sims[2] == pytest.approx(-1.0)
    assert not degenerate.any()


def test_cosine_zero_norm_flagged():
    feats = np.array([[1.0, 0.0], [0.0, 0.0]], np.float32)
    sims, degenerate = cosine_map(feats, 0)
    assert sims[1] == 0.0
    assert degenerate[1] and not degenerate[0]


def test_cosine_query_out_of_range():
    with pytest.raises(LidarMoeError, match="^query id out of range$"):
        cosine_map(np.ones((3, 2), np.float32), 5)


def test_scatter_svg_written(tmp_path, rng):
    xy = rng.uniform(-10, 10, (30, 2))
    vals = rng.uniform(-1, 1, 30)
    scatter_svg(tmp_path / "s.svg", xy, vals, title="test")
    text = (tmp_path / "s.svg").read_text()
    assert text.startswith("<svg") and text.count("<circle") == 30
