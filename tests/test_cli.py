"""Command-line contract: exit codes, output files, reproducibility."""

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lidarmoe
from lidarmoe.cli import _prediction_rows, main
from lidarmoe.datagen import NUM_CLASSES, CameraRender
from lidarmoe.dataio import read_camera_npz, read_lpcd, write_camera_npz, write_lpcd
from lidarmoe.encoders import init_encoder_params, trunk_width
from lidarmoe.moe import REPRESENTATIONS, init_moe_params, write_gate_csv
from lidarmoe.params import ParameterStore, add_linear, load_checkpoint, save_checkpoint
from lidarmoe.pointcloud import PointCloud

from oracles import prediction_rows_fstring


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_no_arguments_usage_exit_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exit_1():
    assert main(["frobnicate"]) == 1


def test_bad_flag_exit_1():
    assert main(["eval", "--bogus"]) == 1


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_seed_flag_not_a_non_negative_integer_exit_1(capsys, seed):
    assert main(["corrupt", "--seed", seed]) == 1
    assert ("usage error: argument --seed: must be a non-negative integer, "
            f"got {seed!r}") in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert main(["eval", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_eval_fixture_perfect_predictions(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    rows = ["prediction,label"] + [f"{i % 3},{i % 3}" for i in range(60)]
    pairs.write_text("\n".join(rows) + "\n")
    cfg = write_json(tmp_path / "cfg.json",
                     {"pairs_csv": str(pairs), "num_classes": 3})
    out = tmp_path / "out"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["miou"] == pytest.approx(100.0)
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "class,tp,fp,fn,iou"


def test_datagen_and_outputs_byte_identical(tmp_path):
    doc = {"n_train": 1, "n_val": 1, "azimuth_steps": 64, "range_w": 64}
    cfg = write_json(tmp_path / "gen.json", doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["datagen", "--config", cfg, "--seed", "5", "--out", str(a)]) == 0
    assert main(["datagen", "--config", cfg, "--seed", "5", "--out", str(b)]) == 0
    for rel in ("manifest.json", "scans/train_000.lpcd", "cams/val_000.npz",
                "datagen_summary.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_route_stats_one_hot_fixture(tmp_path):
    n = 20
    cloud = PointCloud(np.random.default_rng(0).uniform(1, 30, (n, 3)).astype(np.float32),
                       np.zeros(n), np.arange(n, dtype=np.int32) % 4,
                       np.zeros(n, np.int32))
    scan = tmp_path / "scan.lpcd"
    write_lpcd(scan, cloud)
    gates = np.zeros((n, 3), np.float32)
    gates[:, 2] = 1.0
    gates_csv = tmp_path / "gates.csv"
    write_gate_csv(gates_csv, gates)
    cfg = write_json(tmp_path / "cfg.json",
                     {"gates_csv": str(gates_csv), "cloud": str(scan),
                      "axis": "beam"})
    out = tmp_path / "out"
    assert main(["route-stats", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "route_beam.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        cols = row.split(",")
        assert float(cols[3]) == 0.0
        assert float(cols[4]) == 0.0
        assert float(cols[5]) == 1.0
    summary = json.loads((out / "route_summary.json").read_text())
    assert summary["non_degenerate"] is False
    assert (out / "route_beam.svg").exists()


def test_route_stats_gate_rows_validated(tmp_path):
    # row count mismatch between gates and cloud -> data error
    cloud = PointCloud(np.ones((5, 3), np.float32), np.zeros(5),
                       np.zeros(5, np.int32), np.zeros(5, np.int32))
    scan = tmp_path / "scan.lpcd"
    write_lpcd(scan, cloud)
    gates_csv = tmp_path / "gates.csv"
    write_gate_csv(gates_csv, np.ones((3, 3), np.float32) / 3)
    cfg = write_json(tmp_path / "cfg.json",
                     {"gates_csv": str(gates_csv), "cloud": str(scan),
                      "axis": "beam"})
    assert main(["route-stats", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cosine_map_from_features_csv(tmp_path):
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    fcsv = tmp_path / "feats.csv"
    np.savetxt(fcsv, feats, delimiter=",")
    cloud = PointCloud(np.arange(9, dtype=np.float32).reshape(3, 3) + 1,
                       np.zeros(3), np.zeros(3, np.int32), np.zeros(3, np.int32))
    scan = tmp_path / "scan.lpcd"
    write_lpcd(scan, cloud)
    cfg = write_json(tmp_path / "cfg.json",
                     {"features_csv": str(fcsv), "cloud": str(scan),
                      "query_id": 0})
    out = tmp_path / "out"
    assert main(["cosine-map", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "cosine_map.csv").read_text().strip().split("\n")
    assert rows[0] == "point_id,similarity,zero_norm"
    sims = [float(r.split(",")[1]) for r in rows[1:]]
    assert sims == pytest.approx([1.0, 0.0, -1.0])
    assert (out / "cosine_map.svg").exists()


def test_report_robustness(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "clean_iou": 70.0,
        "model_ious": {"beam": [60.0, 50.0, 40.0]},
        "baseline_ious": {"beam": [50.0, 40.0, 30.0]},
    })
    out = tmp_path / "out"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "robustness_summary.json").read_text())
    assert summary["mce"] == pytest.approx(100.0 * 150.0 / 180.0, abs=0.01)
    assert summary["mrr"] == pytest.approx(100.0 * 150.0 / 210.0, abs=0.01)
    rows = (out / "robustness.csv").read_text().strip().split("\n")
    assert rows[0] == "corruption,ce,rr"


def test_corrupt_command(tmp_path, tiny_dataset):
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": str(tiny_dataset), "kind": "range-cut",
                      "severity": 3, "split": "val"})
    out = tmp_path / "corrupted"
    assert main(["corrupt", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    bad = read_lpcd(out / "scans" / "val_000.lpcd")
    clean = read_lpcd(tiny_dataset / "scans" / "val_000.lpcd")
    assert bad.count < clean.count
    assert np.all(bad.depth() <= 20.0)
    assert (out / "sensors.json").exists()


def test_corrupt_unknown_kind_exit_2(tmp_path, tiny_dataset):
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": str(tiny_dataset), "kind": "snowstorm",
                      "severity": 1})
    assert main(["corrupt", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_full_cli_training_chain(tmp_path, tiny_dataset):
    """datagen artifacts feed pretrain -> cml -> probe -> sms -> eval."""
    run_doc = {"dataset": str(tiny_dataset), "seed": 2, "epochs": 1,
               "embed_dim": 8, "centroid_count": 8, "knn_k": 4,
               "probe_epochs": 2, "sms_epochs": 1}
    cfg = write_json(tmp_path / "run.json", run_doc)
    s1 = tmp_path / "s1"
    assert main(["pretrain", "--config", cfg, "--out", str(s1)]) == 0
    assert (s1 / "stage1_range.ckpt").exists()

    cml_doc = dict(run_doc, stage1_dir=str(s1))
    cml_cfg = write_json(tmp_path / "cml.json", cml_doc)
    cml_out = tmp_path / "cml"
    assert main(["cml", "--config", cml_cfg, "--out", str(cml_out)]) == 0
    results = json.loads((cml_out / "cml_results.json").read_text())
    assert results["experts_frozen"]

    probe_doc = dict(run_doc, checkpoint=str(cml_out / "cml_student.ckpt"))
    probe_cfg = write_json(tmp_path / "probe.json", probe_doc)
    probe_out = tmp_path / "probe"
    assert main(["probe", "--config", probe_cfg, "--out", str(probe_out)]) == 0
    summary = json.loads((probe_out / "probe_summary.json").read_text())
    assert summary["backbone_intact"] is True

    sms_doc = dict(run_doc, init={
        "voxel": str(cml_out / "cml_student.ckpt"),
        "range": str(s1 / "stage1_range.ckpt"),
        "point": str(s1 / "stage1_point.ckpt"),
    })
    sms_cfg = write_json(tmp_path / "sms.json", sms_doc)
    sms_out = tmp_path / "sms"
    assert main(["sms", "--config", sms_cfg, "--out", str(sms_out)]) == 0

    eval_doc = dict(run_doc, checkpoint=str(sms_out / "sms_model.ckpt"))
    eval_cfg = write_json(tmp_path / "eval.json", eval_doc)
    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", eval_cfg, "--out", str(eval_out)]) == 0
    assert (eval_out / "metrics_fused.csv").exists()
    assert (eval_out / "predictions.csv").exists()
    summary = json.loads((eval_out / "eval_summary.json").read_text())
    assert np.isfinite(summary["fused"])

    cm_doc = dict(run_doc, checkpoint=str(cml_out / "cml_student.ckpt"),
                  cloud=str(tiny_dataset / "scans" / "val_000.lpcd"),
                  query_id=0)
    cm_cfg = write_json(tmp_path / "cm.json", cm_doc)
    cm_out = tmp_path / "cm"
    assert main(["cosine-map", "--config", cm_cfg, "--out", str(cm_out)]) == 0
    rows = (cm_out / "cosine_map.csv").read_text().strip().split("\n")
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0)

    # the cosine map reads only the dataset's sensors.json
    sensors_only = tmp_path / "sensors_only"
    sensors_only.mkdir()
    shutil.copy(tiny_dataset / "sensors.json", sensors_only / "sensors.json")
    lone_cfg = write_json(tmp_path / "cm_lone.json",
                          dict(cm_doc, dataset=str(sensors_only)))
    assert main(["cosine-map", "--config", lone_cfg, "--out", str(tmp_path / "cm2")]) == 0
    assert (tmp_path / "cm2" / "cosine_map.csv").read_bytes() == \
        (cm_out / "cosine_map.csv").read_bytes()


@pytest.mark.parametrize("command,key", [
    ("pretrain", "epoch"), ("cml", "init"), ("sms", "stage1_dir"),
    ("probe", "pairs_csv"), ("eval", "representation"), ("cosine-map", "axis"),
    ("sms", "num_classes"),
])
def test_unknown_run_config_key_exit_2(tmp_path, tiny_dataset, capsys, command, key):
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": str(tiny_dataset), "epochs": 1, key: 5})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown {command} config key(s): {key}" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_temperature_exit_2(tmp_path, tiny_dataset, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": str(tiny_dataset), "epochs": 1, "temperature": 0})
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "temperature must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("epochs", "3"), ("centroid_count", 0),
                                       ("student_init", "pretrained"),
                                       ("contrastive_denominator", "none")])
def test_bad_run_config_value_exit_2(tmp_path, tiny_dataset, capsys, key, value):
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": str(tiny_dataset), "epochs": 1, key: value})
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_datagen_unknown_scene_key_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"scene": {"primitives": []}})
    assert main(["datagen", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown scene config key(s): primitives" in capsys.readouterr().err


def test_datagen_unknown_top_level_key_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"n_trian": 1, "n_val": 1})
    assert main(["datagen", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown datagen config key(s): n_trian" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ({"n_train": 1, "n_val": 0, "scene": {"n_boxes": "3"}},
     "scene config n_boxes must be int, got '3'"),
    ({"n_train": 1, "n_val": 0, "scene": {"x_bounds": 4}},
     "scene config x_bounds must be tuple, got 4"),
    ({"n_train": 1, "n_val": 0, "scene": {"n_poles": -1}},
     "scene config n_poles must be >= 0"),
    ({"n_train": 1, "n_val": 0, "scene": {"ground_half": -1}},
     "scene config ground_half must be > 0, got -1"),
    ({"n_train": 1.9, "n_val": 0}, "datagen config n_train must be int, got 1.9"),
    ({"n_train": 1, "n_val": 0, "max_range_m": "60"},
     "sensor config max_range_m must be float, got '60'"),
    ({"n_train": 1, "n_val": -1}, "datagen config n_val must be >= 0"),
    ({"n_train": 1, "n_val": 0, "fov_down_rad": 0.8},
     "sensor config fov_down_rad must be in (0, fov_total_rad)"),
    ({"n_train": 1, "n_val": 0, "range_h": 0}, "sensor config range_h must be >= 1"),
    ({"n_train": 1, "n_val": 0, "beam_count": 0}, "sensor config beam_count must be >= 1"),
    ({"n_train": 1, "n_val": 0, "max_range_m": -1.0}, "sensor config max_range_m must be > 0, got -1.0"),
    ({"n_train": 1, "n_val": 0,
      "cam_intrinsics": [[64.0, 0.0, 48.0], [1.0, 64.0, 32.0], [0.0, 0.0, 1.0]]},
     "intrinsics must be upper-triangular"),
    ({"n_train": 1, "n_val": 0,
      "cam_intrinsics": [[0.0, 0.0, 48.0], [0.0, 64.0, 32.0], [0.0, 0.0, 1.0]]},
     "focal lengths must be positive"),
    ({"n_train": 1, "n_val": 0,
      "cam_extrinsics": [[0.0, -2.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.2],
                         [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]},
     "camera config cam_extrinsics rotation block must be orthonormal"),
    ({"n_train": 1, "n_val": 0,
      "cam_extrinsics": [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.2],
                         [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]]},
     "extrinsics bottom row must be [0,0,0,1]"),
    ({"n_train": 1, "n_val": 0, "cam_w": 0}, "camera config cam_w must be >= 1"),
    ({"n_train": 1, "n_val": 0, "cam_intrinsics": [[64.0, 0.0], [0.0, 64.0]]},
     "camera config cam_intrinsics must be 3x3"),
])
def test_datagen_bad_value_exit_2(tmp_path, capsys, doc, message):
    cfg = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["datagen", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_interrupted_predictions_write_keeps_previous_file(tmp_path, tiny_dataset,
                                                          monkeypatch):
    run_doc = {"dataset": str(tiny_dataset), "seed": 2, "embed_dim": 8,
               "centroid_count": 8, "knn_k": 4, "sms_epochs": 1}
    assert main(["sms", "--config", write_json(tmp_path / "sms.json", run_doc),
                 "--out", str(tmp_path / "sms")]) == 0
    eval_doc = dict(run_doc, checkpoint=str(tmp_path / "sms" / "sms_model.ckpt"))
    out = tmp_path / "eval"
    train_cfg = write_json(tmp_path / "train.json", dict(eval_doc, split="train"))
    assert main(["eval", "--config", train_cfg, "--out", str(out)]) == 0
    path = out / "predictions.csv"
    before = path.read_bytes()
    real_replace = os.replace

    def interrupted_rename(src, dst):
        if os.path.basename(dst) != "predictions.csv":
            return real_replace(src, dst)
        # the new file is complete (one row per val point), but not yet
        # renamed over the old one
        rows = open(src, encoding="utf-8").read().splitlines()
        assert len(rows) == 1 + read_lpcd(tiny_dataset / "scans" / "val_000.lpcd").count
        raise RuntimeError("write interrupted")

    monkeypatch.setattr(os, "replace", interrupted_rename)
    val_cfg = write_json(tmp_path / "val.json", dict(eval_doc, split="val"))
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["eval", "--config", val_cfg, "--out", str(out)])
    assert path.read_bytes() == before
    assert not any(p.name.endswith(".tmp") for p in out.iterdir())


@pytest.mark.parametrize("command", ["eval", "cosine-map", "corrupt"])
@pytest.mark.parametrize("key,value,message", [
    ("beam_count", 32.7, "sensor config beam_count must be int, got 32.7"),
    ("range_h", "32", "sensor config range_h must be int, got '32'"),
    ("max_range_m", True, "sensor config max_range_m must be float, got True"),
    ("cam_w", 96.0, "camera config cam_w must be int, got 96.0"),
    ("cam_intrinsics", [["80", 0, 48], [0, 80, 32], [0, 0, 1]],
     "camera config cam_intrinsics must be matrix"),
    ("cam_extrinsics", [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "camera config cam_extrinsics must be 4x4"),
])
def test_mistyped_sensors_json_exit_2(tmp_path, tiny_dataset, capsys, command,
                                      key, value, message):
    """A hand-edited sensors.json is type-checked on read, not coerced, and
    corrupt checks it before its first write."""
    dataset = tmp_path / "ds"
    shutil.copytree(tiny_dataset, dataset)
    sensors = json.loads((dataset / "sensors.json").read_text())
    sensors[key] = value
    write_json(dataset / "sensors.json", sensors)
    # eval checks the checkpoint before it reads the dataset, so it is whole
    ckpt = tmp_path / "heads.ckpt"
    save_checkpoint(ckpt, _sms_shaped_store(8), {"student": "voxel"})
    doc = {"dataset": str(dataset), "checkpoint": str(ckpt)}
    if command == "cosine-map":
        doc.update(query_id=0, cloud=str(dataset / "scans" / "val_000.lpcd"))
    if command == "corrupt":
        doc = {"dataset": str(dataset), "kind": "jitter", "severity": 1}
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {dataset / 'sensors.json'}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_corrupt_copies_sensors_json_byte_for_byte(tmp_path, tiny_dataset):
    dataset = tmp_path / "ds"
    shutil.copytree(tiny_dataset, dataset)
    # compact JSON, unlike the indented form the package writes
    write_json(dataset / "sensors.json", json.loads((dataset / "sensors.json").read_text()))
    cfg = write_json(tmp_path / "cfg.json",
                     {"dataset": str(dataset), "kind": "jitter", "severity": 1})
    assert main(["corrupt", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sensors.json").read_bytes() == \
        (dataset / "sensors.json").read_bytes()


def test_eval_one_forward_per_scan_and_fused_predictions(small_dataset, tmp_path,
                                                         monkeypatch):
    from lidarmoe import autodiff as ad
    from lidarmoe.metrics import compute_miou
    run_doc = {"dataset": str(small_dataset), "seed": 2, "embed_dim": 8,
               "centroid_count": 8, "knn_k": 4, "sms_epochs": 1}
    sms_out = tmp_path / "sms"
    assert main(["sms", "--config", write_json(tmp_path / "sms.json", run_doc),
                 "--out", str(sms_out)]) == 0

    calls = []
    original = ad.evaluate

    def counting_evaluate(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ad, "evaluate", counting_evaluate)
    eval_doc = dict(run_doc, checkpoint=str(sms_out / "sms_model.ckpt"))
    out = tmp_path / "eval"
    assert main(["eval", "--config", write_json(tmp_path / "eval.json", eval_doc),
                 "--out", str(out)]) == 0
    manifest = json.loads((small_dataset / "manifest.json").read_text())
    val_scans = len(manifest["splits"]["val"])
    assert val_scans == 2
    assert len(calls) == val_scans

    rows = [r.split(",") for r in
            (out / "predictions.csv").read_text().strip().split("\n")[1:]]
    assert len({r[0] for r in rows}) == val_scans
    report = compute_miou(np.array([int(r[2]) for r in rows]),
                          np.array([int(r[3]) for r in rows]),
                          manifest["num_classes"])
    metrics = [r.split(",") for r in
               (out / "metrics_fused.csv").read_text().strip().split("\n")[1:]]
    assert [float(m[4]) if m[4] else None for m in metrics] \
        == [None if np.isnan(v) else float(v) for v in report.iou]
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["fused"] == report.miou


def _write_cloud(path, n=5):
    write_lpcd(path, PointCloud(np.ones((n, 3), np.float32), np.zeros(n),
                                np.zeros(n, np.int32), np.zeros(n, np.int32)))
    return str(path)


def _full_docs(tmp_path, dataset):
    """A complete config of each subcommand that reads required keys."""
    gates = tmp_path / "gates.csv"
    write_gate_csv(gates, np.ones((5, 3), np.float32) / 3)
    ious = {"beam": [60.0, 50.0, 40.0]}
    return {
        "corrupt": {"dataset": str(dataset), "kind": "jitter", "severity": 1},
        "route-stats": {"gates_csv": str(gates),
                        "cloud": _write_cloud(tmp_path / "scan.lpcd")},
        "cosine-map": {"query_id": 0, "checkpoint": str(tmp_path / "x.ckpt")},
        "report": {"model_ious": ious, "baseline_ious": ious, "clean_iou": 70.0},
    }


@pytest.mark.parametrize("command,key", [
    ("corrupt", "dataset"), ("corrupt", "kind"), ("corrupt", "severity"),
    ("route-stats", "gates_csv"), ("route-stats", "cloud"),
    ("cosine-map", "query_id"),
    ("report", "model_ious"), ("report", "baseline_ious"), ("report", "clean_iou"),
])
def test_missing_config_key_exit_2_naming_it(tmp_path, tiny_dataset, capsys,
                                             command, key):
    doc = _full_docs(tmp_path, tiny_dataset)[command]
    del doc[key]
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {command} config missing key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("corrupt", "sed"), ("corrupt", "splt"), ("corrupt", "epochs"),
    ("route-stats", "axes"), ("route-stats", "dataset"),
    ("report", "clean_iuo"), ("report", "seed"),
])
def test_unknown_key_of_a_plain_subcommand_exit_2(tmp_path, tiny_dataset, capsys,
                                                   command, key):
    """Subcommands without a run config reject misspelt keys and the run
    config fields alike."""
    doc = dict(_full_docs(tmp_path, tiny_dataset)[command], **{key: 5})
    out = tmp_path / "out"
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"unknown {command} config key(s): {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,want", [
    ("eval", "split", "vla", "train|val, got 'vla'"),
    ("eval", "split", 1, "str, got 1"),
    ("corrupt", "split", "trian", "train|val, got 'trian'"),
    ("corrupt", "kind", "fog", "beam-missing|jitter|range-cut, got 'fog'"),
    ("corrupt", "severity", 9, "1|2|3, got 9"),
    ("corrupt", "seed", -5, ">= 0, got -5"),
    ("probe", "representation", "mesh", "range|voxel|point, got 'mesh'"),
    ("probe", "random_baseline", "yes", "bool, got 'yes'"),
    ("cosine-map", "representation", "mesh", "range|voxel|point, got 'mesh'"),
    ("cosine-map", "query_id", -1, ">= 0, got -1"),
    ("route-stats", "axis", "colour", "beam|distance-bin|class, got 'colour'"),
])
def test_bad_choice_exit_2_naming_key_and_value(tmp_path, tiny_dataset, capsys,
                                                command, key, value, want):
    docs = _full_docs(tmp_path, tiny_dataset)
    docs["eval"] = {"dataset": str(tiny_dataset), "checkpoint": str(tmp_path / "x.ckpt")}
    docs["probe"] = {"dataset": str(tiny_dataset), "random_baseline": True}
    docs["cosine-map"]["cloud"] = docs["route-stats"]["cloud"]
    out = tmp_path / "out"
    cfg = write_json(tmp_path / "cfg.json", dict(docs[command], **{key: value}))
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {command} config {key} must be {want}" in capsys.readouterr().err
    assert not (out / "scans").exists()


def _docs_naming_missing_files(tmp_path):
    """A config document per subcommand with keys of its own, whose keys are
    well typed and whose every file or directory is missing."""
    missing = str(tmp_path / "missing")
    return {
        "cml": {"dataset": missing}, "sms": {"dataset": missing},
        "probe": {"dataset": missing}, "eval": {"dataset": missing},
        "corrupt": {"dataset": missing, "kind": "jitter", "severity": 1},
        "route-stats": {"gates_csv": missing, "cloud": missing},
        "cosine-map": {"dataset": missing, "query_id": 0},
        "report": {"model_ious": {}, "baseline_ious": {}, "clean_iou": 70.0},
    }


# a value of another JSON type per config key type
_MISTYPED = {"str": 5, "int": "1", "float": "70", "bool": "yes", "dict": [1],
             "numbers": "10"}


def _table_keys():
    from lidarmoe.cli import _COMMANDS
    return [(command, key, spec[0]) for command, (_, _, keys) in _COMMANDS.items()
            for key, spec in (keys or {}).items()]


@pytest.mark.parametrize("command,key,what", _table_keys())
def test_mistyped_key_exit_2_before_any_file_is_read(tmp_path, capsys, command, key, what):
    """Every key of a subcommand's row is type-checked before the handler
    starts, so a mistyped key is named even when no file of the document
    exists."""
    doc = dict(_docs_naming_missing_files(tmp_path)[command], **{key: _MISTYPED[what]})
    out = tmp_path / "out"
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {command} config {key} must be {what}, got {_MISTYPED[what]!r}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_train_split_writes_train_entries(tmp_path, tiny_dataset, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"dataset": str(tiny_dataset),
                                             "kind": "jitter", "severity": 1,
                                             "split": "train"})
    out = tmp_path / "out"
    assert main(["corrupt", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["scan"] for e in manifest["splits"]["train"]] == \
        ["scans/train_000.lpcd", "scans/train_001.lpcd"]
    assert manifest["splits"]["val"] == []
    # a bad kind or severity of the corrupted train split exits 2 naming the
    # key, writing nothing
    for bad, key in (({"kind": "fog"}, "kind"), ({"severity": 9}, "severity")):
        doc = dict({"dataset": str(out), "kind": "jitter", "severity": 1, "split": "train"},
                   **bad)
        again = tmp_path / "again"
        assert main(["corrupt", "--config", write_json(tmp_path / "bad.json", doc),
                     "--out", str(again)]) == 2
        assert f"error: corrupt config {key} must be" in capsys.readouterr().err
        assert not again.exists()


def _sms_shaped_store(embed_dim):
    """Every parameter of an sms checkpoint, each in its layer's shape, with
    an embedding head of ``embed_dim`` on each backbone."""
    store, rng = ParameterStore(), np.random.default_rng(5)
    for kind in REPRESENTATIONS:
        init_encoder_params(store, kind, embed_dim, rng)
        add_linear(store, f"{kind}.logit_head", trunk_width(kind), NUM_CLASSES, rng)
    init_moe_params(store, NUM_CLASSES, rng)
    return store


# (command, parameter, its wrong shape) of a checkpoint that command reads:
# a stage-1 checkpoint of that one backbone for probe, sms and cosine-map, all
# three for cml, and an sms checkpoint for eval (embed_dim 8, 6 classes)
_MISSHAPEN = {
    "probe range.conv1.b of (31,)": ("probe", "range.conv1.b", (31,)),
    "probe range.conv2.w of (288, 31)": ("probe", "range.conv2.w", (288, 31)),
    "probe range.head.w of (31, 8)": ("probe", "range.head.w", (31, 8)),
    "probe range.head.b of (7,)": ("probe", "range.head.b", (7,)),
    "probe voxel.mlp1.b of (31,)": ("probe", "voxel.mlp1.b", (31,)),
    "probe voxel.mlp2.w of (32, 31)": ("probe", "voxel.mlp2.w", (32, 31)),
    "eval range.conv1.b of (31,)": ("eval", "range.conv1.b", (31,)),
    "eval point.mlp.b of (31,)": ("eval", "point.mlp.b", (31,)),
    "eval voxel.logit_head.b of (5,)": ("eval", "voxel.logit_head.b", (5,)),
    "eval moe.fusion.b of (5,)": ("eval", "moe.fusion.b", (5,)),
    "eval moe.z_gate of (6, 2)": ("eval", "moe.z_gate", (6, 2)),
    "sms init range.conv1.b of (31,)": ("sms", "range.conv1.b", (31,)),
    "cml expert point.mlp.w of (4, 31)": ("cml", "point.mlp.w", (4, 31)),
    "cosine-map range.conv1.w of (45, 31)": ("cosine-map", "range.conv1.w", (45, 31)),
}


def _bad_input(case, tmp_path, dataset):
    """(command, config path, text stderr must hold) of one bad input."""
    run = {"dataset": str(dataset), "epochs": 1, "embed_dim": 8,
           "centroid_count": 8, "knn_k": 4}
    if case == "lpcd cut in header":
        cut = tmp_path / "cut.lpcd"
        cut.write_bytes((dataset / "scans" / "val_000.lpcd").read_bytes()[:10])
        gates = tmp_path / "gates.csv"
        write_gate_csv(gates, np.ones((5, 3), np.float32) / 3)
        doc = {"gates_csv": str(gates), "cloud": str(cut)}
        return "route-stats", write_json(tmp_path / "cfg.json", doc), f"truncated file {cut}"
    if case == "checkpoint cut at 12 bytes":
        ckpt = tmp_path / "cut.ckpt"
        save_checkpoint(ckpt, ParameterStore(), {})
        ckpt.write_bytes(ckpt.read_bytes()[:12])
        doc = dict(run, checkpoint=str(ckpt))
        return "eval", write_json(tmp_path / "cfg.json", doc), f"truncated file {ckpt}"
    if case in ("half-written camera npz", "manifest entry without scan"):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        cfg = write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy)))
        if case == "manifest entry without scan":
            manifest = json.loads((copy / "manifest.json").read_text())
            del manifest["splits"]["train"][1]["scan"]
            write_json(copy / "manifest.json", manifest)
            return "pretrain", cfg, f"manifest {copy / 'manifest.json'} train " \
                                    "entry missing key 'scan'"
        cam = copy / "cams" / "train_001.npz"
        cam.write_bytes(cam.read_bytes()[:cam.stat().st_size // 2])
        return "pretrain", cfg, f"corrupt camera file {cam}"
    if case == "config document [1]":
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        return "pretrain", str(cfg), f"{cfg} must hold a JSON object, got list"
    if case == "severity not an int":
        doc = {"dataset": str(dataset), "kind": "jitter", "severity": "x"}
        return "corrupt", write_json(tmp_path / "cfg.json", doc), \
            "corrupt config severity must be int, got 'x'"
    if case == "severity as a string number":
        doc = {"dataset": str(dataset), "kind": "jitter", "severity": "2"}
        return "corrupt", write_json(tmp_path / "cfg.json", doc), \
            "corrupt config severity must be int, got '2'"
    if case == "report clean_iou not a number":
        ious = {"beam": [60.0, 50.0, 40.0]}
        doc = {"model_ious": ious, "baseline_ious": ious, "clean_iou": "70"}
        return "report", write_json(tmp_path / "cfg.json", doc), \
            "report config clean_iou must be float, got '70'"
    if case.startswith("manifest "):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        path = copy / "manifest.json"
        manifest = json.loads(path.read_text())
        if case == "manifest camera 5":
            manifest["splits"]["train"][0]["camera"] = 5
            want = f"manifest {path} train entry camera must be str or null, got 5"
        elif case == "manifest annotation_fraction -3":
            manifest["annotation_fraction"] = -3
            want = f"manifest {path} annotation_fraction must be in (0, 1], got -3"
        elif case in ("manifest num_classes 0", "manifest num_classes -3"):
            manifest["num_classes"] = int(case.split()[-1])
            want = f"manifest {path} num_classes must be >= 1, got {case.split()[-1]}"
        else:
            manifest["num_classes"] = 3
            top = read_lpcd(copy / "scans" / "train_000.lpcd").label.max()
            want = f"scan {copy / 'scans' / 'train_000.lpcd'} has label {top}, " \
                   "but num_classes is 3"
        write_json(path, manifest)
        return "sms", write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy))), want
    if case in ("pairs class 7 of 6", "pairs num_classes -2"):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("prediction,label\n1,1\n7,7\n")
        if case == "pairs num_classes -2":
            doc = {"pairs_csv": str(pairs), "num_classes": -2}
            return "eval", write_json(tmp_path / "cfg.json", doc), \
                "eval config num_classes must be >= 1, got -2"
        # the first row outside [0, num_classes) is (7, 7)
        doc = {"pairs_csv": str(pairs), "num_classes": 6}
        return "eval", write_json(tmp_path / "cfg.json", doc), \
            "class ids must be in [0, num_classes=6), got prediction 7 for label 7"
    if case == "scan label -2":
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        scan = copy / "scans" / "train_001.lpcd"
        cloud = read_lpcd(scan)
        cloud.label[3] = -2
        write_lpcd(scan, cloud)
        return "sms", write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy))), \
            f"scan {scan} has label -2, below -1 (unlabeled)"
    if case == "NaN gate score":
        cloud = dataset / "scans" / "val_000.lpcd"
        scores = np.full((read_lpcd(cloud).count, 3), 1 / 3, np.float32)
        scores[1, 0] = np.nan
        gates = tmp_path / "gates.csv"
        write_gate_csv(gates, scores)
        doc = {"gates_csv": str(gates), "cloud": str(cloud)}
        return "route-stats", write_json(tmp_path / "cfg.json", doc), \
            f"{gates}: non-finite value"
    if case in ("gate alpha -5", "gate row summing to 1.5"):
        cloud = dataset / "scans" / "val_000.lpcd"
        scores = np.full((read_lpcd(cloud).count, 3), 1 / 3, np.float32)
        if case == "gate alpha -5":
            scores[:, 0] = -5.0
            row = 0
        else:
            scores[2] = [0.5, 0.5, 0.5]
            row = 2
        gates = tmp_path / "gates.csv"
        write_gate_csv(gates, scores)
        doc = {"gates_csv": str(gates), "cloud": str(cloud)}
        return "route-stats", write_json(tmp_path / "cfg.json", doc), \
            f"{gates}: row {row} is not convex gate weights"
    if case == "gates of 1 row for the whole cloud":
        cloud = dataset / "scans" / "val_000.lpcd"
        doc = {"gates_csv": _write_gates(tmp_path, 1), "cloud": str(cloud)}
        return "route-stats", write_json(tmp_path / "cfg.json", doc), \
            f"{doc['gates_csv']}: 1 rows for a cloud of {read_lpcd(cloud).count} points " \
            f"({cloud})"
    if case == "cosine-map features file empty":
        path = tmp_path / "feats.csv"
        path.write_text("")
        doc = {"features_csv": str(path), "query_id": 0}
        return "cosine-map", write_json(tmp_path / "cfg.json", doc), f"{path}: no feature row"
    if case == "cosine-map query_id past the last row":
        doc = {"features_csv": _write_features(tmp_path, 4), "query_id": 7}
        return "cosine-map", write_json(tmp_path / "cfg.json", doc), \
            "cosine-map config query_id must be < 4 (feature rows), got 7"
    if case.startswith("cosine-map features"):
        cloud = dataset / "scans" / "val_000.lpcd"
        count = read_lpcd(cloud).count
        feats = np.ones((3 if case.endswith("3 rows") else count, 2))
        feats[0, 1] = np.inf if case.endswith("inf") else 1.0
        path = tmp_path / "feats.csv"
        np.savetxt(path, feats, delimiter=",")
        doc = {"features_csv": str(path), "cloud": str(cloud), "query_id": 0}
        want = "3 rows for a cloud of {} points".format(count) \
            if case.endswith("3 rows") else "non-finite value"
        return "cosine-map", write_json(tmp_path / "cfg.json", doc), f"{path}: {want}"
    if case == "malformed pairs CSV row":
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("prediction,label\n1,1\n2\n")
        return "eval", write_json(tmp_path / "cfg.json", {"pairs_csv": str(pairs)}), \
            f"{pairs}: "
    if case.startswith("pairs CSV "):
        pairs = tmp_path / "pairs.csv"
        text, want = {
            "pairs CSV header pred,label": ("pred,label\n1,1\n",
                                            f"{pairs}: first line must be prediction,label"),
            "pairs CSV of three fields": ("prediction,label\n1,1,1\n",
                                          f"{pairs}: 3 fields per row, want 2"),
            "pairs CSV labels all -1": ("prediction,label\n1,-1\n2,-1\n",
                                        f"{pairs}: every label is -1 (unlabeled)"),
        }[case]
        pairs.write_text(text)
        return "eval", write_json(tmp_path / "cfg.json", {"pairs_csv": str(pairs)}), want
    if case.endswith("with neither source"):
        command = case.split()[0]
        want = {"cml": "cml config needs expert_ckpts or stage1_dir",
                "probe": "probe config needs checkpoint or random_baseline",
                "eval": "eval config needs checkpoint or pairs_csv",
                "cosine-map": "cosine-map config needs features_csv or checkpoint"}[command]
        doc = dict(run, query_id=0) if command == "cosine-map" else run
        return command, write_json(tmp_path / "cfg.json", doc), want
    if case.endswith("with both sources"):
        # every file is missing: the two sources are rejected before any is read
        command = case.split()[0]
        a, b = {"cml": ("expert_ckpts", "stage1_dir"), "probe": ("checkpoint", "random_baseline"),
                "eval": ("checkpoint", "pairs_csv"),
                "cosine-map": ("features_csv", "checkpoint")}[command]
        missing = str(tmp_path / "missing")
        given = {"expert_ckpts": {"range": missing}, "random_baseline": True}
        doc = dict(_docs_naming_missing_files(tmp_path)[command],
                   **{k: given.get(k, missing) for k in (a, b)})
        return command, write_json(tmp_path / "cfg.json", doc), \
            f"{command} config takes {a} or {b}, not both"
    if case in ("sms init of a misspelt kind", "sms init of an empty path"):
        # at a zero-epoch sms on a real dataset, so that only the map is wrong
        init, want = {"sms init of a misspelt kind": (
            {"rnage": str(tmp_path / "missing")}, "unknown sms config init key(s): rnage"),
            "sms init of an empty path": (
                {"range": ""}, "sms config init range must be a non-empty path, got ''")}[case]
        return "sms", write_json(tmp_path / "cfg.json", dict(run, sms_epochs=0, init=init)), \
            want
    if case in ("sms init lacking range.conv2", "cml expert lacking range.conv2"):
        # the one bad parameter set is checked before any file is written
        ckpts = {}
        for kind in ("range", "voxel", "point"):
            store = ParameterStore()
            init_encoder_params(store, kind, run["embed_dim"], np.random.default_rng(5))
            if kind == "range":
                stripped = ParameterStore()
                for name in store.names():
                    if not name.startswith("range.conv2."):
                        stripped.add(name, store.get(name))
                store = stripped
            ckpts[kind] = str(tmp_path / f"{kind}.ckpt")
            save_checkpoint(ckpts[kind], store, {})
        doc = dict(run, init={"range": ckpts["range"]}) if case.startswith("sms") \
            else dict(run, expert_ckpts=ckpts)
        return case.split()[0], write_json(tmp_path / "cfg.json", doc), \
            f"checkpoint {ckpts['range']} lacks parameter range.conv2.w"
    if case == "eval voxel_size 1e-9":
        # voxels this small give keys past int64; eval builds its views
        # before its first write
        ckpt = tmp_path / "heads.ckpt"
        save_checkpoint(ckpt, _sms_shaped_store(run["embed_dim"]), {})
        doc = dict(run, checkpoint=str(ckpt), voxel_size=[1e-9, 1e-9, 1e-9])
        return "eval", write_json(tmp_path / "cfg.json", doc), \
            "voxel_size [1e-09, 1e-09, 1e-09]: voxel coordinate range too large for int64 keys"
    if case in _MISSHAPEN:
        # one parameter of an otherwise whole checkpoint has the wrong shape
        command, name, shape = _MISSHAPEN[case]
        if command == "eval":
            store = _sms_shaped_store(run["embed_dim"])
        else:
            store = ParameterStore()
            for kind in REPRESENTATIONS if command == "cml" else (name.split(".")[0],):
                init_encoder_params(store, kind, run["embed_dim"], np.random.default_rng(5))
        want = store.get(name).shape
        bad = ParameterStore()
        for key in store.names():
            bad.add(key, np.zeros(shape, np.float32) if key == name else store.get(key))
        ckpt = str(tmp_path / "bad.ckpt")
        save_checkpoint(ckpt, bad, {})
        doc = {"sms": dict(run, init={"range": ckpt}),
               "cml": dict(run, expert_ckpts={k: ckpt for k in REPRESENTATIONS}),
               "cosine-map": dict(run, checkpoint=ckpt, query_id=0,
                                  cloud=str(dataset / "scans" / "val_000.lpcd"))
               }.get(command, dict(run, checkpoint=ckpt))
        return command, write_json(tmp_path / "cfg.json", doc), \
            f"checkpoint {ckpt} parameter {name} has shape {shape}, want {want}"
    if case == "cml expert_ckpts of an extra kind":
        # every checkpoint is missing: the map is checked before any is read
        ckpts = {k: str(tmp_path / "missing") for k in ("range", "voxel", "point", "camera")}
        return "cml", write_json(tmp_path / "cfg.json", dict(run, expert_ckpts=ckpts)), \
            "unknown cml config expert_ckpts key(s): camera"
    if case.endswith("mode with epochs -1"):
        # a mode that reads no run config key still checks the run config
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("prediction,label\n1,1\n")
        command, doc = {
            "pairs_csv mode with epochs -1": ("eval", {"pairs_csv": str(pairs)}),
            "features_csv mode with epochs -1": (
                "cosine-map", {"features_csv": _write_features(tmp_path, 2), "query_id": 0}),
        }[case]
        return command, write_json(tmp_path / "cfg.json", dict(doc, epochs=-1)), \
            "run config epochs must be >= 0, got -1"
    if case == "eval given no --config":
        return "eval", None, "eval config needs checkpoint or pairs_csv"
    if case == "cosine-map checkpoint without cloud":
        ckpt = tmp_path / "empty.ckpt"
        save_checkpoint(ckpt, ParameterStore(), {})
        doc = dict(run, checkpoint=str(ckpt), query_id=0)
        return "cosine-map", write_json(tmp_path / "cfg.json", doc), \
            "cosine-map from a checkpoint needs a cloud"
    if case == "lpcd version 2":
        scan = tmp_path / "v2.lpcd"
        raw = bytearray((dataset / "scans" / "val_000.lpcd").read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        scan.write_bytes(bytes(raw))
        gates = tmp_path / "gates.csv"
        write_gate_csv(gates, np.ones((5, 3), np.float32) / 3)
        doc = {"gates_csv": str(gates), "cloud": str(scan)}
        return "route-stats", write_json(tmp_path / "cfg.json", doc), \
            f"unsupported LPCD version 2 in {scan}"
    if case.startswith("checkpoint manifest"):
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, ParameterStore(), {})
        raw = ckpt.read_bytes()
        if case == "checkpoint manifest dtype f16":
            assert raw.count(b'"f32"') == 1
            ckpt.write_bytes(raw.replace(b'"f32"', b'"f16"'))
            want = f"unsupported dtype tag in {ckpt}"
        else:
            blob = b"not json"
            ckpt.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob)
            want = f"corrupt manifest in {ckpt}"
        doc = dict(run, checkpoint=str(ckpt))
        return "eval", write_json(tmp_path / "cfg.json", doc), want
    if case in ("corrupt of a truncated second scan", "corrupt without sensors.json"):
        # corrupt reads every input before its first write: no half-dataset
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        doc = {"dataset": str(copy), "kind": "jitter", "severity": 1, "split": "train"}
        if case == "corrupt without sensors.json":
            (copy / "sensors.json").unlink()
            want = f"[Errno 2] No such file or directory: '{copy / 'sensors.json'}'"
        else:
            scan = copy / "scans" / "train_001.lpcd"
            scan.write_bytes(scan.read_bytes()[:100])
            want = f"truncated file {scan}"
        return "corrupt", write_json(tmp_path / "cfg.json", doc), want
    if case == "corrupt of an empty val split":
        empty = tmp_path / "ds"
        assert main(["datagen", "--config", write_json(tmp_path / "gen.json",
                                                       {"n_train": 1, "n_val": 0}),
                     "--out", str(empty)]) == 0
        doc = {"dataset": str(empty), "kind": "jitter", "severity": 1, "split": "val"}
        return "corrupt", write_json(tmp_path / "cfg.json", doc), \
            f"dataset {empty} has an empty val split"
    if case == "corrupt severity 4":
        doc = {"dataset": str(dataset), "kind": "jitter", "severity": 4}
        return "corrupt", write_json(tmp_path / "cfg.json", doc), \
            "corrupt config severity must be 1|2|3, got 4"
    route = {
        "decreasing distance_edges": ({"axis": "distance-bin", "distance_edges": [10.0, 5.0]},
                                      "distance_edges must be increasing"),
        "distance_edges past every point": ({"axis": "distance-bin", "distance_edges": [500.0]},
                                            "no point falls in any distance-bin bucket"),
        "class axis of an unlabeled cloud": ({"axis": "class"},
                                             "no point falls in any class bucket"),
    }
    if case in route:
        doc, want = route[case]
        cloud = dataset / "scans" / "val_000.lpcd"
        if case == "class axis of an unlabeled cloud":
            unlabeled = read_lpcd(cloud)
            unlabeled.label[:] = -1
            cloud = tmp_path / "unlabeled.lpcd"
            write_lpcd(cloud, unlabeled)
        doc.update(gates_csv=_write_gates(tmp_path, read_lpcd(cloud).count), cloud=str(cloud))
        return "route-stats", write_json(tmp_path / "cfg.json", doc), \
            f"route-stats of {cloud}: {want}"
    if case.startswith("report "):
        ious = {"beam": [60.0, 50.0, 40.0]}
        doc, want = {
            "report clean_iou 0": ({"model_ious": ious, "baseline_ious": ious, "clean_iou": 0.0},
                                   "report config clean_iou must be in (0, 100], got 0.0"),
            "report clean_iou 500": (
                {"model_ious": ious, "baseline_ious": ious, "clean_iou": 500.0},
                "report config clean_iou must be in (0, 100], got 500.0"),
            "report of no corruption": (
                {"model_ious": {}, "baseline_ious": {}, "clean_iou": 50.0},
                "model_ious and baseline_ious name no corruption"),
            "report baseline IoU -500": (
                {"model_ious": ious, "baseline_ious": {"beam": [-500.0, 100.0, 100.0]},
                 "clean_iou": 70.0}, "corruption beam has an IoU outside [0, 100]"),
            "report model IoU 100.5": (
                {"model_ious": {"beam": [100.5, 50.0, 40.0]}, "baseline_ious": ious,
                 "clean_iou": 70.0}, "corruption beam has an IoU outside [0, 100]"),
            "report corruption sets differ": (
                {"model_ious": ious, "baseline_ious": {"fog": [60.0, 50.0, 40.0]},
                 "clean_iou": 70.0}, "model and baseline corruption sets disagree"),
            "report two severities": (
                {"model_ious": {"beam": [60.0, 50.0]}, "baseline_ious": {"beam": [6.0, 5.0]},
                 "clean_iou": 70.0}, "corruption beam needs exactly three severity IoUs"),
        }[case]
        return "report", write_json(tmp_path / "cfg.json", doc), want
    if case.endswith("point at the sensor origin"):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        scan = copy / "scans" / "val_000.lpcd"
        cloud = read_lpcd(scan)
        cloud.xyz[0] = 0.0
        write_lpcd(scan, cloud)
        if case.startswith("cosine-map"):
            store = ParameterStore()
            init_encoder_params(store, "range", run["embed_dim"], np.random.default_rng(5))
            save_checkpoint(tmp_path / "range.ckpt", store, {})
            doc = dict(run, checkpoint=str(tmp_path / "range.ckpt"), cloud=str(scan),
                       query_id=0)
            return "cosine-map", write_json(tmp_path / "cfg.json", doc), \
                f"cloud {scan} has point 0 at the sensor origin"
        doc = dict(run, dataset=str(copy), sms_epochs=0)
        return "sms", write_json(tmp_path / "cfg.json", doc), \
            f"scan {scan} has point 0 at the sensor origin"
    if case == "train and val x NaN":
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        for split in ("train", "val"):
            scan = copy / "scans" / f"{split}_000.lpcd"
            cloud = read_lpcd(scan)
            cloud.xyz[3, 0] = np.nan
            write_lpcd(scan, cloud)
        doc = dict(run, dataset=str(copy), sms_epochs=0)
        return "sms", write_json(tmp_path / "cfg.json", doc), \
            f"{copy / 'scans' / 'train_000.lpcd'}: record 3 has x nan, want a finite number"
    if case == "two train scans of one stem":
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        (copy / "other").mkdir()
        shutil.copy(copy / "scans" / "train_001.lpcd", copy / "other" / "train_000.lpcd")
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["splits"]["train"][1]["scan"] = "other/train_000.lpcd"
        write_json(copy / "manifest.json", manifest)
        return "pretrain", write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy))), \
            f"manifest {copy / 'manifest.json'} train lists two scans named train_000"
    if case == "val scan name with a comma":
        # its predictions.csv rows would gain a field
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        (copy / "scans" / "val_000.lpcd").rename(copy / "scans" / "val,000.lpcd")
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["splits"]["val"][0]["scan"] = "scans/val,000.lpcd"
        write_json(copy / "manifest.json", manifest)
        return "pretrain", write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy))), \
            (f"manifest {copy / 'manifest.json'} val entry 0: scan name 'val,000' holds "
             "a comma, a double quote or a line break")
    if case.startswith("camera "):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        cam = copy / "cams" / "train_000.npz"
        render = read_camera_npz(cam)
        sensors = json.loads((copy / "sensors.json").read_text())
        shape = (sensors["cam_h"], sensors["cam_w"])
        class_id, depth, superpixels = render.class_id.copy(), render.depth, render.superpixel
        if case.endswith("of float ids"):
            # written past write_camera_npz, which would cast the ids back to int32
            arrays = {"class_id": class_id, "depth": depth, "superpixel": superpixels}
            name = case.split()[1]
            arrays[name] = arrays[name] + 0.5
            np.savez(cam, **arrays)
            return "pretrain", write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy))), \
                f"{cam}: {name} has dtype float64, want an integer one"
        if case == "camera render cut to 40 rows":
            class_id, depth, superpixels = class_id[:40], depth[:40], superpixels[:40]
            want = f"class_id has shape {(40, shape[1])}, want {shape}"
        elif case == "camera superpixel -5":
            superpixels = superpixels.copy()
            superpixels[3, 4] = -5
            want = f"superpixel has value -5, want one in [0, {shape[0] * shape[1]})"
        else:
            class_id[3, 4] = 9
            want = "class_id has value 9, want one in [-1, 6)"
        write_camera_npz(cam, CameraRender(class_id, depth, superpixels))
        return "pretrain", write_json(tmp_path / "cfg.json", dict(run, dataset=str(copy))), \
            f"{cam}: {want}"
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "lpcd cut in header", "checkpoint cut at 12 bytes", "half-written camera npz",
    "manifest entry without scan", "config document [1]", "severity not an int",
    "severity as a string number", "report clean_iou not a number",
    "malformed pairs CSV row", "manifest camera 5", "manifest annotation_fraction -3",
    "manifest num_classes below the labels", "manifest num_classes 0",
    "manifest num_classes -3", "pairs class 7 of 6",
    "pairs num_classes -2", "scan label -2", "NaN gate score", "gate alpha -5",
    "gate row summing to 1.5", "gates of 1 row for the whole cloud",
    "cosine-map query_id past the last row", "cosine-map features of 3 rows",
    "cosine-map features with inf", "cosine-map features file empty",
    "pairs CSV header pred,label", "pairs CSV of three fields", "pairs CSV labels all -1",
    "cml with neither source", "probe with neither source", "eval with neither source",
    "cosine-map with neither source",
    "cml with both sources", "probe with both sources", "eval with both sources",
    "cosine-map with both sources", "pairs_csv mode with epochs -1",
    "features_csv mode with epochs -1", "sms init of a misspelt kind",
    "sms init of an empty path", "cml expert_ckpts of an extra kind",
    "sms init lacking range.conv2", "cml expert lacking range.conv2",
    "eval given no --config", "cosine-map checkpoint without cloud", "lpcd version 2",
    "checkpoint manifest dtype f16", "checkpoint manifest not JSON", "corrupt severity 4",
    "corrupt of a truncated second scan", "corrupt without sensors.json",
    "decreasing distance_edges", "distance_edges past every point",
    "corrupt of an empty val split",
    "class axis of an unlabeled cloud", "report clean_iou 0", "report clean_iou 500",
    "report corruption sets differ", "report two severities", "report of no corruption",
    "report baseline IoU -500", "report model IoU 100.5",
    "val point at the sensor origin", "cosine-map cloud point at the sensor origin",
    "camera render cut to 40 rows",
    "camera superpixel -5", "camera class_id 9", "camera superpixel of float ids",
    "camera class_id of float ids", "train and val x NaN", "two train scans of one stem",
    "val scan name with a comma", "eval voxel_size 1e-9", *_MISSHAPEN,
])
@pytest.mark.filterwarnings("error::UserWarning")
def test_bad_input_exit_2_naming_file_or_key(tmp_path, tiny_dataset, capsys, case):
    command, cfg, message = _bad_input(case, tmp_path, tiny_dataset)
    config = [] if cfg is None else ["--config", cfg]
    assert main([command, *config, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _rejected_input(command, tmp_path, dataset):
    """(config document, text stderr must hold) of one input ``command``
    rejects before its first write."""
    run = {"dataset": str(dataset), "epochs": 1, "embed_dim": 8,
           "centroid_count": 8, "knn_k": 4}
    missing = str(tmp_path / "missing")
    cloud = str(dataset / "scans" / "val_000.lpcd")
    ious = {"beam": [60.0, 50.0, 40.0]}
    return {
        "datagen": ({"n_train": 1, "n_val": -1}, "datagen config n_val must be >= 0"),
        "pretrain": (dict(run, dataset=missing), missing),
        "cml": (dict(run, stage1_dir=missing), missing),
        "sms": (dict(run, dataset=missing), missing),
        "probe": (dict(run, checkpoint=missing), missing),
        "eval": (dict(run, checkpoint=missing), missing),
        "corrupt": ({"dataset": missing, "kind": "jitter", "severity": 1}, missing),
        "route-stats": ({"gates_csv": _write_gates(tmp_path, 1), "cloud": cloud},
                        "1 rows for a cloud of"),
        "cosine-map": ({"features_csv": _write_features(tmp_path, 2), "query_id": 2},
                       "query_id must be < 2 (feature rows), got 2"),
        "report": ({"model_ious": ious, "baseline_ious": ious, "clean_iou": 0.0},
                   "clean_iou must be in (0, 100]"),
    }[command]


def _write_features(tmp_path, rows):
    path = tmp_path / "feats.csv"
    np.savetxt(path, np.ones((rows, 2)), delimiter=",")
    return str(path)


def _write_gates(tmp_path, rows):
    path = tmp_path / "gates.csv"
    write_gate_csv(path, np.full((rows, 3), 1 / 3, np.float32))
    return str(path)


@pytest.mark.parametrize("command", ["datagen", "pretrain", "cml", "sms", "probe", "eval",
                                     "corrupt", "route-stats", "cosine-map", "report"])
def test_rejected_input_writes_no_out(tmp_path, tiny_dataset, capsys, command):
    """A command that fails before its first write leaves no ``--out``."""
    doc, message = _rejected_input(command, tmp_path, tiny_dataset)
    out = tmp_path / "out" / "sub"
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_naming_a_file_exit_2_before_any_work(tmp_path, capsys):
    """An ``--out`` that is an existing file is rejected before the config
    is read, not at the first write after training."""
    out = tmp_path / "out.txt"
    out.write_text("kept")
    assert main(["pretrain", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 2
    assert f"error: --out {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "kept"


@pytest.mark.parametrize("below", ["run", "a/b"])
def test_out_below_a_file_exit_2_before_the_handler(tmp_path, tiny_dataset, capsys,
                                                    monkeypatch, below):
    """An ``--out`` whose nearest existing ancestor is a file is rejected
    before the subcommand's handler runs, naming that file, not at the
    first write after training."""
    import lidarmoe.cli as cli
    calls = []
    monkeypatch.setattr(cli, "stage1_pretrain", lambda *args: calls.append(args) or {})
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / below
    cfg = write_json(tmp_path / "cfg.json", {"dataset": str(tiny_dataset), "epochs": 1})
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert f"error: --out {out} lies below {afile}, which exists and is not a directory" \
        in capsys.readouterr().err
    assert afile.read_text() == "kept"


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_corrupt_onto_its_own_dataset_exit_2_before_any_write(tmp_path, tiny_dataset,
                                                              capsys, spelling):
    """A corrupt whose ``--out`` resolves to the dataset it reads exits 2
    naming both paths, and leaves the dataset's manifest as it was."""
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    manifest = (ds / "manifest.json").read_bytes()
    out = ds if spelling == "same" else ds / "scans" / ".."
    cfg = write_json(tmp_path / "cfg.json", {"dataset": str(ds), "kind": "jitter",
                                             "severity": 1})
    assert main(["corrupt", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: corrupt --out {out} is the dataset {ds} it reads" \
        in capsys.readouterr().err
    assert (ds / "manifest.json").read_bytes() == manifest


def test_probe_trains_on_the_labeled_scans_that_sms_accepts(tmp_path, tiny_dataset):
    """A train scan whose labels are all -1 is skipped by the probe as by
    SMS: one probe step per epoch for each of the other train scans."""
    data = tmp_path / "ds"
    shutil.copytree(tiny_dataset, data)
    scans = sorted((data / "scans").glob("train_*.lpcd"))
    cloud = read_lpcd(scans[0])
    cloud.label[:] = -1
    write_lpcd(scans[0], cloud)
    run = {"dataset": str(data), "epochs": 1, "embed_dim": 8, "centroid_count": 8,
           "knn_k": 4, "sms_epochs": 1, "probe_epochs": 2}
    assert main(["sms", "--config", write_json(tmp_path / "sms.json", run),
                 "--out", str(tmp_path / "sms")]) == 0
    doc = dict(run, random_baseline=True, representation="range")
    assert main(["probe", "--config", write_json(tmp_path / "probe.json", doc),
                 "--out", str(tmp_path / "probe")]) == 0
    rows = (tmp_path / "probe" / "probe_range_log.csv").read_text().splitlines()[1:]
    assert sum(r.split(",")[2] == "loss" for r in rows) == 2 * (len(scans) - 1)


def test_seed_flag_overrides_the_run_config_seed(tmp_path, tiny_dataset):
    """``--seed 3`` over a config seed of 0 writes the bytes of a run whose
    config sets seed 3."""
    run = {"dataset": str(tiny_dataset), "epochs": 1, "embed_dim": 8,
           "centroid_count": 8, "knn_k": 4}
    flag, config = tmp_path / "flag", tmp_path / "config"
    assert main(["pretrain", "--config", write_json(tmp_path / "a.json", dict(run, seed=0)),
                 "--seed", "3", "--out", str(flag)]) == 0
    assert main(["pretrain", "--config", write_json(tmp_path / "b.json", dict(run, seed=3)),
                 "--out", str(config)]) == 0
    for kind in ("range", "voxel", "point"):
        name = f"stage1_{kind}.ckpt"
        assert (flag / name).read_bytes() == (config / name).read_bytes()


def test_internal_key_error_is_not_a_data_error(tmp_path, monkeypatch):
    """A bug that raises KeyError inside a subcommand ends in a traceback,
    not in exit code 2."""
    import lidarmoe.cli as cli

    def buggy(*args):
        return {}["mce"]

    monkeypatch.setattr(cli, "compute_mce_mrr", buggy)
    ious = {"beam": [60.0, 50.0, 40.0]}
    cfg = write_json(tmp_path / "cfg.json", {"model_ious": ious, "baseline_ious": ious,
                                             "clean_iou": 70.0})
    with pytest.raises(KeyError, match="mce"):
        main(["report", "--config", cfg, "--out", str(tmp_path / "out")])


# two pretrain runs in one process, each printing its minor page faults
_PRETRAIN_FAULTS = """
import resource, sys
from lidarmoe.cli import main
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["pretrain", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's malloc thresholds")
def test_cli_reuses_freed_memory_instead_of_faulting_it_in(tmp_path, tiny_dataset):
    """Under the CLI, glibc keeps freed arrays on the heap: the second of
    two pretrain runs in a fresh process faults in almost no new pages
    (about 6k under glibc's default thresholds)."""
    run = {"dataset": str(tiny_dataset), "seed": 1, "epochs": 2, "embed_dim": 16,
           "centroid_count": 16, "knn_k": 8}
    cfg = write_json(tmp_path / "cfg.json", run)
    env = dict(os.environ, PYTHONPATH=str(Path(lidarmoe.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _PRETRAIN_FAULTS, cfg, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second < 500, (first, second)


def test_cli_runs_without_mallopt(tmp_path, monkeypatch):
    """Where the C library has no mallopt, the CLI runs as usual."""
    import lidarmoe.cli as cli
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("prediction,label\n1,1\n2,2\n")
    cfg = write_json(tmp_path / "cfg.json", {"pairs_csv": str(pairs)})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "eval_summary.json").exists()


def test_cli_sets_the_heap_thresholds(tmp_path, monkeypatch):
    """main sets M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD, through the C
    library's mallopt, and no other mallopt parameter."""
    import lidarmoe.cli as cli
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("prediction,label\n1,1\n2,2\n")
    cfg = write_json(tmp_path / "cfg.json", {"pairs_csv": str(pairs)})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(-3, 32 << 20), (-1, 256 << 20)]


@pytest.fixture(scope="module")
def zero_epoch_ckpts(tiny_dataset, tmp_path_factory):
    """Untrained stage-1 and SMS checkpoints written by the CLI, and their
    run config."""
    root = tmp_path_factory.mktemp("zero_epoch")
    run = {"dataset": str(tiny_dataset), "epochs": 0, "sms_epochs": 0, "embed_dim": 8,
           "centroid_count": 8, "knn_k": 4}
    assert main(["pretrain", "--config", write_json(root / "s1.json", run),
                 "--out", str(root / "s1")]) == 0
    assert main(["sms", "--config", write_json(root / "sms.json", run),
                 "--out", str(root / "sms")]) == 0
    cml = dict(run, stage1_dir=str(root / "s1"))
    assert main(["cml", "--config", write_json(root / "cml.json", cml),
                 "--out", str(root / "cml")]) == 0
    return {"run": run, "stage1_point": str(root / "s1" / "stage1_point.ckpt"),
            "stage1_range": str(root / "s1" / "stage1_range.ckpt"),
            "cml": str(root / "cml" / "cml_student.ckpt"),
            "sms": str(root / "sms" / "sms_model.ckpt")}


def test_cosine_map_reads_the_backbone_of_a_stage1_checkpoint(tmp_path, tiny_dataset,
                                                              zero_epoch_ckpts):
    doc = dict(zero_epoch_ckpts["run"], checkpoint=zero_epoch_ckpts["stage1_point"],
               cloud=str(tiny_dataset / "scans" / "val_000.lpcd"), query_id=0)
    out = tmp_path / "out"
    assert main(["cosine-map", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 0
    assert (out / "cosine_map.csv").exists()


@pytest.mark.parametrize("command", ["probe", "cosine-map"])
def test_checkpoint_with_three_backbones_needs_a_representation(
        tmp_path, tiny_dataset, zero_epoch_ckpts, capsys, command):
    ckpt = zero_epoch_ckpts["sms"]
    doc = dict(zero_epoch_ckpts["run"], checkpoint=ckpt,
               cloud=str(tiny_dataset / "scans" / "val_000.lpcd"), query_id=0)
    if command == "probe":
        del doc["cloud"], doc["query_id"]
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: checkpoint {ckpt} holds 3 backbones (range, voxel, point); " \
        "set representation to pick one" in capsys.readouterr().err


def test_sms_init_checkpoint_without_that_backbone_exit_2(tmp_path, zero_epoch_ckpts,
                                                          capsys):
    ckpt = zero_epoch_ckpts["stage1_point"]
    doc = dict(zero_epoch_ckpts["run"], init={"range": ckpt})
    assert main(["sms", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: checkpoint {ckpt} has no range backbone" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["probe", "cosine-map"])
def test_sms_checkpoint_has_no_embedding_head_exit_2(tmp_path, tiny_dataset,
                                                     zero_epoch_ckpts, capsys, command):
    doc = dict(zero_epoch_ckpts["run"], checkpoint=zero_epoch_ckpts["sms"],
               representation="range",
               cloud=str(tiny_dataset / "scans" / "val_000.lpcd"), query_id=0)
    if command == "probe":
        del doc["cloud"], doc["query_id"]
    out = tmp_path / "out"
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert f"error: checkpoint {zero_epoch_ckpts['sms']} has no range embedding head " \
        "(only stage-1 and cml checkpoints have one)" in capsys.readouterr().err
    assert not list(out.glob("*_log.csv"))


@pytest.mark.parametrize("source,kind", [("stage1_range", "range"), ("cml", "range")])
def test_eval_on_a_checkpoint_without_logit_heads_exit_2(tmp_path, zero_epoch_ckpts,
                                                         capsys, source, kind):
    """Only an SMS checkpoint has logit heads; eval names any other before it
    reads the dataset, which here does not exist."""
    doc = dict(zero_epoch_ckpts["run"], checkpoint=zero_epoch_ckpts[source],
               dataset=str(tmp_path / "no_dataset"))
    assert main(["eval", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: checkpoint {zero_epoch_ckpts[source]} has no {kind} logit head " \
        "(only sms checkpoints have one)" in capsys.readouterr().err


@pytest.mark.parametrize("ckpt_classes,data_classes", [(6, 8), (8, 6)])
def test_eval_on_a_dataset_of_another_class_count_exit_2(tmp_path, tiny_dataset,
                                                         zero_epoch_ckpts, capsys,
                                                         ckpt_classes, data_classes):
    """Eval compares the checkpoint's logit heads with the dataset's class
    count before the forward, in both directions."""
    eight = tmp_path / "ds8"
    shutil.copytree(tiny_dataset, eight)
    manifest = json.loads((eight / "manifest.json").read_text())
    (eight / "manifest.json").write_text(json.dumps(dict(manifest, num_classes=8)))
    datasets = {6: str(tiny_dataset), 8: str(eight)}
    ckpt = zero_epoch_ckpts["sms"]
    if ckpt_classes == 8:
        run = dict(zero_epoch_ckpts["run"], dataset=datasets[8])
        assert main(["sms", "--config", write_json(tmp_path / "sms.json", run),
                     "--out", str(tmp_path / "sms")]) == 0
        ckpt = str(tmp_path / "sms" / "sms_model.ckpt")
    doc = dict(zero_epoch_ckpts["run"], checkpoint=ckpt, dataset=datasets[data_classes])
    out = tmp_path / "out"
    assert main(["eval", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert f"error: checkpoint {ckpt} scores {ckpt_classes} classes in its range logit " \
        f"head, but dataset {datasets[data_classes]} has {data_classes}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cml_takes_a_cml_student_checkpoint_as_an_expert(tmp_path, zero_epoch_ckpts):
    """A CML student checkpoint holds the voxel embedding head beside its
    gate; CML copies and compares only its ``voxel.*`` entries."""
    ckpts = {k: zero_epoch_ckpts[f"stage1_{k}"] for k in ("range", "point")}
    ckpts["voxel"] = zero_epoch_ckpts["cml"]
    doc = dict(zero_epoch_ckpts["run"], epochs=1, expert_ckpts=ckpts)
    out = tmp_path / "out"
    assert main(["cml", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 0
    assert json.loads((out / "cml_results.json").read_text())["experts_frozen"] is True


@pytest.mark.parametrize("source", ["sms", "stage1_point"])
def test_cml_expert_without_its_embedding_head_exit_2(tmp_path, zero_epoch_ckpts,
                                                      capsys, source):
    """An SMS checkpoint holds logit heads only, and a stage-1 point
    checkpoint holds a point head: neither can be the range expert."""
    stage1_dir = os.path.dirname(zero_epoch_ckpts["stage1_point"])
    ckpts = {k: os.path.join(stage1_dir, f"stage1_{k}.ckpt") for k in ("voxel", "point")}
    ckpts["range"] = zero_epoch_ckpts[source]
    doc = dict(zero_epoch_ckpts["run"], expert_ckpts=ckpts)
    assert main(["cml", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: checkpoint {ckpts['range']} has no range embedding head" \
        in capsys.readouterr().err


@pytest.mark.parametrize("scan", ["val_000", "100%_scan"])
def test_prediction_rows_equal_the_row_by_row_writer(scan):
    """The bulk ``%`` template gives the bytes of one f-string per point,
    for -1 (unlabeled) labels, a ``%`` in the scan name and empty scans."""
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 6, 500)
    labels = rng.integers(-1, 6, 500).astype(np.int32)
    assert (labels == -1).any()
    for p, l in ((preds, labels), (preds[:0], labels[:0])):
        assert _prediction_rows(scan, p, l) == prediction_rows_fstring(scan, p, l)


@pytest.mark.parametrize("command,split", [("probe", "val"), ("sms", "val"),
                                           ("probe", "train")])
def test_empty_split_exit_2_before_training(tmp_path, capsys, command, split):
    gen = {"n_train": 0 if split == "train" else 2, "n_val": 0 if split == "val" else 1,
           "azimuth_steps": 64, "range_w": 64}
    data = tmp_path / "ds"
    assert main(["datagen", "--config", write_json(tmp_path / "gen.json", gen),
                 "--out", str(data)]) == 0
    doc = {"dataset": str(data), "epochs": 1, "sms_epochs": 1, "probe_epochs": 1,
           "embed_dim": 8, "centroid_count": 8, "knn_k": 4, "random_baseline": True}
    if command == "sms":
        del doc["random_baseline"]
    out = tmp_path / "out"
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert f"error: dataset {data} has an empty {split} split" in capsys.readouterr().err
    assert not list(out.glob("*_log.csv"))


@pytest.mark.parametrize("command,key,node", [("sms", "lr_sms_other", "linear"),
                                              ("pretrain", "lr_stage1", "conv2d3x3")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_step_prints_its_error_and_no_numpy_warning(tmp_path, tiny_dataset,
                                                                 capsys, command, key, node):
    """A learning rate of 1e30 makes the second step's forward overflow:
    the run prints the one error that names the node, and numpy warns of
    nothing on the way (a warning is an error here)."""
    doc = {"dataset": str(tiny_dataset), "epochs": 1, "sms_epochs": 1, "embed_dim": 8,
           "centroid_count": 8, "knn_k": 4, key: 1e30}
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Warning" not in err
    assert f"scan train_001: non-finite value in output of {node}\n" in err


def test_sms_init_from_an_sms_checkpoint_copies_its_trunk(tmp_path, zero_epoch_ckpts):
    doc = dict(zero_epoch_ckpts["run"], init={"range": zero_epoch_ckpts["sms"]})
    out = tmp_path / "out"
    assert main(["sms", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 0
    src, _ = load_checkpoint(zero_epoch_ckpts["sms"])
    got, _ = load_checkpoint(out / "sms_model.ckpt")
    assert np.array_equal(got.get("range.conv1.w"), src.get("range.conv1.w"))


def test_probe_sizes_its_head_from_the_checkpoint_embedding(tmp_path, zero_epoch_ckpts):
    doc = dict(zero_epoch_ckpts["run"], checkpoint=zero_epoch_ckpts["stage1_point"])
    del doc["embed_dim"]  # the default, 64, differs from the checkpoint's 8
    assert main(["probe", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 0


def test_cml_names_an_expert_of_another_embedding_width(tmp_path, zero_epoch_ckpts,
                                                        capsys):
    stage1_dir = os.path.dirname(zero_epoch_ckpts["stage1_point"])
    doc = dict(zero_epoch_ckpts["run"], embed_dim=16, stage1_dir=stage1_dir)
    assert main(["cml", "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    ckpt = os.path.join(stage1_dir, "stage1_range.ckpt")
    assert f"error: checkpoint {ckpt} embeds range in 8 dims, but embed_dim is 16" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sms", "probe", "eval"])
def test_scored_split_without_a_labeled_point_exit_2_before_any_work(
        tmp_path, tiny_dataset, zero_epoch_ckpts, capsys, command):
    """A val split whose every point is unlabeled is rejected before sms or
    the probe trains and before eval runs a forward, naming the dataset and
    the split."""
    copy = tmp_path / "ds"
    shutil.copytree(tiny_dataset, copy)
    scan = copy / "scans" / "val_000.lpcd"
    cloud = read_lpcd(scan)
    write_lpcd(scan, PointCloud(cloud.xyz, cloud.intensity, cloud.beam,
                                np.full(cloud.count, -1)))
    doc = dict(zero_epoch_ckpts["run"], dataset=str(copy), epochs=1, sms_epochs=1,
               probe_epochs=1)
    doc.update({"sms": {}, "probe": {"random_baseline": True},
                "eval": {"checkpoint": zero_epoch_ckpts["sms"]}}[command])
    out = tmp_path / "out"
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert f"error: dataset {copy} has no labeled point in its val split" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sms", "probe", "eval"])
def test_scored_scan_without_a_point_exit_2_before_any_work(
        tmp_path, small_dataset, zero_epoch_ckpts, capsys, command):
    """An empty val scan beside a labeled one is rejected before sms or the
    probe trains and before eval runs a forward, naming the dataset, the
    split and the scan."""
    copy = tmp_path / "ds"
    shutil.copytree(small_dataset, copy)
    empty = np.zeros(0)
    write_lpcd(copy / "scans" / "val_000.lpcd",
               PointCloud(np.zeros((0, 3)), empty, empty, empty))
    doc = dict(zero_epoch_ckpts["run"], dataset=str(copy), epochs=1, sms_epochs=1,
               probe_epochs=1)
    doc.update({"sms": {}, "probe": {"random_baseline": True},
                "eval": {"checkpoint": zero_epoch_ckpts["sms"]}}[command])
    out = tmp_path / "out"
    assert main([command, "--config", write_json(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 2
    assert f"error: dataset {copy} has no point in val scan val_000\n" \
        in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_a_header_only_pairs_csv_exit_2_naming_it_without_a_warning(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("prediction,label\n")
    cfg = write_json(tmp_path / "cfg.json", {"pairs_csv": str(pairs)})
    env = dict(os.environ, PYTHONPATH=str(Path(lidarmoe.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "lidarmoe.cli", "eval", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {pairs}: no prediction,label row\n"
    assert not (tmp_path / "out").exists()

