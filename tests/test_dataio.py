"""Serialization round-trips for point clouds, camera renders, manifests."""

import os

import numpy as np
import pytest

from lidarmoe.datagen import ClassImage
from lidarmoe.dataio import (DataFormatError, DatasetManifest, ScanEntry,
                             TrainingLog, load_manifest, read_camera_npz,
                             read_lpcd, save_manifest, write_camera_npz,
                             write_lpcd)
from lidarmoe.pointcloud import PointCloud, empty_cloud


def sample_cloud(rng, n=50):
    return PointCloud(rng.standard_normal((n, 3)).astype(np.float32) * 20,
                      rng.uniform(0, 1, n).astype(np.float32),
                      rng.integers(0, 32, n).astype(np.int32),
                      rng.integers(-1, 6, n).astype(np.int32))


def test_lpcd_roundtrip_bit_exact(tmp_path, rng):
    cloud = sample_cloud(rng)
    path = tmp_path / "scan.lpcd"
    write_lpcd(path, cloud)
    loaded = read_lpcd(path)
    assert np.array_equal(loaded.xyz, cloud.xyz)
    assert np.array_equal(loaded.intensity, cloud.intensity)
    assert np.array_equal(loaded.beam, cloud.beam)
    assert np.array_equal(loaded.label, cloud.label)


def test_lpcd_empty_cloud(tmp_path):
    path = tmp_path / "empty.lpcd"
    write_lpcd(path, empty_cloud())
    assert read_lpcd(path).count == 0


def test_lpcd_layout_and_magic(tmp_path, rng):
    cloud = sample_cloud(rng, 3)
    path = tmp_path / "scan.lpcd"
    write_lpcd(path, cloud)
    raw = path.read_bytes()
    assert raw[:4] == b"LPCD"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 3
    assert len(raw) == 16 + 3 * 22  # 4 f32 + u16 + i32 per record


def test_lpcd_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.lpcd"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataFormatError):
        read_lpcd(path)


def test_lpcd_truncated_rejected(tmp_path, rng):
    path = tmp_path / "scan.lpcd"
    write_lpcd(path, sample_cloud(rng, 10))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(DataFormatError):
        read_lpcd(path)


def test_camera_npz_roundtrip(tmp_path, rng):
    cls = rng.integers(-1, 6, (8, 12)).astype(np.int32)
    depth = np.where(cls >= 0, rng.uniform(1, 30, (8, 12)), np.inf)
    sp = rng.integers(0, 5, (8, 12)).astype(np.int32)
    path = tmp_path / "cam.npz"
    write_camera_npz(path, ClassImage(cls, depth), sp)
    image, sp2 = read_camera_npz(path)
    assert np.array_equal(image.class_id, cls)
    assert np.array_equal(image.depth, depth)
    assert np.array_equal(sp2, sp)


def test_manifest_roundtrip(tmp_path):
    manifest = DatasetManifest(
        train=[ScanEntry("scans/a.lpcd", "cams/a.npz")],
        val=[ScanEntry("scans/b.lpcd", None)],
        num_classes=6, annotation_fraction=0.5)
    path = tmp_path / "manifest.json"
    save_manifest(path, manifest)
    loaded = load_manifest(path)
    assert loaded.num_classes == 6
    assert loaded.annotation_fraction == 0.5
    assert loaded.train[0].scan == "scans/a.lpcd"
    assert loaded.train[0].camera == "cams/a.npz"
    assert loaded.val[0].camera is None


def test_interrupted_manifest_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    save_manifest(path, DatasetManifest(train=[ScanEntry("scans/a.lpcd")]))
    before = path.read_bytes()

    def interrupted_rename(src, dst):
        # the new document is complete, but not yet renamed over the old one
        assert load_manifest(src).train[0].scan == "scans/b.lpcd"
        raise RuntimeError("write interrupted")

    monkeypatch.setattr(os, "replace", interrupted_rename)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_manifest(path, DatasetManifest(train=[ScanEntry("scans/b.lpcd")]))
    assert path.read_bytes() == before
    assert load_manifest(path).train[0].scan == "scans/a.lpcd"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_training_log_format(tmp_path):
    path = tmp_path / "log.csv"
    with TrainingLog(path) as log:
        log.append(0, "stage1-range", "loss", 3.25)
        log.append(1, "stage1-range", "loss", 3.0)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,stage,term,value"
    assert lines[1] == "0,stage1-range,loss,3.25"
