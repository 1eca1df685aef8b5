"""Serialization round-trips for point clouds, camera renders, manifests."""

import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest

from lidarmoe.datagen import CameraRender
from lidarmoe.dataio import (CAMERA_ARRAYS, DatasetManifest, ScanEntry,
                             TrainingLog, load_manifest, read_camera_npz,
                             read_csv, read_json, read_lpcd, save_manifest,
                             write_camera_npz, write_json, write_lpcd)
from lidarmoe.errors import LidarMoeError
from lidarmoe.pointcloud import PointCloud


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
    write_lpcd(path, PointCloud(np.zeros((0, 3)), np.zeros(0), np.zeros(0, np.int32),
                                np.zeros(0, np.int32)))
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
    with pytest.raises(LidarMoeError, match=f"^bad magic in {re.escape(str(path))}$"):
        read_lpcd(path)


def test_lpcd_truncated_rejected(tmp_path, rng):
    path = tmp_path / "scan.lpcd"
    write_lpcd(path, sample_cloud(rng, 10))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(LidarMoeError, match=f"^truncated file {re.escape(str(path))}$"):
        read_lpcd(path)


@pytest.mark.parametrize("field", ["x", "y", "z", "intensity"])
def test_lpcd_non_finite_record_names_file_record_and_field(tmp_path, rng, field):
    """A NaN or infinite float of a record is rejected when the file is
    read, naming the record: NaN first, then -inf at a lower record."""
    cloud = sample_cloud(rng, 10)
    column = cloud.intensity if field == "intensity" else cloud.xyz[:, "xyz".index(field)]
    column[7] = np.nan
    path = tmp_path / "scan.lpcd"
    write_lpcd(path, cloud)
    with pytest.raises(LidarMoeError, match=f"^{re.escape(str(path))}: record 7 has "
                       f"{field} nan, want a finite number$"):
        read_lpcd(path)
    column[2] = -np.inf
    write_lpcd(path, cloud)
    with pytest.raises(LidarMoeError, match=f"record 2 has {field} -inf"):
        read_lpcd(path)


def test_camera_npz_roundtrip(tmp_path, rng):
    cls = rng.integers(-1, 6, (8, 12)).astype(np.int32)
    depth = np.where(cls >= 0, rng.uniform(1, 30, (8, 12)), np.inf)
    sp = rng.integers(0, 5, (8, 12)).astype(np.int32)
    path = tmp_path / "cam.npz"
    write_camera_npz(path, CameraRender(cls, depth, sp))
    render = read_camera_npz(path)
    assert np.array_equal(render.class_id, cls)
    assert np.array_equal(render.depth, depth)
    assert np.array_equal(render.superpixel, sp)


def test_camera_arrays_name_the_render_fields_in_order():
    assert list(CAMERA_ARRAYS) == [f.name for f in dataclasses.fields(CameraRender)]


def test_camera_npz_roundtrip_stores_each_array_in_its_table_dtype(tmp_path):
    """Whatever dtypes a render holds, the file holds ``CAMERA_ARRAYS``'
    under the table's names, and reading gives them back as they are."""
    render = CameraRender(np.array([[0, -1]], np.int64), np.array([[2.5, np.inf]], np.float32),
                          np.array([[1, 0]], np.uint8))
    path = tmp_path / "cam.npz"
    write_camera_npz(path, render)
    with np.load(path) as data:
        assert data.files == list(CAMERA_ARRAYS)
    back = read_camera_npz(path)
    for name, dtype in CAMERA_ARRAYS.items():
        assert getattr(back, name).dtype == dtype
        assert np.array_equal(getattr(back, name), getattr(render, name))


def test_failed_camera_npz_write_leaves_no_file(tmp_path, monkeypatch):
    """A camera render is written through ``atomic_write``: a write that
    dies halfway leaves neither the render nor its temporary file."""
    savez = np.savez

    def dies_halfway(fh, **arrays):
        fh.write(b"PK\x03\x04partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", dies_halfway)
    cls = np.zeros((4, 6), np.int32)
    with pytest.raises(OSError, match="disk full"):
        write_camera_npz(tmp_path / "cam.npz", CameraRender(cls, np.ones((4, 6)), cls))
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(np, "savez", savez)
    write_camera_npz(tmp_path / "cam.npz", CameraRender(cls, np.ones((4, 6)), cls))
    assert os.listdir(tmp_path) == ["cam.npz"]


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


def test_every_cut_of_the_lpcd_header_is_a_package_error(tmp_path, rng):
    """A file cut anywhere inside its 16-byte header raises LidarMoeError
    naming the file, never ``struct.error``."""
    path = tmp_path / "scan.lpcd"
    write_lpcd(path, sample_cloud(rng, 3))
    data = path.read_bytes()
    for size in range(16):
        path.write_bytes(data[:size])
        want = "bad magic in" if size < 4 else "truncated file"
        with pytest.raises(LidarMoeError, match=f"^{want} {re.escape(str(path))}$"):
            read_lpcd(path)


def test_lpcd_point_count_past_the_end_is_truncation(tmp_path):
    path = tmp_path / "scan.lpcd"
    path.write_bytes(b"LPCD" + (1).to_bytes(4, "little") + (2 ** 60).to_bytes(8, "little"))
    with pytest.raises(LidarMoeError, match=f"^truncated file {re.escape(str(path))}$"):
        read_lpcd(path)


@pytest.mark.parametrize("cut", ["half", "missing array", "garbage"])
def test_corrupt_camera_npz_is_a_package_error(tmp_path, rng, cut):
    path = tmp_path / "cam.npz"
    cls = rng.integers(-1, 6, (8, 12)).astype(np.int32)
    write_camera_npz(path, CameraRender(cls, np.ones((8, 12)), cls))
    if cut == "half":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif cut == "missing array":
        np.savez(path, class_id=cls, depth=np.ones((8, 12)))
    else:
        path.write_bytes(b"not a zip archive")
    with pytest.raises(LidarMoeError,
                       match=f"^corrupt camera file {re.escape(str(path))}: "):
        read_camera_npz(path)


@pytest.mark.parametrize("raw,message", [
    (b"\xff\xfe{}", "is not a UTF-8 JSON document"),
    (b'{"a": ', "is not a UTF-8 JSON document"),
    (b'{"a": [1.0, NaN]}', "is not a UTF-8 JSON document: NaN is not a JSON number"),
    (b'{"a": -Infinity}', "is not a UTF-8 JSON document: -Infinity is not a JSON number"),
    (b"[1]", "must hold a JSON object, got list"),
    (b'"x"', "must hold a JSON object, got str"),
])
def test_read_json_rejects_what_is_not_a_json_object(tmp_path, raw, message):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(LidarMoeError, match=f"^{re.escape(str(path))} {message}"):
        read_json(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_a_non_finite_number_and_writes_nothing(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "doc.json", {"load": [0.5, value]})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("edit,message", [
    (lambda m: m["splits"]["train"][0].pop("scan"), "train entry missing key 'scan'"),
    (lambda m: m["splits"]["val"].__setitem__(0, "scans/b.lpcd"),
     "val entry must be a JSON object"),
    (lambda m: m["splits"].__setitem__("train", {}), "train must be list"),
    (lambda m: m.__setitem__("num_classes", "6"), "num_classes must be int"),
])
def test_malformed_manifest_names_file_and_key(tmp_path, edit, message):
    path = tmp_path / "manifest.json"
    save_manifest(path, DatasetManifest(train=[ScanEntry("scans/a.lpcd", "cams/a.npz")],
                                        val=[ScanEntry("scans/b.lpcd")]))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(LidarMoeError, match=f"^manifest {re.escape(str(path))} {message}"):
        load_manifest(path)


def test_manifest_split_listing_one_stem_twice_names_it(tmp_path):
    """A scan is known by its file stem, so a split may not list two files
    of one stem; another split may reuse it."""
    path = tmp_path / "manifest.json"
    save_manifest(path, DatasetManifest(
        train=[ScanEntry("scans/a.lpcd", "cams/a.npz"), ScanEntry("scans/b.lpcd"),
               ScanEntry("other/a.lpcd")],
        val=[ScanEntry("scans/a.lpcd")]))
    with pytest.raises(LidarMoeError, match=f"^manifest {re.escape(str(path))} train "
                       "lists two scans named a$"):
        load_manifest(path)
    save_manifest(path, DatasetManifest(train=[ScanEntry("scans/a.lpcd")],
                                        val=[ScanEntry("scans/a.lpcd")]))
    assert len(load_manifest(path).val) == 1


@pytest.mark.parametrize("text", ["a,b,c\n", "a,b,c", "a,b,c\n\n \n"])
def test_read_csv_of_a_header_only_file_is_empty_without_a_warning(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = read_csv(path, "a,b,c", np.int64)
    assert rows.shape == (0, 3) and rows.dtype == np.int64
