"""Optimizer schedule, updates, and checkpoint round-trips."""

import json
import re
import struct

import numpy as np
import pytest

from lidarmoe.errors import LidarMoeError
from lidarmoe.optim import WEIGHT_DECAY, AdamW, one_cycle_lr
from lidarmoe.params import (CheckpointError, ParameterStore, load_checkpoint,
                             save_checkpoint)


def test_schedule_first_warmup_step():
    total, peak = 100, 0.01
    assert one_cycle_lr(0, total, peak) == pytest.approx(peak / (0.1 * total))


def test_schedule_peak_at_warmup_end():
    assert one_cycle_lr(9, 100, 0.01) == pytest.approx(0.01)


def test_schedule_final_step():
    assert one_cycle_lr(99, 100, 0.01) == pytest.approx(0.01 / 100, abs=1e-9)


def test_schedule_monotone_warmup():
    lrs = [one_cycle_lr(s, 50, 1.0) for s in range(5)]
    assert all(b > a for a, b in zip(lrs, lrs[1:]))


def test_zero_gradient_applies_only_the_fixed_decay():
    store = ParameterStore()
    store.add("w", np.arange(6, dtype=np.float32).reshape(2, 3))
    opt = AdamW(store, peak_lr=lambda _: 0.1, total_steps=10)
    want = store.get("w").copy()
    for step in range(5):
        opt.step({"w": np.zeros((2, 3), np.float32)})
        # zero moments leave the decoupled decay as the whole update
        w64 = want.astype(np.float64)
        want = (w64 - one_cycle_lr(step, 10, 0.1) * WEIGHT_DECAY * w64
                ).astype(np.float32)
        assert np.allclose(store.get("w"), want, rtol=1e-6, atol=0.0)
    assert store.get("w")[0, 0] == 0.0
    assert np.all(store.get("w").ravel()[1:] < np.arange(1, 6))


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    """Values, names and metadata survive a round trip, and every manifest
    entry holds ``"trainable": true``, as version-1 files always have."""
    store = ParameterStore()
    store.add("a.w", rng.standard_normal((4, 5)).astype(np.float32))
    store.add("a.b", rng.standard_normal(5).astype(np.float32))
    meta = {"stage": "stage1-range", "config_digest": "abc123", "seed": 42}
    path = tmp_path / "test.ckpt"
    save_checkpoint(path, store, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded.get(name), store.get(name))
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    assert json.loads(raw[16:16 + size])["params"] == [
        {"name": "a.w", "shape": [4, 5], "trainable": True},
        {"name": "a.b", "shape": [5], "trainable": True}]


def test_checkpoint_magic_validated(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match=f"^bad magic in {re.escape(str(path))}$"):
        load_checkpoint(path)


def test_every_cut_of_a_checkpoint_is_a_checkpoint_error(tmp_path):
    """A file cut anywhere, its 16-byte header included, raises
    CheckpointError naming the file, never ``struct.error``."""
    path = tmp_path / "x.ckpt"
    store = ParameterStore()
    store.add("w", np.ones((2, 3), np.float32))
    save_checkpoint(path, store, {"stage": "x"})
    data = path.read_bytes()
    for size in range(len(data)):
        path.write_bytes(data[:size])
        want = "bad magic in" if size < 8 else "truncated file"
        with pytest.raises(CheckpointError, match=f"^{want} {re.escape(str(path))}$"):
            load_checkpoint(path)


def _raw_checkpoint(path, manifest, blob=b""):
    text = json.dumps(manifest).encode("utf-8")
    path.write_bytes(b"LMOECKPT" + struct.pack("<Q", len(text)) + text + blob)


@pytest.mark.parametrize("params,metadata,message", [
    ([{"name": "w", "shape": [2]}], {}, "KeyError\\('trainable'\\)"),
    ([{"name": "w", "shape": [2], "trainable": False}], {},
     "trainable must be true, got False"),
    ([{"name": "w", "shape": [2], "trainable": 1}], {}, "trainable must be true, got 1"),
    ([{"name": "w", "shape": [2], "trainable": "true"}], {},
     "trainable must be true, got 'true'"),
    ([{"name": "w", "shape": "ab", "trainable": True}], {}, "TypeError"),
    ([{"name": "w", "shape": [1], "trainable": True}] * 2, {},
     "duplicate parameter name: w"),
    ([{"name": 5, "shape": [1], "trainable": True}], {}, "name must be a string, got 5"),
    ([], None, "KeyError\\('metadata'\\)"),
])
def test_malformed_checkpoint_manifest_is_a_checkpoint_error(tmp_path, params,
                                                            metadata, message):
    path = tmp_path / "bad.ckpt"
    manifest = {"format_version": 1, "dtype": "f32", "params": params}
    if metadata is not None:
        manifest["metadata"] = metadata
    _raw_checkpoint(path, manifest, b"\0" * 64)
    with pytest.raises(CheckpointError, match=f"^malformed manifest in "
                       f"{re.escape(str(path))}: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_length_past_the_end_is_truncation(tmp_path):
    """A corrupt manifest length is checked against the file before any
    read, so it cannot ask for 2**62 bytes."""
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"LMOECKPT" + struct.pack("<Q", 2 ** 62) + b"{}")
    with pytest.raises(CheckpointError, match=f"^truncated file {re.escape(str(path))}$"):
        load_checkpoint(path)


def test_checkpoint_manifest_must_be_an_object(tmp_path):
    path = tmp_path / "bad.ckpt"
    _raw_checkpoint(path, [1])
    with pytest.raises(CheckpointError, match="^unsupported checkpoint version in "):
        load_checkpoint(path)


def test_missing_parameter_is_a_package_error():
    with pytest.raises(LidarMoeError, match="^missing parameter enc.w$"):
        ParameterStore().get("enc.w")


def test_interrupted_checkpoint_write_keeps_previous_file(tmp_path):
    path = tmp_path / "x.ckpt"
    old = ParameterStore()
    old.add("w", np.ones(3, np.float32))
    save_checkpoint(path, old, {"stage": "old"})
    before = path.read_bytes()

    class FailingStore(ParameterStore):
        """Fails on the first tensor read after the manifest is built."""

        def __init__(self):
            super().__init__()
            self.reads = 0

        def get(self, name):
            self.reads += 1
            if self.reads > len(self.names()) + 1:
                raise RuntimeError("write interrupted")
            return super().get(name)

    new = FailingStore()
    new.add("a", np.zeros(4, np.float32))
    new.add("b", np.zeros(5, np.float32))
    with pytest.raises(RuntimeError, match="interrupted"):
        save_checkpoint(path, new, {"stage": "new"})
    assert new.reads == len(new.names()) + 2  # one tensor written, then the failure
    assert path.read_bytes() == before
    loaded, meta = load_checkpoint(path)
    assert meta == {"stage": "old"}
    assert np.array_equal(loaded.get("w"), old.get("w"))
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]


def test_duplicate_parameter_name_rejected():
    store = ParameterStore()
    store.add("w", np.ones(2, np.float32))
    with pytest.raises(ValueError):
        store.add("w", np.ones(2, np.float32))
