import numpy as np

from checks import DigestBook, Ops, checkpoint_problem, csv_rows, miou_ok

from lidarmoe.params import ParameterStore, save_checkpoint


def _checkpoint(path, value=1.5):
    store = ParameterStore()
    store.add("layer.w", np.full((4, 3), value, np.float32))
    store.add("layer.b", np.zeros(3, np.float32))
    save_checkpoint(path, store, {"stage": "test"})
    return path


def test_intact_checkpoint_passes(tmp_path):
    assert checkpoint_problem(_checkpoint(tmp_path / "ok.ckpt")) == ""


def test_truncated_checkpoint_is_rejected(tmp_path):
    blob = _checkpoint(tmp_path / "full.ckpt").read_bytes()
    for keep in (4, 12, 40, len(blob) - 1):
        cut = tmp_path / f"cut{keep}.ckpt"
        cut.write_bytes(blob[:keep])
        assert checkpoint_problem(cut) != "", f"accepted a file cut to {keep} bytes"


def test_non_finite_checkpoint_is_rejected(tmp_path):
    assert "non-finite" in checkpoint_problem(_checkpoint(tmp_path / "nan.ckpt", np.nan))


def test_miou_range_and_csv_rows(tmp_path):
    assert miou_ok(0.0) and miou_ok(100.0) and miou_ok(42)
    assert not miou_ok(-0.1) and not miou_ok(100.5)
    assert not miou_ok(float("nan")) and not miou_ok(None)
    path = tmp_path / "p.csv"
    path.write_text("scan,point_id,prediction,label\na,0,1,1\na,1,2,2\n")
    assert csv_rows(path) == 2
    assert csv_rows(tmp_path / "missing.csv") == -1


def test_digest_mismatch_between_runs_is_a_failed_operation(tmp_path):
    out = tmp_path / "model.ckpt"
    out.write_bytes(b"first")
    book_path = tmp_path / "digests.json"
    first = Ops()
    book = DigestBook(book_path)
    book.check(first, "rep0", {"model.ckpt": out})
    book.save()
    assert (first.attempted, first.failed) == (0, 0)

    same = Ops()
    DigestBook(book_path).check(same, "rep0", {"model.ckpt": out})
    assert (same.attempted, same.failed) == (1, 0)

    out.write_bytes(b"second")
    changed = Ops()
    DigestBook(book_path).check(changed, "rep0", {"model.ckpt": out})
    assert (changed.attempted, changed.failed) == (1, 1)
