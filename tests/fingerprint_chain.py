"""Fingerprint every file that a reduced end-to-end CLI chain writes.

Runs datagen and then the chain of acceptance criterion 10 at reduced
length (pretrain, cml, probe, sms, eval, route-stats on each axis), a cml
with a randomly initialised range student, a random-baseline probe, a
one-scan datagen on the 64 x 512 sensor of the ``chain_dense_aug``
benchmark workload and a one-epoch augmented pretrain on it, plus a
beam-missing corrupt of the val split and an eval of the sms checkpoint
on that camera-less copy (what the ``robust_eval`` workload times), in a
temporary directory, and prints ``sha256 relpath`` for every file there,
sorted by path. Every path the chain is given is relative, so no output
holds the temporary directory's name. Two source trees write
byte-identical outputs exactly when their fingerprints agree at one BLAS
thread count; OpenBLAS splits a product differently at another count, so
29 of the hashes change between 1 and 2 threads on any tree:

    git worktree add ../lidarmoe-parent HEAD~1
    diff <(OPENBLAS_NUM_THREADS=1 PYTHONPATH=../lidarmoe-parent/src \\
           python tests/fingerprint_chain.py) \\
         <(OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/fingerprint_chain.py)

Its name does not start with ``test_``, so pytest does not collect it.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from lidarmoe.cli import main

# the reference dataset and criterion 10's run config, probe epochs cut to 3
DATAGEN = {}
DENSE_DATAGEN = {"n_train": 1, "n_val": 0, "beam_count": 64, "azimuth_steps": 512,
                 "range_h": 64, "range_w": 512}
RUN = {"dataset": "data", "seed": 77, "epochs": 3, "sms_epochs": 2, "probe_epochs": 3,
       "augment": False, "sms_augment": True, "lr_cml": 0.005, "student_init": "stage1"}
ROUTE = {"gates_csv": "cml/cml_gates_train_000.csv", "cloud": "data/scans/train_000.lpcd"}
# (subcommand, config, output directory), run in order
CHAIN = [
    ("datagen", DATAGEN, "data"),
    ("pretrain", RUN, "s1"),
    ("cml", dict(RUN, stage1_dir="s1"), "cml"),
    ("probe", dict(RUN, checkpoint="cml/cml_student.ckpt"), "probe"),
    ("sms", dict(RUN, init={"voxel": "cml/cml_student.ckpt",
                            "range": "s1/stage1_range.ckpt",
                            "point": "s1/stage1_point.ckpt"}), "sms"),
    ("eval", dict(RUN, checkpoint="sms/sms_model.ckpt"), "eval"),
    ("route-stats", dict(ROUTE, axis="beam"), "route"),
    ("route-stats", dict(ROUTE, axis="class"), "route_class"),
    ("route-stats", dict(ROUTE, axis="distance-bin"), "route_distance"),
    ("cml", dict(RUN, stage1_dir="s1", student="range", student_init="random"),
     "cml_range"),
    ("probe", dict(RUN, random_baseline=True), "probe_random"),
    ("datagen", DENSE_DATAGEN, "data_dense"),
    ("pretrain", dict(RUN, dataset="data_dense", epochs=1, augment=True), "s1_dense"),
    ("corrupt", {"dataset": "data", "kind": "beam-missing", "severity": 2, "split": "val"},
     "data_beam"),
    ("eval", dict(RUN, dataset="data_beam", checkpoint="sms/sms_model.ckpt"), "eval_beam"),
]


def fingerprints(root: Path) -> list:
    """``sha256  relpath`` of every file under ``root``, sorted by path."""
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
            for p in sorted(root.rglob("*")) if p.is_file()]


def run_chain(root: Path) -> None:
    """Run ``CHAIN`` with ``root`` as the working directory."""
    (root / "configs").mkdir()
    os.chdir(root)
    for command, doc, out in CHAIN:
        cfg = Path("configs") / f"{out}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        if main([command, "--config", str(cfg), "--out", out]) != 0:
            sys.exit(f"{command} failed")


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        run_chain(Path(tmp))
        os.chdir(home)
        print("\n".join(fingerprints(Path(tmp))))
