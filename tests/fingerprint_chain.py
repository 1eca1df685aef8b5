"""Fingerprint every file that a reduced end-to-end CLI chain writes.

``STEPS`` runs datagen and the reference chain of ``chain.py`` at reduced
length (pretrain, cml, probe, sms, eval), route-stats on each axis, a cml
with a randomly initialised range student, a random-baseline probe, a
one-scan datagen on the 64 x 512 sensor of the ``chain_dense_aug``
benchmark workload and a one-epoch augmented pretrain on it, plus a
beam-missing corrupt of the val split and an eval of the sms checkpoint
on that camera-less copy (what the ``robust_eval`` workload times).
Acceptance criterion 10 runs it twice and compares every file. Run as a
script, it runs the steps in a temporary directory and prints ``sha256
relpath`` for every file there, sorted by path. Every path a step is given
is relative, so no output holds the temporary directory's name. Two source
trees write byte-identical outputs exactly when their fingerprints agree
at one BLAS thread count; OpenBLAS splits a product differently at another
count, so 29 of the hashes change between 1 and 2 threads on any tree:

    git worktree add ../lidarmoe-parent HEAD~1
    diff <(OPENBLAS_NUM_THREADS=1 PYTHONPATH=../lidarmoe-parent/src \\
           python tests/fingerprint_chain.py) \\
         <(OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/fingerprint_chain.py)

Its name does not start with ``test_``, so pytest does not collect it.
"""

import tempfile

from chain import baseline_probe, datagen, fingerprints, reference_chain, run_config, run_steps

# the reference chain at reduced length, probe epochs cut to 3
RUN = run_config("data", 77, epochs=3, sms_epochs=2, probe_epochs=3)
DENSE_DATAGEN = {"n_train": 1, "n_val": 0, "beam_count": 64, "azimuth_steps": 512,
                 "range_h": 64, "range_w": 512}
ROUTE = {"gates_csv": "cml/cml_gates_train_000.csv", "cloud": "data/scans/train_000.lpcd"}
STEPS = [
    datagen("data"),
    *reference_chain(RUN),
    ("route-stats", dict(ROUTE, axis="beam"), "route"),
    ("route-stats", dict(ROUTE, axis="class"), "route_class"),
    ("route-stats", dict(ROUTE, axis="distance-bin"), "route_distance"),
    ("cml", dict(RUN, stage1_dir="s1", student="range", student_init="random"),
     "cml_range"),
    baseline_probe(RUN),
    datagen("data_dense", DENSE_DATAGEN),
    ("pretrain", dict(RUN, dataset="data_dense", epochs=1, augment=True), "s1_dense"),
    ("corrupt", {"dataset": "data", "kind": "beam-missing", "severity": 2, "split": "val"},
     "data_beam"),
    ("eval", dict(RUN, dataset="data_beam", checkpoint="sms/sms_model.ckpt"), "eval_beam"),
]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_steps(tmp, STEPS)
        print("\n".join(fingerprints(tmp)))
