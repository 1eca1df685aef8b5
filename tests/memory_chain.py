"""Peak memory of each subcommand of a dense end-to-end CLI chain.

Runs datagen, pretrain, cml, probe, sms and eval in one process on the
64 x 512 sensor and run config of the ``chain_dense_aug`` benchmark
workload (2 train and 1 val scan, augmentation in every stage), in a
temporary directory, and prints one line per subcommand: the peak of the
memory that Python and numpy allocated while it ran (``tracemalloc``) and
the process's peak resident set size so far (``ru_maxrss``). Tracing slows
the chain down several-fold and its bookkeeping adds to the resident set,
so compare these numbers only with the same script's. A memory claim is
one run on each source tree:

    PYTHONPATH=../lidarmoe-parent/src python tests/memory_chain.py
    PYTHONPATH=src python tests/memory_chain.py

Its name does not start with ``test_``, so pytest does not collect it.
"""

import json
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

from lidarmoe.cli import main

# the datagen and run config of the chain_dense_aug workload, with fixed seeds
DATAGEN = {"n_train": 2, "n_val": 1, "beam_count": 64, "azimuth_steps": 512,
           "range_h": 64, "range_w": 512}
RUN = {"dataset": "data", "seed": 7, "epochs": 1, "augment": True, "sms_augment": True,
       "sms_epochs": 2, "lr_cml": 0.005, "student_init": "stage1", "probe_epochs": 10}
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
]


def max_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_chain(root: Path) -> list:
    """Run ``CHAIN`` with ``root`` as the working directory; returns
    ``(subcommand, traced peak MB, max RSS MB)`` per step."""
    (root / "configs").mkdir()
    os.chdir(root)
    rows = []
    tracemalloc.start()
    try:
        for command, doc, out in CHAIN:
            cfg = Path("configs") / f"{out}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            tracemalloc.reset_peak()
            if main([command, "--config", str(cfg), "--out", out]) != 0:
                sys.exit(f"{command} failed")
            rows.append((command, tracemalloc.get_traced_memory()[1] / 1e6, max_rss_mb()))
    finally:
        tracemalloc.stop()
    return rows


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_chain(Path(tmp))
        os.chdir(home)
    print("subcommand  traced_peak_mb  max_rss_mb")
    for command, peak, rss in rows:
        print(f"{command:<10}  {peak:14.1f}  {rss:10.1f}")
