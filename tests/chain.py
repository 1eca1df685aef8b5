"""The reference protocol, its CLI chain and one runner for it.

The paper's claims are comparisons run through one protocol: pretrain,
distil (cml), fine-tune (sms) and score (probe, eval). This module states
that protocol once: the reference dataset (a datagen document and its
seed), the acceptance run config and the training seeds, and the chain's
steps with the SMS init map. The acceptance suite, ``fingerprint_chain.py``
and ``memory_chain.py`` build their steps here and run them through
``run_steps``. Its name does not start with ``test_``, so pytest does not
collect it.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from lidarmoe.cli import main

# the reference dataset: the default datagen document, rendered with seed 0
DATAGEN = {}
DATASET_SEED = 0
# the acceptance run config, in the key order its config files are written in
RUN = {"epochs": 50, "sms_epochs": 50, "probe_epochs": 40, "augment": False,
       "sms_augment": True, "lr_cml": 0.005, "student_init": "stage1"}
SEEDS = (101, 303, 505)


def run_config(dataset, seed, **changes) -> dict:
    """The run-config document of ``RUN`` on ``dataset`` with training
    ``seed``, its values replaced by ``changes``."""
    return {"dataset": str(dataset), "seed": seed, **RUN, **changes}


def datagen(out, doc=DATAGEN):
    """The step that renders the ``doc`` dataset with ``DATASET_SEED`` into ``out``."""
    return "datagen", doc, out, "--seed", str(DATASET_SEED)


def reference_chain(run) -> list:
    """The steps pretrain -> cml -> probe -> sms -> eval of the run-config
    document ``run``, each ``(subcommand, config, output directory)``.
    SMS starts its voxel backbone from the CML student and its range and
    point backbones from stage 1."""
    return [("pretrain", run, "s1"),
            ("cml", dict(run, stage1_dir="s1"), "cml"),
            ("probe", dict(run, checkpoint="cml/cml_student.ckpt"), "probe"),
            ("sms", dict(run, init={"voxel": "cml/cml_student.ckpt",
                                    "range": "s1/stage1_range.ckpt",
                                    "point": "s1/stage1_point.ckpt"}), "sms"),
            ("eval", dict(run, checkpoint="sms/sms_model.ckpt"), "eval")]


def baseline_probe(run):
    """The random-baseline probe step of ``run``."""
    return "probe", dict(run, random_baseline=True), "probe_random"


def run_steps(root, steps) -> list:
    """Run each ``(subcommand, config, output directory, *flags)`` step
    through ``cli.main`` with ``root`` (made if missing) as the working
    directory, its config written to ``configs/<output directory>.json``;
    returns each step's seconds. A step that exits non-zero raises
    RuntimeError. The working directory is restored either way."""
    Path(root).mkdir(parents=True, exist_ok=True)
    home, seconds = os.getcwd(), []
    os.chdir(root)
    try:
        for command, doc, out, *flags in steps:
            cfg = Path("configs") / f"{out}.json"
            cfg.parent.mkdir(exist_ok=True)
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            start = time.perf_counter()
            if main([command, "--config", str(cfg), "--out", out, *flags]) != 0:
                raise RuntimeError(f"{command} --out {out} failed")
            seconds.append(time.perf_counter() - start)
    finally:
        os.chdir(home)
    return seconds


def fingerprints(root) -> list:
    """``sha256  relpath`` of every file under ``root``, sorted by path."""
    root = Path(root)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
            for p in sorted(root.rglob("*")) if p.is_file()]
