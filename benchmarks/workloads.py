"""The three workloads: what each sets up, runs timed and checks.

Each repetition gets its own dataset, generated from the run seed and the
repetition index, so a run's medians cover several scenes. The timed part
of a repetition is a list of ``lidarmoe`` subcommand calls made in-process
through ``lidarmoe.cli.main``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from pathlib import Path

from checks import Ops, checkpoint_problem, csv_rows, miou_ok, read_json

HEADS = ("fused", "range", "voxel", "point")


def derive_seed(*parts) -> int:
    h = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(h[:4], "little")


class Cli:
    """Calls ``lidarmoe.cli.main`` and records each call as one operation.

    With a tracer, each call is a root span named ``cli.<subcommand>``.
    ``probe`` times a fixed kernel; each call's seconds are also scaled to
    the reference speed ``probe_ref`` by the mean of the probe times taken
    just before and just after the call.
    """

    def __init__(self, ops: Ops, probe, probe_ref: float, tracer=None):
        from lidarmoe.cli import main
        self.main = main
        self.ops = ops
        self.tracer = tracer
        self.probe, self.probe_ref = probe, probe_ref
        self.probes: list[float] = []
        self.seconds: dict[str, float] = {}
        self.scaled_seconds = 0.0

    def call(self, sub, config: dict, out: Path, seed: int, result_file: str) -> bool:
        out = Path(out)
        cfg_path = out.with_name(out.name + ".config.json")
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        argv = [sub, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]
        if not self.probes:
            self.probes.append(self.probe())
        idx = self.tracer.open(f"cli.{sub}") if self.tracer is not None else -1
        t0 = time.perf_counter()
        try:
            code = self.main(argv)
        except Exception as exc:  # a crash is a failed operation; the run goes on
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if idx >= 0:
            self.tracer.close(idx)
        self.seconds[sub] = self.seconds.get(sub, 0.0) + elapsed
        self.probes.append(self.probe())
        speed = self.probe_ref / (0.5 * (self.probes[-2] + self.probes[-1]))
        self.scaled_seconds += elapsed * speed
        ok = code == 0 and read_json(out / result_file) is not None
        return self.ops.record(f"{sub} {out.name}", ok, f"exit {code}")


class Workload:
    name = ""
    # datagen config; the dataset seed comes from the run seed
    datagen: dict = {}
    run_config: dict = {}
    # nominal seconds of one repetition (set-up, timed part, checks) on a
    # 2-core x86_64 machine; a run of --seconds makes seconds // repetition_s
    repetition_s = 11.0

    def setup(self, cli: Cli, rep_dir: Path, seed: int) -> dict:
        data = rep_dir / "data"
        cli.call("datagen", self.datagen, data, derive_seed(seed, "data"),
                 "datagen_summary.json")
        return {"data": data, "run_seed": derive_seed(seed, "run")}

    def run(self, cli: Cli, state: dict, out: Path) -> None:
        raise NotImplementedError

    def check(self, ops: Ops, state: dict, out: Path) -> tuple[dict, dict]:
        """Runs the output checks; returns (quality metrics, files to fingerprint)."""
        raise NotImplementedError


def _val_points(dataset: Path) -> int:
    from lidarmoe.dataio import load_manifest, read_lpcd, resolve
    manifest = load_manifest(dataset / "manifest.json")
    return sum(read_lpcd(resolve(dataset, e.scan)).count for e in manifest.val)


def _check_checkpoints(ops: Ops, paths) -> None:
    for path in paths:
        problem = checkpoint_problem(path) if Path(path).exists() else "missing"
        ops.record(f"checkpoint {Path(path).name}", not problem, problem)


def _check_predictions(ops: Ops, path: Path, dataset: Path) -> None:
    want, got = _val_points(dataset), csv_rows(path)
    ops.record(f"predictions rows {path}", got == want,
               f"{got} rows for {want} val points")


def _check_miou(ops: Ops, label: str, value) -> float:
    ops.record(f"miou {label}", miou_ok(value), f"value {value!r}")
    return float(value) if miou_ok(value) else float("nan")


def _final_loss(ops: Ops, sms_results: dict) -> float:
    """Mean training loss of the last stage-3 epoch."""
    losses = sms_results.get("epoch_losses") or [float("nan")]
    ok = isinstance(losses[-1], float) and math.isfinite(losses[-1]) and losses[-1] > 0
    ops.record("sms final loss", ok, f"value {losses[-1]!r}")
    return losses[-1] if ok else float("nan")


class Chain(Workload):
    """pretrain -> cml -> probe -> sms -> eval on one generated dataset."""

    def run(self, cli, state, out):
        data, seed = state["data"], state["run_seed"]
        base = dict(self.run_config, dataset=str(data), seed=seed)
        s1, cml, probe, sms, ev = (out / d for d in ("s1", "cml", "probe", "sms", "eval"))
        cli.call("pretrain", base, s1, seed, "stage1_results.json")
        cli.call("cml", dict(base, stage1_dir=str(s1)), cml, seed, "cml_results.json")
        cli.call("probe", dict(base, checkpoint=str(cml / "cml_student.ckpt")), probe,
                 seed, "probe_summary.json")
        init = {"voxel": str(cml / "cml_student.ckpt"),
                "range": str(s1 / "stage1_range.ckpt"),
                "point": str(s1 / "stage1_point.ckpt")}
        cli.call("sms", dict(base, init=init), sms, seed, "sms_results.json")
        cli.call("eval", dict(base, checkpoint=str(sms / "sms_model.ckpt")), ev, seed,
                 "eval_summary.json")

    def check(self, ops, state, out):
        ckpts = [out / "s1" / f"stage1_{k}.ckpt" for k in ("range", "voxel", "point")]
        ckpts += [out / "cml" / "cml_student.ckpt", out / "sms" / "sms_model.ckpt"]
        _check_checkpoints(ops, ckpts)
        cml = read_json(out / "cml" / "cml_results.json") or {}
        ops.record("experts_frozen", cml.get("experts_frozen") is True)
        probe = read_json(out / "probe" / "probe_summary.json") or {}
        ops.record("backbone_intact", probe.get("backbone_intact") is True)
        preds = out / "eval" / "predictions.csv"
        _check_predictions(ops, preds, state["data"])
        summary = read_json(out / "eval" / "eval_summary.json") or {}
        sms = read_json(out / "sms" / "sms_results.json") or {}
        quality = {f"cli.eval.miou_{h}": _check_miou(ops, f"eval {h}", summary.get(h))
                   for h in HEADS}
        for h in HEADS:
            _check_miou(ops, f"sms {h}", sms.get("val_miou", {}).get(h))
        quality["cli.probe.miou"] = _check_miou(ops, "probe", probe.get("miou"))
        quality["sms_loss"] = _final_loss(ops, sms)
        files = {p.name: p for p in ckpts}
        files["predictions.csv"] = preds
        return quality, files

    def eval_scans(self, state) -> int:
        return len(_val_entries(state["data"]))


def _val_entries(dataset: Path):
    from lidarmoe.dataio import load_manifest
    return load_manifest(dataset / "manifest.json").val


class ChainRef(Chain):
    name = "chain_ref"
    datagen = {}  # the reference dataset: 5 train / 2 val scans, 32 x 192 beams
    run_config = {"epochs": 2, "augment": False, "sms_augment": True, "sms_epochs": 6,
                  "lr_cml": 0.005, "student_init": "stage1", "probe_epochs": 10}


class ChainDenseAug(Chain):
    name = "chain_dense_aug"
    datagen = {"n_train": 2, "n_val": 1, "beam_count": 64, "azimuth_steps": 512,
               "range_h": 64, "range_w": 512}
    run_config = {"epochs": 1, "augment": True, "sms_augment": True, "sms_epochs": 2,
                  "lr_cml": 0.005, "student_init": "stage1", "probe_epochs": 10}
    repetition_s = 8.5


class RobustEval(Workload):
    """Set-up trains a short stage-3 checkpoint; the timed part corrupts the
    val split for every kind x severity and evaluates each copy."""

    name = "robust_eval"
    datagen = {"n_train": 2, "n_val": 6}
    run_config = {"sms_epochs": 2, "sms_augment": False}

    def setup(self, cli, rep_dir, seed):
        state = super().setup(cli, rep_dir, seed)
        sms = rep_dir / "sms"
        cli.call("sms", dict(self.run_config, dataset=str(state["data"]),
                             seed=state["run_seed"]), sms, state["run_seed"],
                 "sms_results.json")
        state["checkpoint"] = sms / "sms_model.ckpt"
        return state

    def copies(self, out):
        from lidarmoe.datagen import CORRUPTION_KINDS
        return [(kind, sev, out / f"{kind}-{sev}") for kind in CORRUPTION_KINDS
                for sev in (1, 2, 3)]

    def run(self, cli, state, out):
        seed = state["run_seed"]
        for kind, sev, base in self.copies(out):
            cli.call("corrupt", {"dataset": str(state["data"]), "kind": kind,
                                 "severity": sev, "split": "val"},
                     base / "data", derive_seed(seed, kind, sev), "corrupt_summary.json")
            cli.call("eval", {"dataset": str(base / "data"), "seed": seed,
                              "checkpoint": str(state["checkpoint"])},
                     base / "eval", seed, "eval_summary.json")

    def check(self, ops, state, out):
        _check_checkpoints(ops, [state["checkpoint"]])
        sms = read_json(state["checkpoint"].with_name("sms_results.json")) or {}
        per_head = {h: [] for h in HEADS}
        files = {state["checkpoint"].name: state["checkpoint"]}
        for kind, sev, base in self.copies(out):
            preds = base / "eval" / "predictions.csv"
            _check_predictions(ops, preds, base / "data")
            summary = read_json(base / "eval" / "eval_summary.json") or {}
            for h in HEADS:
                per_head[h].append(_check_miou(ops, f"{kind}-{sev} {h}", summary.get(h)))
            files[f"{kind}-{sev}/predictions.csv"] = preds
        quality = {f"cli.eval.miou_{h}": statistics.fmean(v) for h, v in per_head.items()}
        quality["cli.probe.miou"] = float("nan")
        quality["sms_loss"] = _final_loss(ops, sms)
        return quality, files

    def eval_scans(self, state) -> int:
        return 9 * len(_val_entries(state["data"]))


WORKLOADS = {w.name: w for w in (ChainRef(), ChainDenseAug(), RobustEval())}
