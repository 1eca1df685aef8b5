"""Command-line entry point.

Subcommands: datagen, pretrain, cml, sms, probe, eval, corrupt,
route-stats, cosine-map, report. Global flags: --config <path>,
--seed <u64>, --out <dir>. Exit codes: 0 success, 1 usage error,
2 data/contract error. Results are written as CSV/JSON under --out.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (AnalysisError, cosine_map, route_stats, route_bars_svg,
                       scatter_svg, write_cosine_csv, write_route_csv)
from .autodiff import NonFiniteError, ShapeError
from .datagen import corrupt as corrupt_cloud
from .dataio import (DataFormatError, DatasetManifest, ScanEntry, load_manifest,
                     read_lpcd, resolve, save_manifest, write_json, write_lpcd,
                     write_text)
from .geometry import ContractError
from .losses import LossContractError
from .metrics import MetricError, MetricReport, compute_mce_mrr, compute_miou
from .moe import read_gate_csv
from .params import CheckpointError, load_checkpoint
from .pipeline import (PipelineError, RunConfig, embed_cloud, evaluate_store,
                       generate_dataset, linear_probe, load_dataset,
                       load_sensors, stage1_pretrain, stage2_cml, stage3_sms)
from .sensors import ConfigError

USAGE_ERROR = 1
DATA_ERROR = 2

_DATA_ERRORS = (ConfigError, ContractError, DataFormatError, PipelineError,
                MetricError, AnalysisError, LossContractError, CheckpointError,
                ShapeError, NonFiniteError, FileNotFoundError, KeyError,
                json.JSONDecodeError, ValueError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# the keys each run-config subcommand reads besides the RunConfig fields
_OWN_KEYS = {
    "pretrain": (),
    "cml": ("expert_ckpts", "stage1_dir"),
    "sms": ("init",),
    "probe": ("checkpoint", "random_baseline", "representation"),
    "eval": ("checkpoint", "pairs_csv", "split", "num_classes"),
    "cosine-map": ("features_csv", "checkpoint", "cloud", "query_id",
                   "representation"),
}
_RUN_KEYS = frozenset(RunConfig.__dataclass_fields__)


def _load_config(args) -> dict:
    """The --config document; a run-config subcommand rejects unknown keys."""
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    own = _OWN_KEYS.get(args.command)
    if own is not None:
        unknown = sorted(set(doc) - _RUN_KEYS - set(own))
        if unknown:
            raise PipelineError(f"unknown {args.command} config key(s): "
                                f"{', '.join(unknown)}")
    return doc


def _run_config(doc: dict, args) -> RunConfig:
    cfg = RunConfig.from_json({k: v for k, v in doc.items() if k in _RUN_KEYS})
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write_metric_csv(path, report: MetricReport) -> None:
    rows = ["class,tp,fp,fn,iou\n"]
    for c in range(report.tp.shape[0]):
        iou = report.iou[c]
        val = "" if np.isnan(iou) else repr(float(iou))
        rows.append(f"{c},{report.tp[c]},{report.fp[c]},{report.fn[c]},{val}\n")
    write_text(path, "".join(rows))


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_datagen(args):
    doc = _load_config(args)
    out = _out_dir(args)
    generate_dataset(doc, out, args.seed if args.seed is not None else 0)
    manifest = load_manifest(out / "manifest.json")
    write_json(out / "datagen_summary.json",
               {"train_scans": len(manifest.train), "val_scans": len(manifest.val)})
    return 0


def _cmd_pretrain(args):
    doc = _load_config(args)
    cfg = _run_config(doc, args)
    out = _out_dir(args)
    results = stage1_pretrain(cfg, out)
    write_json(out / "stage1_results.json", results)
    return 0


def _cmd_cml(args):
    doc = _load_config(args)
    cfg = _run_config(doc, args)
    out = _out_dir(args)
    if "expert_ckpts" in doc:
        ckpts = doc["expert_ckpts"]
    elif "stage1_dir" in doc:
        d = Path(doc["stage1_dir"])
        ckpts = {k: str(d / f"stage1_{k}.ckpt") for k in ("range", "voxel", "point")}
    else:
        raise PipelineError("cml config needs expert_ckpts or stage1_dir")
    results = stage2_cml(cfg, ckpts, out)
    write_json(out / "cml_results.json", results)
    return 0


def _cmd_sms(args):
    doc = _load_config(args)
    cfg = _run_config(doc, args)
    out = _out_dir(args)
    init = doc.get("init", {})
    results = stage3_sms(cfg, init, out)
    write_json(out / "sms_results.json", results)
    return 0


def _cmd_probe(args):
    doc = _load_config(args)
    cfg = _run_config(doc, args)
    out = _out_dir(args)
    if "checkpoint" not in doc and not doc.get("random_baseline"):
        raise PipelineError("probe config needs checkpoint or random_baseline")
    result = linear_probe(cfg, out, checkpoint=doc.get("checkpoint"),
                          representation=doc.get("representation"))
    _write_metric_csv(out / "probe_metrics.csv", result["report"])
    write_json(out / "probe_summary.json",
               {"miou": result["report"].miou,
                "backbone_intact": bool(result["backbone_intact"])})
    return 0


def _read_pairs_csv(path):
    preds, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "prediction,label":
            raise DataFormatError("pairs CSV must have header prediction,label")
        for line in fh:
            p, l = line.strip().split(",")
            preds.append(int(p))
            labels.append(int(l))
    return np.array(preds, np.int64), np.array(labels, np.int64)


def _cmd_eval(args):
    doc = _load_config(args)
    out = _out_dir(args)
    if "pairs_csv" in doc:
        preds, labels = _read_pairs_csv(doc["pairs_csv"])
        report = compute_miou(preds, labels, int(doc.get("num_classes", 6)))
        _write_metric_csv(out / "metrics.csv", report)
        write_json(out / "eval_summary.json", {"miou": report.miou})
        return 0
    cfg = _run_config(doc, args)
    if "checkpoint" not in doc:
        raise PipelineError("eval config needs checkpoint or pairs_csv")
    split = doc.get("split", "val")
    store, _ = load_checkpoint(doc["checkpoint"])
    data = load_dataset(cfg.dataset)
    reports, fused = evaluate_store(store, cfg, data, split=split)
    for name, report in reports.items():
        _write_metric_csv(out / f"metrics_{name}.csv", report)
    rows = ["scan,point_id,prediction,label\n"]
    for scan, preds in zip(data.scans(split), fused):
        rows.extend(f"{scan.name},{i},{p},{l}\n" for i, (p, l) in
                    enumerate(zip(preds.tolist(), scan.cloud.label.tolist())))
    write_text(out / "predictions.csv", "".join(rows))
    write_json(out / "eval_summary.json",
               {name: report.miou for name, report in reports.items()})
    return 0


def _cmd_corrupt(args):
    doc = _load_config(args)
    out = _out_dir(args)
    dataset = Path(doc["dataset"])
    kind = doc["kind"]
    severity = int(doc["severity"])
    split = doc.get("split", "val")
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    manifest = load_manifest(dataset / "manifest.json")
    entries = manifest.val if split == "val" else manifest.train
    (out / "scans").mkdir(parents=True, exist_ok=True)
    new_entries = []
    for i, entry in enumerate(entries):
        cloud = read_lpcd(resolve(dataset, entry.scan))
        bad = corrupt_cloud(cloud, kind, severity, seed=seed + i)
        rel = f"scans/{split}_{i:03d}.lpcd"
        write_lpcd(out / rel, bad)
        new_entries.append(ScanEntry(scan=rel, camera=None))
    new_manifest = DatasetManifest(num_classes=manifest.num_classes)
    (new_manifest.val if split == "val" else new_manifest.train).extend(new_entries)
    save_manifest(out / "manifest.json", new_manifest)
    shutil.copy(dataset / "sensors.json", out / "sensors.json")
    write_json(out / "corrupt_summary.json",
               {"kind": kind, "severity": severity, "scans": len(new_entries)})
    return 0


def _cmd_route_stats(args):
    doc = _load_config(args)
    out = _out_dir(args)
    gates = read_gate_csv(doc["gates_csv"])
    cloud = read_lpcd(doc["cloud"])
    axis = doc.get("axis", "beam")
    kwargs = {}
    if "distance_edges" in doc:
        kwargs["distance_edges"] = tuple(doc["distance_edges"])
    table = route_stats(gates, cloud, axis, **kwargs)
    write_route_csv(out / f"route_{axis}.csv", table)
    route_bars_svg(out / f"route_{axis}.svg", table, title=f"expert load by {axis}")
    load = table.global_load()
    write_json(out / "route_summary.json", {
        "axis": axis,
        "global_load": load.tolist(),
        "non_degenerate": bool(np.all(load >= 0.05)),
    })
    return 0


def _cmd_cosine_map(args):
    doc = _load_config(args)
    out = _out_dir(args)
    query = int(doc["query_id"])
    cloud = read_lpcd(doc["cloud"]) if "cloud" in doc else None
    if "features_csv" in doc:
        feats = np.loadtxt(doc["features_csv"], delimiter=",", ndmin=2)
    else:
        cfg = _run_config(doc, args)
        store, meta = load_checkpoint(doc["checkpoint"])
        rep = doc.get("representation") or meta.get("student")
        if cloud is None:
            raise PipelineError("cosine-map from a checkpoint needs a cloud")
        sensor, _ = load_sensors(cfg.dataset)
        feats = embed_cloud(store, cfg, sensor, cloud, rep)
    sims, degenerate = cosine_map(feats, query)
    write_cosine_csv(out / "cosine_map.csv", sims, degenerate)
    if cloud is not None:
        scatter_svg(out / "cosine_map.svg", cloud.xyz[:, :2], sims,
                    title=f"cosine similarity vs point {query}")
    write_json(out / "cosine_summary.json",
               {"query_id": query, "zero_norm_rows": int(degenerate.sum())})
    return 0


def _cmd_report(args):
    doc = _load_config(args)
    out = _out_dir(args)
    mce, mrr, per = compute_mce_mrr(doc["model_ious"], doc["baseline_ious"],
                                    float(doc["clean_iou"]))
    write_text(out / "robustness.csv", "corruption,ce,rr\n" + "".join(
        f"{name},{per[name]['ce']!r},{per[name]['rr']!r}\n" for name in sorted(per)))
    write_json(out / "robustness_summary.json", {"mce": mce, "mrr": mrr})
    return 0


_COMMANDS = {
    "datagen": _cmd_datagen,
    "pretrain": _cmd_pretrain,
    "cml": _cmd_cml,
    "sms": _cmd_sms,
    "probe": _cmd_probe,
    "eval": _cmd_eval,
    "corrupt": _cmd_corrupt,
    "route-stats": _cmd_route_stats,
    "cosine-map": _cmd_cosine_map,
    "report": _cmd_report,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="lidarmoe", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    if args.command is None:
        parser.print_help(sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
