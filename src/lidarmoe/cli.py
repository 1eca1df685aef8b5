"""Command-line entry point.

Subcommands: datagen, pretrain, cml, sms, probe, eval, corrupt,
route-stats, cosine-map, report. Global flags: --config <path>,
--seed <non-negative int>, --out <dir>. Exit codes: 0 success, 1 usage
error, 2 bad input: a LidarMoeError or OSError (bad config, dataset,
checkpoint or file). An internal bug propagates with its traceback, which
Python reports as exit 1. Results are written as CSV/JSON under --out
(default: the working directory), which the first write makes, so a command
that rejects its input writes nothing; one that fails later keeps what it
wrote. An --out that is an existing file is rejected before any work.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (DEFAULT_DISTANCE_EDGES, ROUTE_AXES, cosine_map, route_stats,
                       route_bars_svg, scatter_svg, write_cosine_csv, write_route_csv)
from .datagen import CORRUPTION_KINDS, CORRUPTION_SEVERITIES
from .datagen import corrupt as corrupt_cloud
from .dataio import (DatasetManifest, ScanEntry, load_manifest, read_csv,
                     read_json, read_lpcd, resolve, save_manifest, write_json,
                     write_lpcd, write_text)
from .errors import LidarMoeError
from .metrics import MetricReport, compute_mce_mrr, compute_miou
from .moe import read_gate_csv
from .params import load_checkpoint
from .pipeline import (DEFAULT_DATASET_CONFIG, REPRESENTATIONS, RunConfig, backbone_kind,
                       embed_cloud, embedding_width, evaluate_store, generate_dataset,
                       linear_probe, load_dataset, load_sensors, stage1_pretrain,
                       stage2_cml, stage3_sms)
from .sensors import POSITIVE, at_least, config_from_json, one_of, read_key, reject_unknown

USAGE_ERROR = 1
DATA_ERROR = 2

_DATA_ERRORS = (LidarMoeError, OSError)

# glibc's mallopt parameters (malloc.h) and the values the CLI sets. A block
# below 32 MiB comes from the heap, and up to 256 MiB of free heap top stays
# mapped. A repeated in-process datagen + pretrain -> cml -> probe -> sms ->
# eval run at the chain_ref benchmark settings (one BLAS thread, 2-core
# x86_64, glibc 2.36) took 76-120k minor page faults and 0.19-0.41 s of
# system time under glibc's defaults, and 223-554 faults and at most 0.06 s
# with these.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"usage error: {message}\n")


_RUN_KEYS = frozenset(RunConfig.__dataclass_fields__)
_SPLITS = one_of(("train", "val"))
_KINDS = one_of(REPRESENTATIONS)


def _keep_freed_memory() -> None:
    """Make glibc keep freed memory on the heap for reuse.

    Under glibc's defaults, a freed numpy temporary of a few hundred KiB or
    more is unmapped or trimmed off the heap, and the next training step
    page-faults fresh zeroed pages back in. Setting ``M_MMAP_THRESHOLD``
    and ``M_TRIM_THRESHOLD`` keeps those pages resident for the next
    allocation. Both are set, because setting either one turns off glibc's
    dynamic thresholds and leaves the other at its 128 KiB default.

    Only the CLI calls this: importing ``lidarmoe`` leaves a host process's
    allocator alone, and a direct caller of ``pipeline`` keeps the default
    (compare ``resource.getrusage(...).ru_minflt`` before and after a
    call). Where the C library has no ``mallopt`` (macOS, Windows) this
    does nothing; musl's ``mallopt`` does nothing itself. Setting the same
    values again changes nothing, so each ``main`` call may run it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library by name None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _load_config(args) -> dict:
    """The --config document; every subcommand rejects unknown keys."""
    if args.config is None:
        return {}
    doc = read_json(args.config)
    reject_unknown(doc, _COMMANDS[args.command][1], f"{args.command} config")
    return doc


def _run_config(doc: dict, args) -> RunConfig:
    cfg = config_from_json(RunConfig, doc, "run config")
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


def _prediction_rows(scan: str, preds, labels) -> str:
    """The ``scan,point_id,prediction,label`` rows of one scan, formatted
    by one ``%`` over a repeated template."""
    table = np.column_stack([np.arange(len(preds)), preds, labels])
    return (scan.replace("%", "%%") + ",%d,%d,%d\n") * len(preds) \
        % tuple(table.ravel().tolist())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_datagen(args, doc):
    generate_dataset(doc, args.out, args.seed if args.seed is not None else 0)
    manifest = load_manifest(args.out / "manifest.json")
    write_json(args.out / "datagen_summary.json",
               {"train_scans": len(manifest.train), "val_scans": len(manifest.val)})


def _cmd_pretrain(args, doc):
    results = stage1_pretrain(_run_config(doc, args), args.out)
    write_json(args.out / "stage1_results.json", results)


def _cmd_cml(args, doc):
    cfg = _run_config(doc, args)
    if "expert_ckpts" in doc:
        given = read_key(doc, "cml config", "expert_ckpts", "dict")
        ckpts = {k: read_key(given, "cml config expert_ckpts", k, "str")
                 for k in REPRESENTATIONS}
    elif "stage1_dir" in doc:
        d = Path(read_key(doc, "cml config", "stage1_dir", "str"))
        ckpts = {k: str(d / f"stage1_{k}.ckpt") for k in REPRESENTATIONS}
    else:
        raise LidarMoeError("cml config needs expert_ckpts or stage1_dir")
    results = stage2_cml(cfg, ckpts, args.out)
    write_json(args.out / "cml_results.json", results)


def _cmd_sms(args, doc):
    cfg = _run_config(doc, args)
    init = read_key(doc, "sms config", "init", "dict", {})
    init = {k: read_key(init, "sms config init", k, "str") for k in init}
    results = stage3_sms(cfg, init, args.out)
    write_json(args.out / "sms_results.json", results)


def _cmd_probe(args, doc):
    cfg = _run_config(doc, args)
    rep = read_key(doc, "probe config", "representation", "str", None, _KINDS)
    baseline = read_key(doc, "probe config", "random_baseline", "bool", False)
    if "checkpoint" not in doc and not baseline:
        raise LidarMoeError("probe config needs checkpoint or random_baseline")
    result = linear_probe(
        cfg, args.out, checkpoint=read_key(doc, "probe config", "checkpoint", "str", None),
        representation=rep)
    _write_metric_csv(args.out / "probe_metrics.csv", result["report"])
    write_json(args.out / "probe_summary.json",
               {"miou": result["report"].miou,
                "backbone_intact": bool(result["backbone_intact"])})


def _cmd_eval(args, doc):
    if "pairs_csv" in doc:
        path = read_key(doc, "eval config", "pairs_csv", "str")
        num_classes = read_key(doc, "eval config", "num_classes", "int", 6, at_least(1))
        pairs = read_csv(path, "prediction,label", np.int64)
        if pairs.size and np.all(pairs[:, 1] < 0):
            raise LidarMoeError(f"{path}: every label is -1 (unlabeled)")
        report = compute_miou(pairs[:, 0], pairs[:, 1], num_classes)
        _write_metric_csv(args.out / "metrics.csv", report)
        write_json(args.out / "eval_summary.json", {"miou": report.miou})
        return
    cfg = _run_config(doc, args)
    if "checkpoint" not in doc:
        raise LidarMoeError("eval config needs checkpoint or pairs_csv")
    split = read_key(doc, "eval config", "split", "str", "val", _SPLITS)
    path = read_key(doc, "eval config", "checkpoint", "str")
    store, _ = load_checkpoint(path)
    for kind in REPRESENTATIONS:
        if f"{kind}.logit_head.w" not in store.names():
            raise LidarMoeError(f"checkpoint {path} has no {kind} logit head "
                                "(only sms checkpoints have one)")
    data = load_dataset(cfg.dataset)
    reports, fused = evaluate_store(store, cfg, data, split=split)
    for name, report in reports.items():
        _write_metric_csv(args.out / f"metrics_{name}.csv", report)
    write_text(args.out / "predictions.csv", "scan,point_id,prediction,label\n" + "".join(
        _prediction_rows(scan.name, preds, scan.cloud.label)
        for scan, preds in zip(data.scans(split), fused)))
    write_json(args.out / "eval_summary.json",
               {name: report.miou for name, report in reports.items()})


def _cmd_corrupt(args, doc):
    dataset = Path(read_key(doc, "corrupt config", "dataset", "str"))
    kind = read_key(doc, "corrupt config", "kind", "str", rule=one_of(CORRUPTION_KINDS))
    severity = read_key(doc, "corrupt config", "severity", "int",
                        rule=one_of(CORRUPTION_SEVERITIES))
    split = read_key(doc, "corrupt config", "split", "str", "val", _SPLITS)
    seed = read_key(doc, "corrupt config", "seed", "int", 0, at_least(0))
    seed = seed if args.seed is None else args.seed
    manifest = load_manifest(dataset / "manifest.json")
    sensors = read_json(dataset / "sensors.json")
    # every input is read and corrupted before the first write
    bad = [corrupt_cloud(read_lpcd(resolve(dataset, entry.scan)), kind, severity,
                         seed=seed + i)
           for i, entry in enumerate(getattr(manifest, split))]
    new_manifest = DatasetManifest(num_classes=manifest.num_classes)
    for i, cloud in enumerate(bad):
        rel = f"scans/{split}_{i:03d}.lpcd"
        write_lpcd(args.out / rel, cloud)
        getattr(new_manifest, split).append(ScanEntry(scan=rel))
    save_manifest(args.out / "manifest.json", new_manifest)
    write_json(args.out / "sensors.json", sensors)
    write_json(args.out / "corrupt_summary.json",
               {"kind": kind, "severity": severity, "scans": len(bad)})


def _cmd_route_stats(args, doc):
    gates_path = read_key(doc, "route-stats config", "gates_csv", "str")
    cloud_path = read_key(doc, "route-stats config", "cloud", "str")
    gates, cloud = read_gate_csv(gates_path), read_lpcd(cloud_path)
    if len(gates) != cloud.count:
        raise LidarMoeError(f"{gates_path}: {len(gates)} rows for a cloud of "
                            f"{cloud.count} points ({cloud_path})")
    axis = read_key(doc, "route-stats config", "axis", "str", "beam", one_of(ROUTE_AXES))
    edges = read_key(doc, "route-stats config", "distance_edges", "numbers",
                     DEFAULT_DISTANCE_EDGES)
    table = route_stats(gates, cloud, axis, edges)
    write_route_csv(args.out / f"route_{axis}.csv", table)
    route_bars_svg(args.out / f"route_{axis}.svg", table, title=f"expert load by {axis}")
    load = table.global_load()
    write_json(args.out / "route_summary.json", {
        "axis": axis,
        "global_load": load.tolist(),
        "non_degenerate": bool(np.all(load >= 0.05)),
    })


def _cmd_cosine_map(args, doc):
    query = read_key(doc, "cosine-map config", "query_id", "int", rule=at_least(0))
    cloud = read_key(doc, "cosine-map config", "cloud", "str", None)
    cloud = None if cloud is None else read_lpcd(cloud)
    if "features_csv" in doc:
        path = read_key(doc, "cosine-map config", "features_csv", "str")
        try:
            feats = np.loadtxt(path, delimiter=",", ndmin=2)
            if not np.all(np.isfinite(feats)):
                raise ValueError("non-finite value")
            if cloud is not None and len(feats) != cloud.count:
                raise ValueError(f"{len(feats)} rows for a cloud of {cloud.count} points")
        except ValueError as exc:
            raise LidarMoeError(f"{path}: {exc}") from exc
    else:
        cfg = _run_config(doc, args)
        rep = read_key(doc, "cosine-map config", "representation", "str", None, _KINDS)
        path = read_key(doc, "cosine-map config", "checkpoint", "str")
        store, _ = load_checkpoint(path)
        if cloud is None:
            raise LidarMoeError("cosine-map from a checkpoint needs a cloud")
        sensor, _ = load_sensors(cfg.dataset)
        kind = backbone_kind(store, rep, path)
        embedding_width(store, kind, path)
        feats = embed_cloud(store, cfg, sensor, cloud, kind)
    if query >= len(feats):
        raise LidarMoeError(f"cosine-map config query_id must be < {len(feats)} "
                            f"(feature rows), got {query}")
    sims, degenerate = cosine_map(feats, query)
    write_cosine_csv(args.out / "cosine_map.csv", sims, degenerate)
    if cloud is not None:
        scatter_svg(args.out / "cosine_map.svg", cloud.xyz[:, :2], sims,
                    title=f"cosine similarity vs point {query}")
    write_json(args.out / "cosine_summary.json",
               {"query_id": query, "zero_norm_rows": int(degenerate.sum())})


def _cmd_report(args, doc):
    mce, mrr, per = compute_mce_mrr(
        read_key(doc, "report config", "model_ious", "dict"),
        read_key(doc, "report config", "baseline_ious", "dict"),
        float(read_key(doc, "report config", "clean_iou", "float", rule=POSITIVE)))
    write_text(args.out / "robustness.csv", "corruption,ce,rr\n" + "".join(
        f"{name},{per[name]['ce']!r},{per[name]['rr']!r}\n" for name in sorted(per)))
    write_json(args.out / "robustness_summary.json", {"mce": mce, "mrr": mrr})


# each subcommand's handler and the config keys it accepts
_COMMANDS = {
    "datagen": (_cmd_datagen, frozenset(DEFAULT_DATASET_CONFIG)),
    "pretrain": (_cmd_pretrain, _RUN_KEYS),
    "cml": (_cmd_cml, _RUN_KEYS | {"expert_ckpts", "stage1_dir"}),
    "sms": (_cmd_sms, _RUN_KEYS | {"init"}),
    "probe": (_cmd_probe, _RUN_KEYS | {"checkpoint", "random_baseline", "representation"}),
    "eval": (_cmd_eval, _RUN_KEYS | {"checkpoint", "pairs_csv", "split", "num_classes"}),
    "corrupt": (_cmd_corrupt, {"dataset", "kind", "severity", "split", "seed"}),
    "route-stats": (_cmd_route_stats, {"gates_csv", "cloud", "axis", "distance_edges"}),
    "cosine-map": (_cmd_cosine_map, _RUN_KEYS | {"features_csv", "checkpoint", "cloud",
                                                 "query_id", "representation"}),
    "report": (_cmd_report, {"model_ious", "baseline_ious", "clean_iou"}),
}


def _seed(text: str) -> int:
    """A --seed value: a non-negative decimal integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="lidarmoe", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--out", type=Path, default=".")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    if args.command is None:
        _PARSER.print_help(sys.stderr)
        return USAGE_ERROR
    try:
        if args.out.exists() and not args.out.is_dir():
            raise LidarMoeError(f"--out {args.out} exists and is not a directory")
        _COMMANDS[args.command][0](args, _load_config(args))
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
