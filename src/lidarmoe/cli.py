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
from .datagen import CORRUPTION_KINDS, CORRUPTION_SEVERITIES, NUM_CLASSES
from .datagen import corrupt as corrupt_cloud
from .dataio import (DatasetManifest, ScanEntry, atomic_write, load_manifest, read_csv,
                     read_json, read_lpcd, resolve, save_manifest, write_json,
                     write_lpcd, write_text)
from .errors import LidarMoeError
from .metrics import MetricReport, compute_mce_mrr, compute_miou
from .moe import REPRESENTATIONS, moe_shapes, read_gate_csv
from .params import load_checkpoint
from .pipeline import (RunConfig, backbone_kind, check_off_origin, check_param_shapes,
                       embed_view, embedding_width, evaluate_store, generate_dataset,
                       linear_probe, load_dataset, load_sensors, make_view, stage1_pretrain,
                       stage2_cml, stage3_sms)
from .sensors import (POSITIVE, REQUIRED, at_least, config_from_json, one_of, read_key,
                      reject_unknown)

USAGE_ERROR = 1
DATA_ERROR = 2

_DATA_ERRORS = (LidarMoeError, OSError)

# glibc's mallopt parameters (malloc.h) and the values the CLI sets: a block
# below 32 MiB comes from the heap, up to 256 MiB of free heap top stays
# mapped, and every thread shares one arena (see _keep_freed_memory)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20
_ARENA_MAX = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"usage error: {message}\n")


_SPLITS = one_of(("train", "val"))
_KINDS = one_of(REPRESENTATIONS)
_PATH = (lambda v: v != ""), "a non-empty path"


def _keep_freed_memory() -> None:
    """Make glibc keep freed memory on the heap for reuse.

    Under glibc's defaults, a freed numpy temporary of a few hundred KiB or
    more is unmapped or trimmed off the heap, and the next training step
    page-faults fresh zeroed pages back in. Setting ``M_MMAP_THRESHOLD``
    and ``M_TRIM_THRESHOLD`` keeps those pages resident for the next
    allocation. Both are set, because setting either one turns off glibc's
    dynamic thresholds and leaves the other at its 128 KiB default.
    ``M_ARENA_MAX`` 1 makes every thread allocate from the one main arena,
    so evaluation's view-building thread keeps no heap of its own.

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
    mallopt(_M_ARENA_MAX, _ARENA_MAX)


def _read_config(args):
    """``(run config, keys)`` of the --config document, checked by the
    subcommand's ``_COMMANDS`` row before its handler starts: unknown keys
    are rejected, the run config is built where the row asks for one (else
    None), and each of the row's keys is read in row order. Datagen's row
    has no keys: its whole document is returned for ``generate_dataset``."""
    _, run, keys = _COMMANDS[args.command]
    doc = {} if args.config is None else read_json(args.config)
    if keys is None:
        return None, doc
    owner = f"{args.command} config"
    reject_unknown(doc, [*keys, *(RunConfig.__dataclass_fields__ if run else ())], owner)
    cfg = config_from_json(RunConfig, doc, "run config") if run else None
    if cfg is not None and args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg, {key: read_key(doc, owner, key, *spec) for key, spec in keys.items()}


def _source(command, opts, a, b):
    """``a`` or ``b``, whichever of a subcommand's two alternative sources
    ``opts`` gives; raises LidarMoeError when it gives both or neither."""
    given = [key for key in (a, b) if opts[key] not in (None, False)]
    if len(given) != 1:
        raise LidarMoeError(f"{command} config takes {a} or {b}, not both" if given
                            else f"{command} config needs {a} or {b}")
    return given[0]


def _checkpoint_map(command, opts, key, kinds=None):
    """The ``opts[key]`` map of representation to checkpoint path, read at
    ``kinds`` (default: its own keys); raises LidarMoeError on a key that
    is no representation or a path that is not a non-empty string."""
    owner = f"{command} config {key}"
    reject_unknown(opts[key], REPRESENTATIONS, owner)
    return {k: read_key(opts[key], owner, k, "str", rule=_PATH) for k in kinds or opts[key]}


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

def _cmd_datagen(args, _, doc):
    manifest = generate_dataset(doc, args.out, args.seed or 0)
    write_json(args.out / "datagen_summary.json",
               {"train_scans": len(manifest.train), "val_scans": len(manifest.val)})


def _cmd_pretrain(args, cfg, _):
    write_json(args.out / "stage1_results.json", stage1_pretrain(cfg, args.out))


def _cmd_cml(args, cfg, opts):
    if _source("cml", opts, "expert_ckpts", "stage1_dir") == "expert_ckpts":
        ckpts = _checkpoint_map("cml", opts, "expert_ckpts", REPRESENTATIONS)
    else:
        ckpts = {k: str(Path(opts["stage1_dir"]) / f"stage1_{k}.ckpt")
                 for k in REPRESENTATIONS}
    write_json(args.out / "cml_results.json", stage2_cml(cfg, ckpts, args.out))


def _cmd_sms(args, cfg, opts):
    write_json(args.out / "sms_results.json",
               stage3_sms(cfg, _checkpoint_map("sms", opts, "init"), args.out))


def _cmd_probe(args, cfg, opts):
    _source("probe", opts, "checkpoint", "random_baseline")
    result = linear_probe(cfg, args.out, checkpoint=opts["checkpoint"],
                          representation=opts["representation"])
    _write_metric_csv(args.out / "probe_metrics.csv", result["report"])
    write_json(args.out / "probe_summary.json", {
        "miou": result["report"].miou, "backbone_intact": bool(result["backbone_intact"])})


def _cmd_eval(args, cfg, opts):
    if _source("eval", opts, "checkpoint", "pairs_csv") == "pairs_csv":
        path = opts["pairs_csv"]
        pairs = read_csv(path, "prediction,label", np.int64)
        if not pairs.size:
            raise LidarMoeError(f"{path}: no prediction,label row")
        if np.all(pairs[:, 1] < 0):
            raise LidarMoeError(f"{path}: every label is -1 (unlabeled)")
        report = compute_miou(pairs[:, 0], pairs[:, 1], opts["num_classes"])
        _write_metric_csv(args.out / "metrics.csv", report)
        write_json(args.out / "eval_summary.json", {"miou": report.miou})
        return
    split, path = opts["split"], opts["checkpoint"]
    store, _ = load_checkpoint(path)
    classes = {k: embedding_width(store, k, path, "logit_head") for k in REPRESENTATIONS}
    for kind in REPRESENTATIONS:
        backbone_kind(store, kind, path)
    data = load_dataset(cfg.dataset)
    for kind, count in classes.items():
        if count != data.num_classes:
            raise LidarMoeError(f"checkpoint {path} scores {count} classes in its {kind} "
                                f"logit head, but dataset {cfg.dataset} has {data.num_classes}")
    check_param_shapes(store, moe_shapes(data.num_classes), path)
    reports, fused = evaluate_store(store, cfg, data, split=split)
    for name, report in reports.items():
        _write_metric_csv(args.out / f"metrics_{name}.csv", report)
    write_text(args.out / "predictions.csv", "scan,point_id,prediction,label\n" + "".join(
        _prediction_rows(scan.name, preds, scan.cloud.label)
        for scan, preds in zip(data.scans(split), fused)))
    write_json(args.out / "eval_summary.json",
               {name: report.miou for name, report in reports.items()})


def _cmd_corrupt(args, _, opts):
    dataset, split = Path(opts["dataset"]), opts["split"]
    kind, severity = opts["kind"], opts["severity"]
    seed = opts["seed"] if args.seed is None else args.seed
    manifest = load_manifest(dataset / "manifest.json")
    load_sensors(dataset)  # checked here, copied byte for byte below
    sensors = (dataset / "sensors.json").read_bytes()
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
    atomic_write(args.out / "sensors.json", lambda fh: fh.write(sensors))
    write_json(args.out / "corrupt_summary.json",
               {"kind": kind, "severity": severity, "scans": len(bad)})


def _cmd_route_stats(args, _, opts):
    gates_path, cloud_path, axis = opts["gates_csv"], opts["cloud"], opts["axis"]
    gates, cloud = read_gate_csv(gates_path), read_lpcd(cloud_path)
    if len(gates) != cloud.count:
        raise LidarMoeError(f"{gates_path}: {len(gates)} rows for a cloud of "
                            f"{cloud.count} points ({cloud_path})")
    try:
        table = route_stats(gates, cloud, axis, opts["distance_edges"])
    except LidarMoeError as exc:
        raise LidarMoeError(f"route-stats of {cloud_path}: {exc}") from exc
    write_route_csv(args.out / f"route_{axis}.csv", table)
    route_bars_svg(args.out / f"route_{axis}.svg", table, title=f"expert load by {axis}")
    load = table.global_load()
    write_json(args.out / "route_summary.json", {"axis": axis, "global_load": load.tolist(),
                                                 "non_degenerate": bool(np.all(load >= 0.05))})


def _cmd_cosine_map(args, cfg, opts):
    from_csv = _source("cosine-map", opts, "features_csv", "checkpoint") == "features_csv"
    if not from_csv and opts["cloud"] is None:
        raise LidarMoeError("cosine-map from a checkpoint needs a cloud")
    query = opts["query_id"]
    cloud = None if opts["cloud"] is None else read_lpcd(opts["cloud"])
    if from_csv:
        path = opts["features_csv"]
        try:
            feats = np.loadtxt(path, delimiter=",", ndmin=2)
            if not np.all(np.isfinite(feats)):
                raise ValueError("non-finite value")
            if cloud is not None and len(feats) != cloud.count:
                raise ValueError(f"{len(feats)} rows for a cloud of {cloud.count} points")
        except ValueError as exc:
            raise LidarMoeError(f"{path}: {exc}") from exc
    else:
        path = opts["checkpoint"]
        check_off_origin(cloud, f"cloud {opts['cloud']}")
        store, _ = load_checkpoint(path)
        sensor, _ = load_sensors(cfg.dataset)
        kind = backbone_kind(store, opts["representation"], path)
        embedding_width(store, kind, path)
        feats = embed_view(store, make_view(kind, cloud, sensor, cfg), kind)
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


def _cmd_report(args, _, opts):
    mce, mrr, per = compute_mce_mrr(opts["model_ious"], opts["baseline_ious"],
                                    float(opts["clean_iou"]))
    write_text(args.out / "robustness.csv", "corruption,ce,rr\n" + "".join(
        f"{name},{per[name]['ce']!r},{per[name]['rr']!r}\n" for name in sorted(per)))
    write_json(args.out / "robustness_summary.json", {"mce": mce, "mrr": mrr})


# each subcommand's handler, whether it reads a run config, and its own config
# keys, {key: read_key's (type[, default[, rule]])}: every key is read in row
# order before the handler starts. Datagen's document goes whole to
# generate_dataset, its one checker.
_COMMANDS = {
    "datagen": (_cmd_datagen, False, None),
    "pretrain": (_cmd_pretrain, True, {}),
    "cml": (_cmd_cml, True, {"expert_ckpts": ("dict", None), "stage1_dir": ("str", None)}),
    "sms": (_cmd_sms, True, {"init": ("dict", {})}),
    "probe": (_cmd_probe, True, {"representation": ("str", None, _KINDS),
                                 "random_baseline": ("bool", False),
                                 "checkpoint": ("str", None)}),
    "eval": (_cmd_eval, True, {"pairs_csv": ("str", None),
                               "num_classes": ("int", NUM_CLASSES, at_least(1)),
                               "checkpoint": ("str", None),
                               "split": ("str", "val", _SPLITS)}),
    "corrupt": (_cmd_corrupt, False, {
        "dataset": ("str",), "kind": ("str", REQUIRED, one_of(CORRUPTION_KINDS)),
        "severity": ("int", REQUIRED, one_of(CORRUPTION_SEVERITIES)),
        "split": ("str", "val", _SPLITS), "seed": ("int", 0, at_least(0))}),
    "route-stats": (_cmd_route_stats, False, {
        "gates_csv": ("str",), "cloud": ("str",), "axis": ("str", "beam", one_of(ROUTE_AXES)),
        "distance_edges": ("numbers", DEFAULT_DISTANCE_EDGES)}),
    "cosine-map": (_cmd_cosine_map, True, {
        "query_id": ("int", REQUIRED, at_least(0)), "cloud": ("str", None),
        "features_csv": ("str", None), "representation": ("str", None, _KINDS),
        "checkpoint": ("str", None)}),
    "report": (_cmd_report, False, {"model_ious": ("dict",), "baseline_ious": ("dict",),
                                    "clean_iou": ("float", REQUIRED, POSITIVE)}),
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
        _COMMANDS[args.command][0](args, *_read_config(args))
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
