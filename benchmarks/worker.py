"""One benchmark run in a fresh process; started by ``run.py``.

Repeats set-up + timed part + checks, one dataset per repetition, a fixed
number of times derived from ``--seconds`` and the workload's nominal
repetition length, timing a calibration kernel around every subcommand
call. With ``--trace 1`` every repetition runs the timed part three times on the same dataset: untraced,
traced, and untraced again, so the tracer's overhead is measured against an
equally warm pass and all three passes' output digests must match. Writes
the result document to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from checks import DigestBook, Ops  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Cli, derive_seed  # noqa: E402

# subcommands the workloads time; each has a cli.<name>.wall_s layer metric
TIMED_SUBCOMMANDS = ("pretrain", "cml", "probe", "sms", "eval", "corrupt")
# calibration_s() on the reference machine in its usual state. End-to-end
# times are scaled to that speed: each subcommand call's measured seconds x
# REFERENCE_CALIBRATION_S / (mean calibration_s() just before and after the
# call). On a shared machine whose own speed drifts by tens of percent within
# minutes, this keeps the drift out of the comparison while leaving the
# program's work untouched.
REFERENCE_CALIBRATION_S = 0.06


def calibration_s() -> float:
    """Time of a fixed numpy + Python kernel that runs no lidarmoe code."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    idx = rng.integers(0, 4096, 20_000)
    acc = np.zeros(4096)
    t0 = time.perf_counter()
    for _ in range(60):
        a = np.tanh(a @ a / 192.0)
    for _ in range(8):
        np.add.at(acc, idx, 1.0)
    total = 0
    for i in range(500_000):
        total += i & 7
    return time.perf_counter() - t0


def source_digest() -> str:
    """Digest of the program and benchmark sources: fingerprints recorded
    under one digest come from the same code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        lib = None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            threads = int(fn())
            break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def environment() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info()}


def _median(values):
    """Median of the finite values; 0.0 when there are none."""
    values = [v for v in values if v == v]
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.spans_prefix = Path(args.work).resolve()
        self.ops = Ops()
        self.source_digest = source_digest()
        self.book = DigestBook(ROOT / ".bench_work" / "digests" / self.source_digest
                               / f"{args.workload}-{args.seed}.json")
        self.reps: list[dict] = []

    def cli(self, tracer=None):
        return Cli(self.ops, calibration_s, REFERENCE_CALIBRATION_S, tracer)

    def timed(self, state, out, tracer=None):
        cli = self.cli(tracer)
        self.workload.run(cli, state, out)
        return cli

    def check(self, state, out, key):
        quality, files = self.workload.check(self.ops, state, out)
        self.book.check(self.ops, key, files)
        return quality

    def cross_check(self, tracer, out):
        """Span counts must agree with the program's own records."""
        calls = layers.summarize(tracer.spans)[0]
        loss_rows = appended = 0
        for log in out.rglob("*_log.csv"):
            with open(log, "r", encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            appended += len(rows)
            loss_rows += sum(1 for r in rows if r.split(",")[2] == "loss")
        pairs = {
            "autodiff.backward": loss_rows,
            "dataio.TrainingLog.append": appended,
            "params.save_checkpoint": len(list(out.rglob("*.ckpt"))),
            "dataio.write_lpcd": len(list(out.rglob("*.lpcd"))),
        }
        for name, want in pairs.items():
            got = calls.get(name, 0)
            self.ops.record(f"trace cross-check {name}", got == want,
                            f"{got} spans, program records {want}")

    def repetition(self, index):
        rep_dir = Path(f"rep{index}")
        seed = derive_seed(self.args.seed, self.args.workload, index)
        setup_tracer = Tracer() if self.args.trace else None
        if setup_tracer is not None:
            layers.install(setup_tracer)
        setup_cli = self.cli()
        t0 = time.perf_counter()
        try:
            state = self.workload.setup(setup_cli, rep_dir, seed)
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        rep = {"setup_s": time.perf_counter() - t0 - sum(setup_cli.probes),
               "setup_ref_s": setup_cli.scaled_seconds}
        out = rep_dir / "run"
        cli = self.timed(state, out)
        rep["stages"] = cli.seconds
        rep["wall_ref_s"] = cli.scaled_seconds
        rep["calibration_s"] = setup_cli.probes + cli.probes
        rep["quality"] = self.check(state, out, f"rep{index}")
        if self.args.trace:
            traced_out = rep_dir / "traced"
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = self.timed(state, traced_out, tracer)
            finally:
                tracer.uninstall()
            self.check(state, traced_out, f"rep{index}")
            self.cross_check(tracer, traced_out)
            tracer.write_csv(f"{self.spans_prefix}-rep{index}-spans.csv")
            # the first pass warmed the process up; compare the traced pass
            # with a second, equally warm, untraced one
            again_out = rep_dir / "again"
            again = self.timed(state, again_out)
            rep["stages"] = again.seconds
            self.check(state, again_out, f"rep{index}")
            rep["layers"] = layers.layer_metrics(
                tracer, setup_tracer, sum(traced.seconds.values()),
                traced.scaled_seconds / again.scaled_seconds - 1.0,
                self.workload.eval_scans(state))
        rep["wall_s"] = sum(rep["stages"].values())
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    def execute(self):
        # a fixed number of repetitions, not a deadline: every run of a seed
        # then measures the same datasets, whatever the machine's speed
        passes = 3 if self.args.trace else 1
        count = max(1, int(self.args.seconds // (passes * self.workload.repetition_s)))
        for index in range(count):
            self.reps.append(self.repetition(index))
        self.book.save()

    def result(self) -> dict:
        reps = self.reps
        stage_names = sorted({s for r in reps for s in r["stages"]})
        detail = {
            "repetitions": len(reps),
            "stage_s": {s: _median([r["stages"].get(s, 0.0) for r in reps])
                        for s in stage_names},
            "failures": self.ops.failures,
            "per_repetition": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
            "environment": environment(),
            "source_digest": self.source_digest,
        }
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = {k: _median([r["quality"][k] for r in reps]) for k in reps[0]["quality"]}
        detail["quality"] = quality
        if self.args.trace:
            metrics = {n: statistics.fmean(r["layers"][n] for r in reps)
                       for n in reps[0]["layers"]}
            for stage in TIMED_SUBCOMMANDS:
                metrics[f"cli.{stage}.wall_s"] = detail["stage_s"].get(stage, 0.0)
            metrics.update((k, v) for k, v in quality.items() if k.startswith("cli."))
        else:
            detail["measured_s"] = {"wall_s": _median([r["wall_s"] for r in reps]),
                                    "setup_s": _median([r["setup_s"] for r in reps])}
            metrics = {
                "wall_s": _median([r["wall_ref_s"] for r in reps]),
                "setup_s": _median([r["setup_ref_s"] for r in reps]),
                "peak_rss_mb": peak_rss_mb,
                "sms_loss": quality["sms_loss"],
            }
        detail["peak_rss_mb"] = peak_rss_mb
        return {"attempted": self.ops.attempted, "failed": self.ops.failed,
                "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import lidarmoe
    if Path(lidarmoe.__file__).resolve().parent != ROOT / "src" / "lidarmoe":
        print(f"lidarmoe imported from {lidarmoe.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import lidarmoe.cli  # noqa: F401  (loads every module the tracer wraps)

    # paths in the subcommand configs are relative to the work directory,
    # so outputs (whose metadata holds the config digest) do not depend on it
    run = Run(args)
    os.chdir(args.work)
    run.execute()
    doc = run.result()
    Path(args.result).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
