"""Benchmark entry point.

    python3 benchmarks/run.py --workload chain_ref --seed 1 --seconds 30 --trace 0

Runs one workload in a fresh child process (``worker.py``) with the BLAS
thread count pinned, prints every metric with its unit, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Run it from the root of a checkout; scratch
files go to ``.bench_work/``. Exits non-zero without a result when the
program's sources are missing or the child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def catalogue(trace: int) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lidarmoe" / "cli.py").is_file():
        print(f"no lidarmoe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = catalogue(args.trace)

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    result_path = work.with_suffix(".result.json")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(result_path)]
    # on SIGTERM, unwind through the finally below so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the child's stdout goes to our stderr: our stdout ends with the result
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        code = -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result_path.is_file():
        print(f"worker failed with exit code {code}", file=sys.stderr)
        return 3
    doc = json.loads(result_path.read_text(encoding="utf-8"))

    missing = sorted(set(units) - set(doc["metrics"]))
    if missing:
        print(f"worker reported no value for {missing}", file=sys.stderr)
        return 3
    detail = doc["detail"]
    env_doc = detail["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{detail['repetitions']} repetitions, nproc {env_doc['nproc']}, "
          f"python {env_doc['python']}, numpy {env_doc['numpy']}, "
          f"blas {env_doc['blas']['name']} threads {env_doc['blas']['threads']}")
    for name, seconds in detail.get("measured_s", {}).items():
        print(f"  measured {name:<10} {seconds:12.4f} s (before scaling to the reference speed)")
    for stage, seconds in detail["stage_s"].items():
        print(f"  stage {stage:<10} {seconds:12.4f} s (median per repetition)")
    for name, value in detail["quality"].items():
        print(f"  quality {name:<24} {value:12.4f} (median per repetition)")
    metrics = {}
    for name, unit in units.items():
        value = float(doc["metrics"][name])
        if not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:16.6f} {unit}")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
