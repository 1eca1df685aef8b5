"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail
line. Criteria 6-9 share one reference-pipeline fixture, which runs the
reference protocol of ``chain.py`` through the CLI: the default synthetic
dataset (5 train / 2 val scenes, ~4096 points per scan, 64-dim
embeddings, 6 classes) trained for 50 epochs in stages 1-2 and 50
supervised epochs, for three fixed seeds. Criterion 10 runs the chain of
``fingerprint_chain.py`` twice and compares every file it writes.
"""

import json
import math
import time

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph
from lidarmoe.encoders import (build_point_embed, build_range_embed,
                               build_voxel_embed, init_encoder_params,
                               point_grouping, voxel_neighbor_pairs)
from lidarmoe.geometry import project_to_range, range_uv_exact, voxelize
from lidarmoe.losses import (build_cross_entropy, build_info_nce,
                             build_lovasz_softmax, build_sms_total)
from lidarmoe.metrics import compute_mce_mrr, compute_miou
from lidarmoe.moe import REPRESENTATIONS, build_moe, init_moe_params, read_gate_csv
from lidarmoe.analysis import route_stats, write_route_csv, route_bars_svg
from lidarmoe.params import ParameterStore
from lidarmoe.pipeline import load_dataset
from lidarmoe.pointcloud import PointCloud
from lidarmoe.sensors import SensorModel

import fingerprint_chain
from chain import (SEEDS, baseline_probe, datagen, fingerprints, reference_chain,
                   run_config, run_steps)
from graph_eval import evaluate_builder
from oracles import info_nce_bruteforce, lovasz_bruteforce, range_uv_scalar


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference_ds")
    run_steps(root, [datagen("data")])
    return root / "data"


@pytest.fixture(scope="module")
def reference_runs(reference_dataset, tmp_path_factory):
    """Each seed's results of the reference chain plus the random-baseline
    probe, by output directory, with the seed, run root and probe seconds."""
    work = tmp_path_factory.mktemp("reference_runs")
    records = []
    for seed in SEEDS:
        run, base = run_config(reference_dataset, seed), work / f"seed{seed}"
        steps = reference_chain(run) + [baseline_probe(run)]
        seconds = dict(zip([out for _, _, out in steps], run_steps(base, steps)))
        record = {out: json.loads((base / out / name).read_text()) for out, name in (
            ("s1", "stage1_results.json"), ("cml", "cml_results.json"),
            ("probe", "probe_summary.json"), ("probe_random", "probe_summary.json"),
            ("sms", "sms_results.json"))}
        record.update(seed=seed, base=base, probe_seconds=sum(
            seconds[k] for k in ("s1", "cml", "probe", "probe_random")))
        records.append(record)
    return records


# -- criterion 1: gradient integrity ------------------------------------------

def test_criterion_1_gradient_integrity(rng):
    t0 = time.time()
    checks = {}
    n, d, c = 24, 8, 4

    def cloud():
        xyz = rng.uniform(-8, 8, (n, 3)).astype(np.float32)
        xyz[:, 2] = rng.uniform(-1.5, 2.0, n)
        return PointCloud(xyz, rng.uniform(0, 1, n), rng.integers(0, 8, n),
                          rng.integers(0, c, n))

    # range encoder (dense grid at realistic magnitudes; empty cells sit
    # exactly on the relu kink where central differences are undefined)
    store = ParameterStore()
    init_encoder_params(store, "range", d, np.random.default_rng(0))
    grid = np.concatenate([np.random.default_rng(1).standard_normal((6, 8, 3)) * 15,
                           np.random.default_rng(2).uniform(0, 1, (6, 8, 1)),
                           np.random.default_rng(3).uniform(5, 40, (6, 8, 1))],
                          axis=2).astype(np.float32)
    def range_embed(ctx):
        return build_range_embed(ctx, ctx.input("x"), "range", "head")
    g = Graph(lambda ctx: {"loss": ad.mean_all(ad.mul(range_embed(ctx), range_embed(ctx)))})
    checks["encoder_range"] = ad.grad_check(g, store, {"x": grid}, eps=1e-5)

    # voxel encoder
    store = ParameterStore()
    init_encoder_params(store, "voxel", d, np.random.default_rng(4))
    vg = voxelize(cloud(), (4.0, 4.0, 4.0))
    pairs = voxel_neighbor_pairs(vg)
    def voxel_embed(ctx):
        return build_voxel_embed(ctx, ctx.input("x"), pairs, "voxel", "head")
    g = Graph(lambda ctx: {"loss": ad.mean_all(ad.mul(voxel_embed(ctx), voxel_embed(ctx)))})
    checks["encoder_voxel"] = ad.grad_check(g, store, {"x": vg.features}, eps=1e-5)

    # point encoder
    store = ParameterStore()
    init_encoder_params(store, "point", d, np.random.default_rng(5))
    pc = cloud()
    grouping = point_grouping(pc, 5, 4)
    def point_embed(ctx):
        return build_point_embed(ctx, ctx.input("x"), grouping, "point", "head")
    g = Graph(lambda ctx: {"loss": ad.mean_all(ad.mul(point_embed(ctx), point_embed(ctx)))})
    checks["encoder_point"] = ad.grad_check(g, store, {"x": pc.features()}, eps=1e-5)

    # gated fusion, feature and logit mode
    for mode, width in (("moe_fuse", d), ("moe_fuse_logits", c)):
        store = ParameterStore()
        init_moe_params(store, width, np.random.default_rng(6))
        store.set("moe.z_gate", 0.1 * np.random.default_rng(7)
                  .standard_normal((width, 3)).astype(np.float32))
        store.set("moe.z_noise", 0.1 * np.random.default_rng(8)
                  .standard_normal((width, 3)).astype(np.float32))
        inputs = {k: rng.standard_normal((n, width)).astype(np.float32)
                  for k in ("r", "v", "p")}
        target = rng.standard_normal((n, width)).astype(np.float32)

        def build(ctx):
            fused, _ = build_moe(ctx, ad.concat_cols([ctx.input(k) for k in "rvp"]), "moe")
            err = ad.sub(fused, ad.as_var(target))
            return {"loss": ad.mean_all(ad.mul(err, err))}

        checks[mode] = ad.grad_check(Graph(build), store, inputs,
                                     seed=3, eps=1e-4)

    # losses over trainable logit/embedding inputs
    store = ParameterStore()
    store.add("k", rng.standard_normal((6, d)).astype(np.float32))
    store.add("q", rng.standard_normal((6, d)).astype(np.float32))
    g = Graph(lambda ctx: {"loss": build_info_nce(ctx.param("k"),
                                                  ctx.param("q"), 0.1)})
    checks["info_nce"] = ad.grad_check(g, store, {})

    labels = rng.integers(0, c, n)
    store = ParameterStore()
    store.add("logits", rng.standard_normal((n, c)).astype(np.float32))
    g = Graph(lambda ctx: {"loss": build_cross_entropy(ctx.param("logits"), labels)})
    checks["cross_entropy"] = ad.grad_check(g, store, {})

    store = ParameterStore()
    store.add("logits", rng.standard_normal((n, c)).astype(np.float32))
    g = Graph(lambda ctx: {"loss": build_lovasz_softmax(
        ad.softmax_rows(ctx.param("logits")), labels)})
    checks["lovasz_softmax"] = ad.grad_check(g, store, {}, eps=1e-4)

    label_map = {"fused": rng.integers(0, c, n), "point": rng.integers(0, c, n),
                 "range": rng.integers(-1, c, n), "voxel": rng.integers(0, c, 12)}
    store = ParameterStore()
    for key, lab in label_map.items():
        store.add(key, rng.standard_normal((len(lab), c)).astype(np.float32))

    def build_sms(ctx):
        total, _ = build_sms_total({k: ctx.param(k) for k in label_map},
                                   label_map)
        return {"loss": total}

    checks["sms_total"] = ad.grad_check(Graph(build_sms), store, {}, eps=1e-4)

    elapsed = time.time() - t0
    worst = max(checks.values())
    detail = (f"max rel err {worst:.3g} over {sorted(checks)} "
              f"in {elapsed:.1f}s (< 120s)")
    report(1, worst < 1e-4 and elapsed < 120.0, detail)


# -- criterion 2: gate laws ----------------------------------------------------

def test_criterion_2_gate_laws(rng):
    n, d = 10_000, 8
    store = ParameterStore()
    init_moe_params(store, d, np.random.default_rng(0))
    store.set("moe.z_gate", rng.standard_normal((d, 3)).astype(np.float32))
    store.set("moe.z_noise", rng.standard_normal((d, 3)).astype(np.float32))
    r = rng.standard_normal((n, d)).astype(np.float32)
    v = rng.standard_normal((n, d)).astype(np.float32)
    p = rng.standard_normal((n, d)).astype(np.float32)
    _, gates = _fuse(r, v, p, store, train_mode=True, seed=5)
    sums_ok = np.all(np.abs(gates.sum(axis=1) - 1.0) <= 1e-6)
    nonneg_ok = np.all(gates >= 0)

    fused_same, _ = _fuse(r, r, r, store, train_mode=True, seed=6)
    identical_ok = np.max(np.abs(fused_same - r)) <= 1e-6

    # logit fusion at inference (zeta = 0): no noise, so the seed is moot
    a, ga = _fuse(r[:, :4], v[:, :4], p[:, :4], _logit_params(),
                  train_mode=False, seed=1)
    b, gb = _fuse(r[:, :4], v[:, :4], p[:, :4], _logit_params(),
                  train_mode=False, seed=2)
    zeta_ok = np.array_equal(a, b) and np.array_equal(ga, gb)

    fresh = ParameterStore()
    init_moe_params(fresh, d, np.random.default_rng(1))
    _, g0 = _fuse(r, v, p, fresh, train_mode=False)
    third = np.float32(1.0) / np.float32(3.0)
    uniform_ok = np.all(g0 == third)

    ok = sums_ok and nonneg_ok and identical_ok and zeta_ok and uniform_ok
    report(2, ok, f"rows sum to 1: {sums_ok}, nonneg: {nonneg_ok}, "
                  f"identical-fuse: {identical_ok}, zeta0 bit-identical: {zeta_ok}, "
                  f"zero-init uniform: {uniform_ok} (n={n})")


def _fuse(r, v, p, store, train_mode, seed=0):
    """(fused, gates) arrays of the gated fusion, noisy in train mode."""
    return evaluate_builder(
        lambda ctx: build_moe(ctx, ad.concat_cols([ctx.input(k) for k in "rvp"]), "moe"),
        {"r": r, "v": v, "p": p}, store, train_mode=train_mode, seed=seed)


def _logit_params():
    store = ParameterStore()
    init_moe_params(store, 4, np.random.default_rng(2))
    store.set("moe.z_gate", np.random.default_rng(3)
              .standard_normal((4, 3)).astype(np.float32))
    return store


# -- criterion 3: projection round trips ---------------------------------------

def test_criterion_3_projection_roundtrips(rng):
    sensor = SensorModel(beam_count=32, azimuth_steps=256, fov_total_rad=0.7,
                         fov_down_rad=0.45, max_range_m=80.0, range_h=32, range_w=256)
    n = 100_000
    azim = rng.uniform(-np.pi, np.pi, n)
    elev = rng.uniform(-sensor.fov_down_rad + 1e-4,
                       sensor.fov_total_rad - sensor.fov_down_rad - 1e-4, n)
    radius = rng.uniform(1.0, 60.0, n)
    xyz = np.stack([radius * np.cos(elev) * np.cos(azim),
                    radius * np.cos(elev) * np.sin(azim),
                    radius * np.sin(elev)], axis=1).astype(np.float32)
    u, v, _ = range_uv_exact(xyz, sensor)
    worst = 0.0
    for i in range(n):
        ue, ve = range_uv_scalar(float(xyz[i, 0]), float(xyz[i, 1]),
                                 float(xyz[i, 2]), sensor)
        worst = max(worst,
                    abs(u[i] - ue) / max(1.0, abs(ue)),
                    abs(v[i] - ve) / max(1.0, abs(ve)))
    eq1_ok = worst <= 1e-9

    cloud = PointCloud(xyz, rng.uniform(0, 1, n), rng.integers(0, 32, n),
                       rng.integers(0, 6, n))
    ri = project_to_range(cloud, sensor)
    bounds_ok = (ri.pixel_u.shape[0] == n
                 and np.all((ri.pixel_u >= 0) & (ri.pixel_u < sensor.range_w))
                 and np.all((ri.pixel_v >= 0) & (ri.pixel_v < sensor.range_h)))

    sub = cloud.select(np.arange(0, n, 17))
    grid = voxelize(sub, (2.0, 3.0, 1.5))
    feats = np.concatenate([sub.xyz, sub.intensity[:, None]], axis=1).astype(np.float64)
    voxel_err = 0.0
    for m in range(grid.count):
        members = feats[grid.point_voxel == m]
        exact = members.mean(axis=0)
        voxel_err = max(voxel_err, np.max(np.abs(grid.features[m] - exact))
                        / max(1.0, np.max(np.abs(exact))))
    m_ok = grid.count <= sub.count

    ok = eq1_ok and bounds_ok and m_ok and voxel_err <= 1e-9
    report(3, ok, f"eq1 worst rel {worst:.2e} (<=1e-9), pixel map in bounds: "
                  f"{bounds_ok}, voxel mean rel err {voxel_err:.2e} (<=1e-9), "
                  f"M<=N: {m_ok}")


# -- criterion 4: loss oracles --------------------------------------------------

def test_criterion_4_loss_oracles(rng):
    def info_nce(k, q, tau, denom="all"):
        return float(evaluate_builder(
            lambda ctx: build_info_nce(ctx.input("k"), ctx.input("q"), tau, denom),
            {"k": k, "q": q}))

    def lovasz_softmax(probs, labels):
        return float(evaluate_builder(
            lambda ctx: build_lovasz_softmax(ctx.input("probs"), labels),
            {"probs": probs}))

    worst_nce = 0.0
    for trial in range(100):
        s = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        k = rng.standard_normal((s, d)).astype(np.float32)
        q = rng.standard_normal((s, d)).astype(np.float32)
        tau = float(rng.uniform(0.05, 1.5))
        denom = "all" if trial % 2 == 0 else "exclude_positive"
        worst_nce = max(worst_nce, abs(info_nce(k, q, tau, denom)
                                       - info_nce_bruteforce(k, q, tau, denom)))
    k = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    worked = abs(info_nce(k, k, 1.0) - math.log(1 + math.exp(-1)))

    worst_lov = 0.0
    for _ in range(100):
        pts = int(rng.integers(1, 7))
        probs = rng.dirichlet(np.ones(3), size=pts).astype(np.float32)
        labels = rng.integers(0, 3, pts)
        worst_lov = max(worst_lov, abs(lovasz_softmax(probs, labels)
                                       - lovasz_bruteforce(probs, labels)))
    ok = worst_nce <= 1e-6 and worked <= 1e-6 and worst_lov <= 1e-6
    report(4, ok, f"info_nce vs brute force {worst_nce:.2e}, worked value "
                  f"err {worked:.2e}, lovasz vs direct {worst_lov:.2e} (<=1e-6)")


# -- criterion 5: metric formulas ------------------------------------------------

def test_criterion_5_metric_formulas():
    preds = [0] * 75 + [1] * 25
    labels = [0] * 50 + [1] * 25 + [0] * 25
    iou50 = compute_miou(preds, labels, 2).iou[0]
    iou_ok = iou50 == 50.0

    same = {"x": [50.0, 40.0, 30.0]}
    mce_same, _, _ = compute_mce_mrr(same, same, clean_iou=60.0)
    _, rr_clean, _ = compute_mce_mrr({"x": [70.0, 70.0, 70.0]},
                                     {"x": [50.0, 40.0, 30.0]}, clean_iou=70.0)
    mce, mrr, _ = compute_mce_mrr({"x": [60.0, 50.0, 40.0]},
                                  {"x": [50.0, 40.0, 30.0]}, clean_iou=70.0)
    ce_ok = abs(mce_same - 100.0) < 1e-9
    rr_ok = abs(rr_clean - 100.0) < 1e-9
    worked_ok = (abs(mce - 100.0 * 150.0 / 180.0) <= 0.01
                 and abs(mrr - 100.0 * 150.0 / 210.0) <= 0.01)
    ok = iou_ok and ce_ok and rr_ok and worked_ok
    report(5, ok, f"IoU(50,25,25)={iou50}, CE@baseline={mce_same:.2f}, "
                  f"RR@clean={rr_clean:.2f}, worked CE={mce:.2f} RR={mrr:.2f}")


# -- criteria 6-8: reference pipeline trends -------------------------------------

def test_criterion_6_pretraining_helps(reference_runs):
    gaps = [r["probe"]["miou"] - r["probe_random"]["miou"] for r in reference_runs]
    seconds = sum(r["probe_seconds"] for r in reference_runs)
    gap = float(np.mean(gaps))
    ok = gap >= 5.0 and seconds < 600.0
    report(6, ok, f"probe gap avg {gap:+.2f} mIoU (>= 5.0), per-seed "
                  f"{[f'{g:+.2f}' for g in gaps]}, runtime {seconds:.0f}s (< 600s)")


def test_criterion_7_fusion_helps(reference_runs):
    margins = []
    means = []
    for r in reference_runs:
        val = r["sms"]["val_miou"]
        best = max(val["range"], val["voxel"], val["point"])
        margins.append(val["fused"] - best)
        means.append(val["fused"] - float(np.mean([val["range"], val["voxel"],
                                                   val["point"]])))
    every_ok = all(m >= -0.5 for m in margins)
    mean_ok = float(np.mean(means)) >= 0.0
    ok = every_ok and mean_ok
    gate_rows = [np.round(last_epoch_gate_row(r["base"] / "sms" / "sms_log.csv"), 3).tolist()
                 for r in reference_runs]
    report(7, ok, f"fused-vs-best margins {[f'{m:+.2f}' for m in margins]} "
                  f"(each >= -0.5), fused-minus-mean avg {np.mean(means):+.2f} (>= 0), "
                  f"per-seed SMS gate mean row over the last epoch {gate_rows} "
                  f"({', '.join(REPRESENTATIONS)})")


def last_epoch_gate_row(log):
    """Each ``gate_load_<kind>`` term of a training log averaged over the
    steps of its last epoch, in ``REPRESENTATIONS`` order."""
    rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
    ends = [int(step) for step, _, term, _ in rows if term == "epoch_loss"]
    start = ends[-2] if len(ends) > 1 else 0
    return [float(np.mean([float(value) for step, _, term, value in rows
                           if term == f"gate_load_{kind}" and int(step) >= start]))
            for kind in REPRESENTATIONS]


def test_criterion_8_convergence(reference_runs):
    ratios = {}
    for r in reference_runs:
        seed = r["seed"]
        for kind, res in r["s1"].items():
            losses = res["epoch_losses"]
            ratios[f"s1-{kind}@{seed}"] = losses[-1] / losses[0]
        cml = r["cml"]["epoch_losses"]
        ratios[f"cml@{seed}"] = cml[-1] / cml[0]
    worst = max(ratios.values())
    report(8, worst <= 0.5,
           f"worst final/epoch1 loss ratio {worst:.3f} (<= 0.5) over {len(ratios)} runs")


# -- criterion 9: route analysis --------------------------------------------------

def test_criterion_9_route_analysis(reference_runs, reference_dataset, tmp_path):
    record = reference_runs[0]
    gates_files = sorted((record["base"] / "cml").glob("cml_gates_*.csv"))
    assert gates_files, "reference CML run produced no gate exports"
    data = load_dataset(reference_dataset)
    scan = data.train[0]
    scores = read_gate_csv(gates_files[0])
    tables = {}
    for axis in ("beam", "distance-bin"):
        table = route_stats(scores, scan.cloud, axis)
        write_route_csv(tmp_path / f"route_{axis}.csv", table)
        route_bars_svg(tmp_path / f"route_{axis}.svg", table)
        tables[axis] = table
    sums_ok = all(np.all(np.abs(t.loads.sum(axis=1) - 1.0) <= 1e-6)
                  for t in tables.values())
    emitted_ok = all((tmp_path / f"route_{axis}.{ext}").exists()
                     for axis in tables for ext in ("csv", "svg"))

    n = scan.cloud.count
    onehot = np.zeros((n, 3), np.float32)
    onehot[:, 0] = 1.0
    table = route_stats(onehot, scan.cloud, "beam")
    onehot_ok = np.array_equal(table.loads, np.tile([1.0, 0.0, 0.0],
                                                    (len(table.buckets), 1)))

    load = tables["beam"].global_load()
    degenerate_flag = bool(np.all(load >= 0.05))
    ok = sums_ok and emitted_ok and onehot_ok
    report(9, ok, f"row sums ok: {sums_ok}, one-hot fixture exact: {onehot_ok}, "
                  f"CSV/SVG emitted: {emitted_ok}, global load "
                  f"{np.round(load, 3).tolist()} (>=5% flag: {degenerate_flag})")


# -- criterion 10: end-to-end determinism ------------------------------------------

def test_criterion_10_determinism(tmp_path):
    for root in ("a", "b"):
        run_steps(tmp_path / root, fingerprint_chain.STEPS)
    a, b = fingerprints(tmp_path / "a"), fingerprints(tmp_path / "b")
    differ = sorted({line.split("  ", 1)[1] for line in set(a) ^ set(b)})
    report(10, a == b, f"{len(a)} files of the fingerprint chain bit-identical "
                       f"across two runs: {differ or 'all'}")
