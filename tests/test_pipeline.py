"""Stage contracts: initialization equality at zero epochs, determinism,
freeze guarantees, warm starts, gradient integrity, and evaluation."""

import re
import threading
import tracemalloc

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph, NonFiniteError
from lidarmoe.dataio import load_manifest
from lidarmoe.moe import read_gate_csv
from lidarmoe.errors import LidarMoeError
from lidarmoe.params import ParameterStore, load_checkpoint
from lidarmoe.pipeline import (DEFAULT_DATASET_CONFIG, REPRESENTATIONS, RunConfig,
                               _inputs, _sms_store, _step_seed, _train_epochs,
                               build_group_mean,
                               evaluate_store, generate_dataset,
                               init_backbone_store, linear_probe, load_dataset,
                               make_view, stage1_pretrain, stage2_cml,
                               stage3_sms)
from lidarmoe.losses import build_info_nce
from lidarmoe.encoders import param_names, teacher_features, teacher_weights
from lidarmoe.geometry import SuperpointPartition
from lidarmoe.sensors import CameraModel, SensorModel, config_from_json, config_to_json

from oracles import pooled_two_gathers

from dataclasses import fields, replace
from types import SimpleNamespace


def ckpts_of(results):
    return {k: v["checkpoint"] for k, v in results.items()}


MOE_NAMES = ["moe.fusion.w", "moe.fusion.b", "moe.z_gate", "moe.z_noise"]


def test_dataset_generation_deterministic(tmp_path):
    from lidarmoe.pipeline import DEFAULT_DATASET_CONFIG
    doc = dict(DEFAULT_DATASET_CONFIG)
    doc.update(n_train=1, n_val=1, azimuth_steps=64, range_w=64)
    a = tmp_path / "a"
    b = tmp_path / "b"
    written = generate_dataset(doc, a, seed=3)
    generate_dataset(doc, b, seed=3)
    for rel in ("scans/train_000.lpcd", "scans/val_000.lpcd", "manifest.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    assert written == load_manifest(a / "manifest.json")


def test_manifest_counts(tiny_dataset):
    manifest = load_manifest(tiny_dataset / "manifest.json")
    assert len(manifest.train) == 2
    assert len(manifest.val) == 1
    assert all(e.camera for e in manifest.train)


def test_stage1_zero_epochs_equals_init(tiny_config, tmp_path):
    cfg = replace(tiny_config, epochs=0)
    results = stage1_pretrain(cfg, tmp_path)
    loaded, meta = load_checkpoint(results["voxel"]["checkpoint"])
    fresh = init_backbone_store("voxel", cfg, "stage1")
    assert loaded.state_equal(fresh)
    assert meta["stage"] == "stage1-voxel"
    assert meta["seed"] == cfg.seed


def test_stage1_deterministic(tiny_config, tmp_path):
    r1 = stage1_pretrain(tiny_config, tmp_path / "a")
    r2 = stage1_pretrain(tiny_config, tmp_path / "b")
    a = (tmp_path / "a" / "stage1_range.ckpt").read_bytes()
    b = (tmp_path / "b" / "stage1_range.ckpt").read_bytes()
    assert a == b
    assert r1["range"]["epoch_losses"] == r2["range"]["epoch_losses"]


def test_stage1_loss_is_finite_and_logged(tiny_config, tmp_path):
    results = stage1_pretrain(tiny_config, tmp_path)
    losses = results["point"]["epoch_losses"]
    assert len(losses) == tiny_config.epochs
    assert all(np.isfinite(l) for l in losses)
    log = (tmp_path / "stage1_point_log.csv").read_text()
    assert log.startswith("step,stage,term,value")


def test_stage1_single_step_gradient_matches_fd(tiny_config):
    """Micro-scale stage-1 objective passes the finite-difference check."""
    from lidarmoe.geometry import build_superpoints
    cfg = replace(tiny_config, embed_dim=6, centroid_count=6, knn_k=4)
    data = load_dataset(cfg.dataset)
    scan = data.train[0]
    whole = build_superpoints(scan.cloud, data.camera, scan.render.superpixel,
                              scan.render.depth, tolerance=cfg.superpoint_tolerance)
    assigned = np.flatnonzero(whole.point_group >= 0)
    cloud = scan.cloud.select(assigned[:: max(1, assigned.size // 48)][:48])
    partition = build_superpoints(cloud, data.camera, scan.render.superpixel,
                                  scan.render.depth,
                                  tolerance=cfg.superpoint_tolerance)
    assert partition.count >= 2
    teacher = teacher_weights(data.num_classes, cfg.embed_dim,
                              _step_seed(cfg.seed, "teacher"))
    q = teacher_features(scan.render, teacher)
    target = q[partition.superpixel_of]
    store = init_backbone_store("point", cfg, "gradtest")
    view = make_view("point", cloud, data.sensor, cfg)

    def build(ctx):
        feats = view.aligned(ctx, "point")
        k = build_group_mean(feats, partition)
        return {"loss": build_info_nce(k, ad.as_var(target), cfg.temperature)}

    # eps=1e-5: ground points share near-identical coordinates, so wider
    # steps cross relu/max kinks; differences still run in float64
    assert ad.grad_check(Graph(build), store, _inputs({"point": view}), eps=1e-5) < 1e-4


def test_stage2_zero_epochs_student_equals_warm_start(tiny_config, tmp_path):
    s1 = stage1_pretrain(replace(tiny_config, epochs=1), tmp_path / "s1")
    cfg = replace(tiny_config, epochs=0)
    result = stage2_cml(cfg, ckpts_of(s1), tmp_path / "cml")
    student, meta = load_checkpoint(result["checkpoint"])
    expert, _ = load_checkpoint(s1["voxel"]["checkpoint"])
    for name in expert.names():
        assert np.array_equal(student.get(name), expert.get(name))
    assert meta["student"] == "voxel"


def test_stage2_zero_epochs_random_student_equals_its_fresh_init(tiny_config, tmp_path):
    """With ``student_init`` random, the student starts from its own fresh
    backbone, not from the stage-1 checkpoint, and the experts stay frozen."""
    s1 = stage1_pretrain(replace(tiny_config, epochs=1), tmp_path / "s1")
    cfg = replace(tiny_config, epochs=0, student_init="random")
    result = stage2_cml(cfg, ckpts_of(s1), tmp_path / "cml")
    student, _ = load_checkpoint(result["checkpoint"])
    fresh = init_backbone_store(cfg.student, cfg, "cml-student")
    stage1, _ = load_checkpoint(s1[cfg.student]["checkpoint"])
    for name in fresh.names():
        assert np.array_equal(student.get(name), fresh.get(name))
    assert any(not np.array_equal(student.get(n), stage1.get(n)) for n in stage1.names())
    assert result["experts_frozen"]


def test_stage2_freezes_experts_and_reports(tiny_config, tmp_path):
    s1 = stage1_pretrain(replace(tiny_config, epochs=1), tmp_path / "s1")
    result = stage2_cml(tiny_config, ckpts_of(s1), tmp_path / "cml")
    assert result["experts_frozen"]
    assert len(result["epoch_losses"]) == tiny_config.epochs
    gates = list((tmp_path / "cml").glob("cml_gates_*.csv"))
    assert len(gates) == result["usable_scans"]


def test_stage2_reads_each_expert_checkpoint_once(tiny_config, tmp_path,
                                                  monkeypatch):
    import lidarmoe.pipeline as pipeline
    s1 = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "s1")
    read = []

    def counting(path):
        read.append(str(path))
        return load_checkpoint(path)

    monkeypatch.setattr(pipeline, "load_checkpoint", counting)
    result = stage2_cml(replace(tiny_config, epochs=1), ckpts_of(s1), tmp_path / "cml")
    assert sorted(read) == sorted(ckpts_of(s1).values())
    assert result["experts_frozen"]


def test_stage2_reports_an_expert_changed_during_training(tiny_config, tmp_path,
                                                          monkeypatch):
    """``experts_frozen`` compares each expert store against its copy taken
    at load, so a changed expert value makes it False."""
    import lidarmoe.pipeline as pipeline
    s1 = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "s1")

    def embed_and_touch_expert(store, view, kind, _embed=pipeline.embed_view):
        out = _embed(store, view, kind)
        if kind == "point":
            store.set("point.head.b", store.get("point.head.b") + 1.0)
        return out

    monkeypatch.setattr(pipeline, "embed_view", embed_and_touch_expert)
    result = stage2_cml(replace(tiny_config, epochs=1), ckpts_of(s1), tmp_path / "cml")
    assert result["experts_frozen"] is False


@pytest.mark.parametrize("student,student_init", [("voxel", "stage1"),
                                                  ("range", "random")])
def test_stage2_backprops_only_the_student_and_gate(student, student_init, tiny_config,
                                                    tmp_path, monkeypatch):
    """Every ``ad.backward`` call of a CML run gets a store of the
    student's backbone and the gate alone: no expert is in the graph that
    trains, and the store it gets is the one the checkpoint holds."""
    s1 = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "s1")
    handed, backward = [], ad.backward

    def recording(graph, store, inputs, **kwargs):
        handed.append(store.names())
        return backward(graph, store, inputs, **kwargs)

    monkeypatch.setattr(ad, "backward", recording)
    cfg = replace(tiny_config, epochs=2, student=student, student_init=student_init)
    result = stage2_cml(cfg, ckpts_of(s1), tmp_path / "cml")
    saved, _ = load_checkpoint(result["checkpoint"])
    assert {n.split(".")[0] for n in saved.names()} == {student, "moe"}
    assert saved.names() == sum(param_names(student), []) + MOE_NAMES
    assert len(handed) == 2 * result["usable_scans"]
    assert all(names == saved.names() for names in handed)


def test_stage2_exports_the_student_and_gate_it_trained(tiny_config, tmp_path):
    s1 = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "s1")
    result = stage2_cml(replace(tiny_config, epochs=1), ckpts_of(s1), tmp_path / "cml")
    student, meta = load_checkpoint(result["checkpoint"])
    expert, _ = load_checkpoint(s1["voxel"]["checkpoint"])
    assert student.names() == expert.names() + MOE_NAMES
    assert student.names() == sum(param_names("voxel"), []) + MOE_NAMES
    assert any(not np.array_equal(student.get(n), expert.get(n))
               for n in expert.names())
    assert (meta["stage"], meta["student"], meta["seed"]) == ("cml", "voxel", 1)


def test_cml_logs_the_gate_terms_of_the_gates_it_exports(tiny_config, tmp_path):
    """Each step of the last CML epoch logs the column means and mean row
    entropy of the train-mode gates that the gate CSV of its scan holds."""
    s1 = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "s1")
    stage2_cml(replace(tiny_config, epochs=2), ckpts_of(s1), tmp_path / "cml")
    rows = [line.split(",") for line in
            (tmp_path / "cml" / "cml_log.csv").read_text().splitlines()[1:]]
    last = int(next(step for step, _, term, _ in rows if term == "epoch_loss"))
    logged = sorted(tuple(float(value) for step, _, term, value in rows
                          if int(step) == s and term.startswith("gate_"))
                    for s in range(last, 2 * last))
    exported = []
    for path in (tmp_path / "cml").glob("cml_gates_*.csv"):
        gates = read_gate_csv(path).astype(np.float64)
        logs = np.log(gates, out=np.zeros_like(gates), where=gates > 0)
        # log rows are in term-name order: entropy, then load point, range, voxel
        exported.append((-np.sum(gates * logs, axis=1).mean(), *gates.mean(axis=0)[[2, 0, 1]]))
    assert len(logged) == 2
    np.testing.assert_allclose(logged, sorted(exported), rtol=1e-12)


def test_make_view_rejects_an_unknown_representation(tiny_config):
    data = load_dataset(tiny_config.dataset)
    with pytest.raises(LidarMoeError, match="unknown representation: mesh"):
        make_view("mesh", data.val[0].cloud, data.sensor, tiny_config)


@pytest.mark.parametrize("kind", REPRESENTATIONS)
def test_pooled_gives_the_bytes_of_the_two_gather_form(kind, tiny_config):
    """One composed gather from encoder rows to assigned points gives the
    forward and every parameter grad of align-then-gather, in float32 and
    in exact float64, with unassigned points and two points in one cell
    or voxel."""
    data = load_dataset(tiny_config.dataset)
    cloud = data.train[0].cloud
    cloud = cloud.select(np.r_[np.arange(0, cloud.count, cloud.count // 60)[:60], 0])
    group = np.random.default_rng(3).integers(-1, 5, cloud.count)
    group[[0, -1]] = 2  # point 0 twice: one cell, one voxel
    partition = SuperpointPartition(group, np.arange(5))
    view = make_view(kind, cloud, data.sensor, tiny_config)
    if kind != "point":
        assert view.gather[0] == view.gather[-1]
    store = init_backbone_store(kind, tiny_config, "pool-test")
    weights = np.random.default_rng(4).standard_normal((5, tiny_config.embed_dim), np.float32)

    def graph(pool):
        def build(ctx):
            pooled = pool(ctx)
            return {"loss": ad.sum_all(ad.mul(pooled, ad.as_var(weights))),
                    "pooled": pooled}
        return Graph(build)

    def run(graph, dtype):
        if dtype == np.float32:
            return ad.backward(graph, store, _inputs({kind: view}))
        outs, grads = ad._param_grads(graph, store, _inputs({kind: view}), 0,
                                      dtype)  # exact mode
        return {k: v.data for k, v in outs.items()}, grads

    new = graph(lambda ctx: view.pooled(ctx, kind, partition))
    old = graph(lambda ctx: pooled_two_gathers(view, ctx, kind, partition))
    for dtype in (np.float32, np.float64):
        (outs_new, grads_new), (outs_old, grads_old) = (run(g, dtype) for g in (new, old))
        assert outs_new["pooled"].dtype == dtype
        assert outs_new["pooled"].tobytes() == outs_old["pooled"].tobytes()
        assert sorted(grads_new) == sorted(grads_old) == sorted(store.names())
        for name in grads_new:
            assert grads_new[name].dtype == grads_old[name].dtype
            assert grads_new[name].tobytes() == grads_old[name].tobytes(), name


def _count_views(monkeypatch):
    """Every ``make_view`` call as (kind, id of its cloud)."""
    import lidarmoe.pipeline as pipeline
    calls, make = [], pipeline.make_view

    def counting(kind, cloud, *args):
        calls.append((kind, id(cloud)))
        return make(kind, cloud, *args)

    monkeypatch.setattr(pipeline, "make_view", counting)
    return calls


def test_unaugmented_stages_build_one_view_per_scan_and_kind(tiny_config, tmp_path,
                                                              monkeypatch):
    """Over 3 epochs of stage 1 and of CML, each (scan, kind) view is built
    once, and CML's student (pooled) runs on its expert's (aligned) view
    object."""
    import lidarmoe.pipeline as pipeline
    from lidarmoe.pipeline import _superpoint_scans
    cfg = replace(tiny_config, epochs=3, augment=False)
    usable = len(_superpoint_scans(cfg, load_dataset(cfg.dataset))[0])
    calls = _count_views(monkeypatch)
    s1 = stage1_pretrain(cfg, tmp_path / "s1")
    assert len(calls) == len(set(calls)) == usable * len(REPRESENTATIONS)

    used = {}
    for method in ("aligned", "pooled"):
        def recording(view, ctx, prefix, *rest, _method=getattr(pipeline.ReprView, method),
                      _name=method):
            used.setdefault((_name, prefix), set()).add(id(view))
            return _method(view, ctx, prefix, *rest)
        monkeypatch.setattr(pipeline.ReprView, method, recording)
    calls.clear()
    stage2_cml(cfg, ckpts_of(s1), tmp_path / "cml")
    assert len(calls) == len(set(calls)) == usable * len(REPRESENTATIONS)
    student = used[("pooled", "voxel")]
    assert len(student) == usable and student == used[("aligned", "voxel")]


@pytest.mark.parametrize("augment", [False, True])
def test_every_graph_input_is_read_under_its_encoders_prefix(augment, tiny_config,
                                                             tmp_path, monkeypatch):
    """Each graph of stage 1, CML, SMS and ``evaluate_store`` reads every
    input handed to ``ad.backward``/``ad.evaluate``, and an encoder's
    features are the input named by its parameter prefix."""
    import lidarmoe.pipeline as pipeline
    cfg = replace(tiny_config, epochs=1, sms_epochs=1, student="voxel",
                  augment=augment, sms_augment=augment)
    runs, read = [], []

    def recording(run):
        def wrapped(graph, store, inputs, **kwargs):
            read.clear()
            outs = run(graph, store, inputs, **kwargs)
            runs.append((sorted(inputs), sorted(set(read))))
            return outs
        return wrapped

    def reading(ctx, name, _input=ad.GraphContext.input):
        read.append(name)
        return _input(ctx, name)

    for name in ("backward", "evaluate"):
        monkeypatch.setattr(ad, name, recording(getattr(ad, name)))
    monkeypatch.setattr(ad.GraphContext, "input", reading)
    for name in ("build_range_embed", "build_voxel_embed", "build_point_embed"):
        def checked(ctx, feats, *rest, _encoder=getattr(pipeline, name)):
            assert feats is ctx.input(rest[-2])  # rest ends with (prefix, head)
            return _encoder(ctx, feats, *rest)
        monkeypatch.setattr(pipeline, name, checked)

    def inputs_of(run_stage):
        runs.clear()
        result = run_stage()
        assert runs and all(handed == got for handed, got in runs)
        return result, {tuple(handed) for handed, _ in runs}

    s1, names = inputs_of(lambda: stage1_pretrain(cfg, tmp_path / "s1"))
    assert names == {(k,) for k in REPRESENTATIONS}
    # each expert is evaluated on its own view, then the student trains on its own
    _, names = inputs_of(lambda: stage2_cml(cfg, ckpts_of(s1), tmp_path / "cml"))
    assert names == {(k,) for k in REPRESENTATIONS}
    result, names = inputs_of(lambda: stage3_sms(cfg, {}, tmp_path / "sms"))
    assert names == {tuple(sorted(REPRESENTATIONS))}
    store, _ = load_checkpoint(result["checkpoint"])
    _, names = inputs_of(lambda: evaluate_store(store, cfg, load_dataset(cfg.dataset)))
    assert names == {tuple(sorted(REPRESENTATIONS))}


def test_augmented_stages_keep_no_views(tiny_config, tmp_path, monkeypatch):
    import lidarmoe.pipeline as pipeline
    bundles = []

    def loading(path):
        bundles.append(load_dataset(path))
        return bundles[-1]

    monkeypatch.setattr(pipeline, "load_dataset", loading)
    cfg = replace(tiny_config, epochs=1, augment=True)
    s1 = stage1_pretrain(cfg, tmp_path / "s1")
    stage2_cml(cfg, ckpts_of(s1), tmp_path / "cml")
    assert len(bundles) == 2
    assert [s.views for b in bundles for s in b.train + b.val] == [{}] * 6


def test_evaluation_keeps_views_only_for_sms_validation(tiny_config, tmp_path,
                                                       monkeypatch):
    """Over 3 SMS epochs each val (scan, kind) view is built once; a single
    evaluation pass, SMS's own at 0 epochs included, leaves no scan a view."""
    import lidarmoe.pipeline as pipeline
    bundles = []

    def loading(path):
        bundles.append(load_dataset(path))
        return bundles[-1]

    monkeypatch.setattr(pipeline, "load_dataset", loading)
    calls = _count_views(monkeypatch)
    result = stage3_sms(replace(tiny_config, sms_epochs=3), {}, tmp_path / "a")
    val_clouds = {id(scan.cloud) for scan in bundles[0].val}
    val_calls = [call for call in calls if call[1] in val_clouds]
    assert len(val_calls) == len(set(val_calls)) == len(val_clouds) * len(REPRESENTATIONS)

    stage3_sms(replace(tiny_config, sms_epochs=0), {}, tmp_path / "b")
    store, _ = load_checkpoint(result["checkpoint"])
    data = load_dataset(tiny_config.dataset)
    for split in ("train", "val"):
        evaluate_store(store, tiny_config, data, split=split)
    assert [s.views for s in bundles[1].val + data.train + data.val] == [{}] * 4


def _eval_setup(small_dataset):
    """A run config, a loaded dataset (3 train scans) and a fresh SMS store."""
    cfg = RunConfig(dataset=str(small_dataset), seed=1, embed_dim=8, centroid_count=8,
                    knn_k=4)
    data = load_dataset(cfg.dataset)
    return cfg, data, _sms_store(cfg, {}, data.num_classes)


@pytest.mark.parametrize("keep_views", [False, True])
def test_evaluating_a_split_gives_each_scans_own_results(keep_views, small_dataset):
    """With the next scan's views built on a worker thread, a split's fused
    predictions are byte for byte each scan's own, its confusion counts
    are the sums of the scans', and no thread outlives the call."""
    cfg, data, store = _eval_setup(small_dataset)
    threads = threading.active_count()
    reports, preds = evaluate_store(store, cfg, data, split="train", keep_views=keep_views)
    assert threading.active_count() == threads
    assert [bool(scan.views) for scan in data.train] == [keep_views] * 3

    alone = load_dataset(cfg.dataset)
    singles = [evaluate_store(store, cfg, replace(alone, train=[scan]), split="train")
               for scan in alone.train]
    assert len(preds) == len(singles) == 3
    for got, (_, want) in zip(preds, singles):
        assert got.dtype == want[0].dtype and got.tobytes() == want[0].tobytes()
    for head, report in reports.items():
        for count in ("tp", "fp", "fn"):
            want = sum(getattr(single[head], count) for single, _ in singles)
            assert np.array_equal(getattr(report, count), want), (head, count)


def test_a_view_error_of_the_next_scan_is_raised_after_this_scans_forward(
        small_dataset, monkeypatch):
    import lidarmoe.pipeline as pipeline
    cfg, data, store = _eval_setup(small_dataset)
    bad = data.train[1].cloud
    make, evaluate, forwards = pipeline.make_view, ad.evaluate, []

    def failing(kind, cloud, *args):
        if cloud is bad:
            raise LidarMoeError(f"no {kind} view of the second scan")
        return make(kind, cloud, *args)

    def counting(graph, params, inputs):
        forwards.append(inputs["point"])
        return evaluate(graph, params, inputs)

    monkeypatch.setattr(pipeline, "make_view", failing)
    monkeypatch.setattr(ad, "evaluate", counting)
    threads = threading.active_count()
    with pytest.raises(LidarMoeError) as err:
        evaluate_store(store, cfg, data, split="train")
    assert str(err.value) == "no range view of the second scan"
    assert len(forwards) == 1
    assert forwards[0].tobytes() == data.train[0].cloud.features().tobytes()
    assert threading.active_count() == threads


@pytest.mark.parametrize("kind, change", [("voxel", {"voxel_size": (1.0, 1.0, 1.0)}),
                                          ("point", {"centroid_count": 8}),
                                          ("point", {"knn_k": 4})])
def test_a_reused_dataset_gets_fresh_views_for_new_view_settings(kind, change, tiny_config,
                                                                 monkeypatch):
    from lidarmoe.pipeline import _scan_view
    cfg = replace(tiny_config, augment=False)
    data = load_dataset(cfg.dataset)
    scan = data.train[0]
    calls = _count_views(monkeypatch)

    def view(config):
        return _scan_view(scan, kind, data.sensor, config)

    first = view(cfg)
    assert view(replace(cfg, epochs=7, seed=9)) is first  # settings no view reads
    fresh = view(replace(cfg, **change))
    assert fresh is not first and view(replace(cfg, **change)) is fresh
    assert view(cfg) is first and len(calls) == 2
    if kind == "voxel":
        assert fresh.mapping.count != first.mapping.count
    else:
        got = (fresh.mapping.count, fresh.mapping.member_rows.size)
        assert got != (first.mapping.count, first.mapping.member_rows.size)


# traced peak (MB) of one epoch on one 64 x 512 train and val scan, reference
# config; measured 104.8 (cml) and 123.7 (sms) while every forward value of a
# training step stayed alive until its backprop returned, 58.1 and 43.2 since
# a value lives only while the build code or a backward closure holds it.
# cml read 58.1 while the gate held the three expert arrays and their (N, 192)
# concatenation, 42.0 (sms 40.3) since it reads one stacked expert matrix
PEAK_MB = {"cml": 50.0, "sms": 80.0}


def test_a_dense_training_step_keeps_only_what_backward_reads(tmp_path):
    generate_dataset({"n_train": 1, "n_val": 1, "beam_count": 64, "azimuth_steps": 512,
                      "range_h": 64, "range_w": 512}, tmp_path / "data", seed=0)
    cfg = RunConfig(dataset=str(tmp_path / "data"), epochs=1, sms_epochs=1)
    experts = ckpts_of(stage1_pretrain(replace(cfg, epochs=0), tmp_path / "s1"))
    stages = {"cml": lambda: stage2_cml(cfg, experts, tmp_path / "cml"),
              "sms": lambda: stage3_sms(cfg, {}, tmp_path / "sms")}
    for stage, run in stages.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak < PEAK_MB[stage], (stage, peak)


def test_stage2_deterministic(tiny_config, tmp_path):
    s1 = stage1_pretrain(replace(tiny_config, epochs=1), tmp_path / "s1")
    stage2_cml(tiny_config, ckpts_of(s1), tmp_path / "a")
    stage2_cml(tiny_config, ckpts_of(s1), tmp_path / "b")
    assert (tmp_path / "a" / "cml_student.ckpt").read_bytes() \
        == (tmp_path / "b" / "cml_student.ckpt").read_bytes()


def test_stage3_epochs_zero_still_evaluates(tiny_config, tmp_path):
    cfg = replace(tiny_config, sms_epochs=0)
    result = stage3_sms(cfg, {}, tmp_path)
    assert set(result["val_miou"]) == {"fused", "range", "voxel", "point"}
    assert np.isfinite(result["val_miou"]["fused"])


def test_stage3_validation_deterministic(tiny_config, tmp_path):
    result = stage3_sms(tiny_config, {}, tmp_path)
    cfg = tiny_config

    def evaluate_checkpoint():
        store, _ = load_checkpoint(result["checkpoint"])
        data = load_dataset(cfg.dataset)
        return evaluate_store(store, cfg, data)[0]

    a = evaluate_checkpoint()
    b = evaluate_checkpoint()
    assert a["fused"].miou == b["fused"].miou
    assert np.array_equal(a["fused"].tp, b["fused"].tp)


def test_stage3_single_step_gradient_matches_fd(tiny_config):
    """SMS composite through all three micro backbones passes FD.

    The range trunk's second conv block is read as constants, not
    parameters, to keep the sweep under 1e4 scalars (its backward is
    covered by the encoder check); the first conv stays a parameter so a
    conv layer is exercised inside the composite.
    """
    from lidarmoe.pipeline import _sms_store, _sms_forward_build
    from lidarmoe.losses import build_sms_total
    from lidarmoe.encoders import _SCALE_RANGE, TRUNK_CH, linear
    from lidarmoe.geometry import project_labels
    from lidarmoe.sensors import SensorModel
    # seed picked so no relu/max kink sits within eps of a crossing
    cfg = replace(tiny_config, seed=7, embed_dim=4, centroid_count=5, knn_k=3)
    data = load_dataset(cfg.dataset)
    sensor = SensorModel(beam_count=4, azimuth_steps=8, fov_total_rad=0.7,
                         fov_down_rad=0.45, max_range_m=60.0, range_h=4, range_w=8)
    scan = data.train[0]
    # a 32-point slice keeps the finite-difference sweep quick
    cloud = scan.cloud.select(np.arange(0, scan.cloud.count,
                                        max(1, scan.cloud.count // 32))[:32])
    cloud = cloud.select(np.flatnonzero(cloud.label >= 0))
    store = _sms_store(cfg, {}, 4)

    def range_embed_conv2_held(ctx, image, prefix, head):
        """``build_range_embed`` with ``conv2`` read as constants."""
        x = ad.mul(image, ad.as_var(_SCALE_RANGE))
        h, w, _ = x.shape
        y = ad.relu(ad.conv2d3x3(x, ctx.param(f"{prefix}.conv1.w"),
                                 ctx.param(f"{prefix}.conv1.b")))
        y = ad.relu(ad.conv2d3x3(y, *(ad.as_var(store.get(f"{prefix}.conv2.{p}")
                                                .astype(ctx.dtype)) for p in "wb")))
        return linear(ctx, ad.reshape(y, (h * w, TRUNK_CH)), f"{prefix}.{head}")

    views = {k: make_view(k, cloud, sensor, cfg) for k in REPRESENTATIONS}
    views["range"].encoder = range_embed_conv2_held
    inputs = _inputs(views)
    labels = {"fused": np.clip(cloud.label, -1, 3),
              "point": np.clip(cloud.label, -1, 3),
              "range": np.clip(project_labels(cloud, views["range"].mapping), -1, 3),
              "voxel": np.clip(project_labels(cloud, views["voxel"].mapping), -1, 3)}

    def build(ctx):
        logits, aligned, fused, _ = _sms_forward_build(ctx, views)
        total, _ = build_sms_total(
            {"fused": fused, "range": logits["range"], "voxel": logits["voxel"],
             "point": aligned["point"]}, labels)
        return {"loss": total}

    err = ad.grad_check(Graph(build), store, inputs, eps=1e-5, seed=5)
    assert err < 1e-4


def test_stage3_refuses_unlabeled_dataset(tiny_config, tmp_path):
    # strip labels from a copied dataset
    import shutil
    from lidarmoe.dataio import read_lpcd, write_lpcd
    src = tiny_config.dataset
    dst = tmp_path / "unlabeled"
    shutil.copytree(src, dst)
    for scan in (dst / "scans").glob("train_*.lpcd"):
        cloud = read_lpcd(scan)
        stripped = cloud.select(np.arange(cloud.count))
        stripped.label[:] = -1
        write_lpcd(scan, stripped)
    cfg = replace(tiny_config, dataset=str(dst))
    with pytest.raises(LidarMoeError, match="^no labeled training scans$"):
        stage3_sms(cfg, {}, tmp_path / "out")


def test_stage1_skips_and_counts_scans_with_few_superpoints(tiny_config, tmp_path,
                                                            monkeypatch):
    # overwrite one train camera with an all-sky render: no superpoints
    import shutil
    from lidarmoe.datagen import CameraRender
    from lidarmoe.dataio import write_camera_npz
    from lidarmoe.optim import AdamW
    src = tiny_config.dataset
    dst = tmp_path / "sky"
    shutil.copytree(src, dst)
    import json
    sdoc = json.loads((dst / "sensors.json").read_text())
    h, w = sdoc["cam_h"], sdoc["cam_w"]
    sky = CameraRender(np.full((h, w), -1, np.int32), np.full((h, w), np.inf),
                       np.zeros((h, w), np.int32))
    write_camera_npz(dst / "cams" / "train_000.npz", sky)
    schedules = []
    original = AdamW.step

    def recording_step(self, grads):
        schedules.append(self.total_steps)
        return original(self, grads)

    monkeypatch.setattr(AdamW, "step", recording_step)
    cfg = replace(tiny_config, dataset=str(dst), epochs=2)
    results = stage1_pretrain(cfg, tmp_path / "out")
    assert results["voxel"]["skipped"] == 1
    assert np.isfinite(results["voxel"]["epoch_losses"][0])
    # one usable scan: each representation's schedule spans the epochs x 1
    # steps taken
    assert schedules == [cfg.epochs] * cfg.epochs * len(REPRESENTATIONS)


def _stage1_and_cml_errors(tiny_config, dataset, tmp_path):
    """The LidarMoeError messages of stage 1 and of CML on ``dataset``;
    CML's experts come from a zero-epoch stage 1 on the tiny dataset."""
    experts = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "experts")
    cfg = replace(tiny_config, dataset=str(dataset))
    errors = []
    for run in (lambda: stage1_pretrain(cfg, tmp_path / "s1"),
                lambda: stage2_cml(cfg, ckpts_of(experts), tmp_path / "cml")):
        with pytest.raises(LidarMoeError) as info:
            run()
        errors.append(str(info.value))
    return errors


def test_stage1_and_cml_reject_train_scan_without_camera(tiny_config, tmp_path):
    import shutil
    from lidarmoe.dataio import save_manifest
    dst = tmp_path / "nocam"
    shutil.copytree(tiny_config.dataset, dst)
    manifest = load_manifest(dst / "manifest.json")
    manifest.train[1].camera = None
    save_manifest(dst / "manifest.json", manifest)
    errors = _stage1_and_cml_errors(tiny_config, dst, tmp_path)
    assert errors == ["train scan train_001 lacks camera pairing"] * 2


def test_stage1_and_cml_reject_dataset_without_two_superpoints(tiny_config,
                                                               tmp_path):
    # every train camera an all-sky render: no scan has a superpoint
    import json
    import shutil
    from lidarmoe.datagen import CameraRender
    from lidarmoe.dataio import write_camera_npz
    dst = tmp_path / "sky"
    shutil.copytree(tiny_config.dataset, dst)
    sdoc = json.loads((dst / "sensors.json").read_text())
    h, w = sdoc["cam_h"], sdoc["cam_w"]
    sky = CameraRender(np.full((h, w), -1, np.int32), np.full((h, w), np.inf),
                       np.zeros((h, w), np.int32))
    for cam in (dst / "cams").glob("train_*.npz"):
        write_camera_npz(cam, sky)
    errors = _stage1_and_cml_errors(tiny_config, dst, tmp_path)
    assert errors == ["no train scan has at least two superpoints"] * 2


def test_sms_honors_annotation_fraction(tiny_config, tmp_path):
    import shutil
    from lidarmoe.dataio import load_manifest, save_manifest
    src = tiny_config.dataset
    dst = tmp_path / "frac"
    shutil.copytree(src, dst)
    manifest = load_manifest(dst / "manifest.json")
    manifest.annotation_fraction = 0.5
    save_manifest(dst / "manifest.json", manifest)
    cfg = replace(tiny_config, dataset=str(dst), sms_epochs=1)
    result = stage3_sms(cfg, {}, tmp_path / "out")
    # 2 train scans at fraction 0.5 -> 1 scan -> 1 step in the log
    log = (tmp_path / "out" / "sms_log.csv").read_text().strip().split("\n")
    steps = [l for l in log[1:] if l.split(",")[2] == "loss"]
    assert len(steps) == 1
    # per-term breakdown rows accompany every step
    terms = {l.split(",")[2] for l in log[1:]}
    assert {"range_ce", "range_lovasz", "voxel_ce", "voxel_lovasz", "point_ce", "fused_ce",
            "gate_load_range", "gate_load_voxel", "gate_load_point", "gate_entropy"} <= terms


def test_sms_store_is_each_trunk_and_logit_head_and_peaks_lr_by_trunk(tiny_config, tmp_path,
                                                                    monkeypatch):
    """From stage-1 checkpoints, which also hold embedding heads, an SMS
    store is each kind's trunk and then its logit head, then the gate; the
    trunk names, and no others, peak at ``lr_sms_backbone``."""
    import lidarmoe.pipeline as pipeline
    s1 = stage1_pretrain(replace(tiny_config, epochs=0), tmp_path / "s1")
    peaks, train = {}, pipeline._train_epochs

    def recording(config, scans, graph_fn, store, peak_lr, *rest):
        peaks.update((name, peak_lr(name)) for name in store.names())
        return train(config, scans, graph_fn, store, peak_lr, *rest)

    monkeypatch.setattr(pipeline, "_train_epochs", recording)
    cfg = replace(tiny_config, sms_epochs=0)
    stage3_sms(cfg, ckpts_of(s1), tmp_path / "sms")
    trunks = [name for kind in REPRESENTATIONS for name in param_names(kind)[0]]
    assert list(peaks) == [name for kind in REPRESENTATIONS for name in param_names(kind)[0]
                           + [f"{kind}.logit_head.w", f"{kind}.logit_head.b"]] + MOE_NAMES
    assert [n for n, lr in peaks.items() if lr == cfg.lr_sms_backbone] == trunks
    assert {lr for n, lr in peaks.items() if n not in trunks} == {cfg.lr_sms_other}
    assert cfg.lr_sms_backbone != cfg.lr_sms_other


def test_stage3_honors_batch_size(small_dataset, monkeypatch, tmp_path):
    from lidarmoe import optim
    schedules, lrs, evaluations = {}, [], []
    original_step, original_lr = optim.AdamW.step, optim.one_cycle_lr
    original_evaluate = ad.evaluate

    def counting_step(self, grads):
        schedules.setdefault(id(self), []).append(self.total_steps)
        return original_step(self, grads)

    def recording_lr(step, total_steps, peak):
        lr = original_lr(step, total_steps, peak)
        lrs.append((step, peak, lr))
        return lr

    def counting_evaluate(*args, **kwargs):
        evaluations.append(1)
        return original_evaluate(*args, **kwargs)

    monkeypatch.setattr(optim.AdamW, "step", counting_step)
    monkeypatch.setattr(optim, "one_cycle_lr", recording_lr)
    monkeypatch.setattr(ad, "evaluate", counting_evaluate)
    cfg = RunConfig(dataset=str(small_dataset), seed=1, embed_dim=8,
                    centroid_count=8, knn_k=4, sms_epochs=2, batch_size=2)
    data = load_dataset(cfg.dataset)
    labeled = sum(1 for s in data.train if np.any(s.cloud.label >= 0))
    assert labeled == 3
    result = stage3_sms(cfg, {}, tmp_path)
    # one optimizer steps once per batch, over a schedule of exactly those steps
    steps = cfg.sms_epochs * 2
    assert list(schedules.values()) == [[steps] * steps]
    last = {(peak, lr) for step, peak, lr in lrs if step == steps - 1}
    assert {peak for peak, _ in last} == {cfg.lr_sms_backbone, cfg.lr_sms_other}
    assert all(lr == pytest.approx(peak / 100) for peak, lr in last)
    # validation once per epoch, one forward per val scan, and no more
    assert len(evaluations) == cfg.sms_epochs * len(data.val)
    assert result["val_miou"] == result["val_history"][-1]


def test_linear_probe_freezes_backbone(tiny_config, tmp_path):
    s1 = stage1_pretrain(replace(tiny_config, epochs=1), tmp_path / "s1")
    result = linear_probe(tiny_config, tmp_path / "p",
                          checkpoint=s1["voxel"]["checkpoint"])
    assert result["backbone_intact"]
    assert np.isfinite(result["report"].miou)


def test_linear_probe_random_baseline_and_seeds(tiny_config, tmp_path):
    a = linear_probe(tiny_config, tmp_path / "a", representation="voxel")
    b = linear_probe(replace(tiny_config, seed=99), tmp_path / "b",
                     representation="voxel")
    assert np.isfinite(a["report"].miou)
    assert np.isfinite(b["report"].miou)


def test_evaluate_perfect_predictions(tiny_config):
    from lidarmoe.metrics import compute_miou
    data = load_dataset(tiny_config.dataset)
    labels = data.val[0].cloud.label
    report = compute_miou(labels, labels, data.num_classes)
    assert report.miou == pytest.approx(100.0)


def test_run_config_roundtrip_and_digest():
    cfg = RunConfig(dataset="x", seed=3, epochs=7)
    doc = config_to_json(cfg)
    again = config_from_json(RunConfig, doc, "run config")
    assert again == cfg
    assert cfg.digest() == again.digest()
    assert cfg.digest() != replace(cfg, seed=4).digest()
    assert replace(cfg, dataset="a").digest() == replace(cfg, dataset="b").digest()


def test_run_config_validation():
    with pytest.raises(LidarMoeError, match="^" + re.escape(
            "run config student must be range|voxel|point, got 'mesh'") + "$"):
        RunConfig(student="mesh")
    with pytest.raises(LidarMoeError, match="^run config temperature must be > 0, got 0.0$"):
        RunConfig(temperature=0.0)
    with pytest.raises(LidarMoeError, match="^run config batch_size must be >= 1, got 0$"):
        RunConfig(batch_size=0)


@pytest.mark.parametrize("field,value", [
    ("epochs", "3"), ("epochs", 2.0), ("epochs", True), ("seed", None),
    ("knn_k", 1.5), ("lr_cml", "0.1"), ("lr_cml", True), ("lr_cml", float("nan")),
    ("temperature", float("inf")), ("augment", 1), ("sms_augment", "yes"),
    ("dataset", 3), ("student", ["voxel"]), ("voxel_size", (1.0, 1.0)),
    ("voxel_size", (1.0, 0.0, 1.0)), ("voxel_size", (1.0, "1", 1.0)),
    ("voxel_size", [1.0, 1.0, 1.0]), ("voxel_size", 1.5),
    ("centroid_count", 0), ("knn_k", 0), ("embed_dim", 0),
    ("probe_epochs", -1), ("sms_epochs", -1), ("epochs", -1), ("seed", -1),
    ("lr_stage1", -1.0), ("lr_cml", 0.0), ("lr_sms_backbone", -0.001),
    ("lr_sms_other", 0.0), ("probe_lr", -5.0), ("superpoint_tolerance", -1.0),
])
def test_run_config_rejects_bad_field_naming_it(field, value):
    with pytest.raises(LidarMoeError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_ints_for_floats_and_json_voxel_lists():
    cfg = config_from_json(RunConfig, {"lr_cml": 1, "temperature": 1,
                                       "voxel_size": [2, 2, 2]}, "run config")
    assert cfg.voxel_size == (2, 2, 2) and cfg.lr_cml == 1
    with pytest.raises(LidarMoeError, match="voxel_size"):
        config_from_json(RunConfig, {"voxel_size": 5}, "run config")


def test_config_from_json_reads_the_field_keys_and_names_a_missing_one():
    """The sensor and camera models read their keys from one flat document
    and ignore the others; a missing key is named."""
    doc = dict(DEFAULT_DATASET_CONFIG)
    sensor = config_from_json(SensorModel, doc, "sensor config")
    camera = config_from_json(CameraModel, doc, "camera config")
    assert sensor.fov_down_rad == doc["fov_down_rad"] and camera.cam_w == doc["cam_w"]
    assert camera.cam_extrinsics.tolist() == doc["cam_extrinsics"]
    del doc["max_range_m"]
    with pytest.raises(LidarMoeError, match="^sensor config missing key 'max_range_m'$"):
        config_from_json(SensorModel, doc, "sensor config")


@pytest.mark.parametrize("cls,key,value,message", [
    (SensorModel, "beam_count", 32.0, "sensor config beam_count must be int, got 32.0"),
    (SensorModel, "fov_total_rad", "0.7", "sensor config fov_total_rad must be float"),
    (CameraModel, "cam_intrinsics", np.eye(3),
     "camera config cam_intrinsics must be matrix"),
    (CameraModel, "cam_h", True, "camera config cam_h must be int, got True"),
    (CameraModel, "cam_intrinsics", [[64, 0, 48], [1, 64, 32], [0, 0, 1]],
     "camera config cam_intrinsics must be upper-triangular"),
    (CameraModel, "cam_intrinsics", [[64, 0, 48], [0, -1, 32], [0, 0, 1]],
     "camera config cam_intrinsics focal lengths must be positive"),
    (CameraModel, "cam_extrinsics", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
     "camera config cam_extrinsics bottom row must be [0,0,0,1]"),
])
def test_sensor_and_camera_models_check_each_key_on_construction(cls, key, value, message):
    """Every type and range error names the key, also without JSON."""
    doc = dict(DEFAULT_DATASET_CONFIG, **{key: value})
    with pytest.raises(LidarMoeError, match=f"^{re.escape(message)}"):
        cls(**{f.name: doc[f.name] for f in fields(cls)})


def test_train_epochs_names_stage_epoch_and_scan_of_non_finite_error(tmp_path):
    scans = [SimpleNamespace(name="train_000"), SimpleNamespace(name="train_001")]
    store = ParameterStore()
    store.add("w", np.ones(2, np.float32))

    def graph_fn(idx, scan, epoch):
        if (epoch, idx) == (1, 1):
            raise NonFiniteError("non-finite value in gradient of parameter w")
        return (lambda ctx: {"loss": ad.sum_all(ctx.param("w"))}), {}

    with pytest.raises(NonFiniteError) as info:
        _train_epochs(RunConfig(epochs=3), scans, graph_fn, store,
                      lambda _: 0.01, tmp_path / "log.csv", "stage1-range", None)
    assert str(info.value) == ("stage1-range epoch 1 scan train_001: "
                               "non-finite value in gradient of parameter w")


def test_train_epochs_names_the_primitive_of_a_non_finite_forward(tmp_path):
    scans = [SimpleNamespace(name="train_000"), SimpleNamespace(name="train_001")]
    store = ParameterStore()
    store.add("w", np.ones(2, np.float32))
    graph = Graph(lambda ctx: {"loss": ad.sum_all(ad.sqrt(ad.mul(
        ctx.param("w"), ctx.input("x"))))})

    def graph_fn(idx, scan, epoch):
        x = np.full(2, -1.0 if idx == 1 else 1.0, np.float32)
        return graph.build, {"x": x}

    with pytest.raises(NonFiniteError) as info:
        _train_epochs(RunConfig(epochs=2), scans, graph_fn, store,
                      lambda _: 0.01, tmp_path / "log.csv", "cml", None)
    assert str(info.value) == ("cml epoch 0 scan train_001: "
                               "non-finite value in output of sqrt")


def test_train_epochs_logs_scalar_outputs_and_the_rows_before_a_failure(tmp_path):
    """``loss`` first, then the other 0-d outputs in name order; a
    non-scalar output is not logged. A run that fails in epoch 1 leaves a
    complete log of epoch 0 and no temporary file."""
    scans = [SimpleNamespace(name="train_000")]
    store = ParameterStore()
    store.add("w", np.ones(2, np.float32))

    def graph_fn(idx, scan, epoch):
        def build(ctx):
            w = ctx.param("w")
            return {"zeta": ad.sum_all(w), "vec": w, "alpha": ad.mean_all(w),
                    "loss": ad.sum_all(ad.sqrt(ad.mul(w, ctx.input("x"))))}

        return build, {"x": np.full(2, -1.0 if epoch == 1 else 1.0, np.float32)}

    with pytest.raises(NonFiniteError, match="^sms epoch 1 scan train_000: "):
        _train_epochs(RunConfig(epochs=3), scans, graph_fn, store,
                      lambda _: 0.01, tmp_path / "log.csv", "sms", None)
    assert (tmp_path / "log.csv").read_text().splitlines() == [
        "step,stage,term,value", "0,sms,loss,2.0", "0,sms,alpha,1.0",
        "0,sms,zeta,2.0", "1,sms,epoch_loss,2.0"]
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]
