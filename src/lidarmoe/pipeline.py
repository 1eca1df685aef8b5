"""Three-stage training orchestration plus linear probing and evaluation.

Stage 1 trains each representation encoder against the frozen teacher
with the grouped contrastive loss. Stage 2 evaluates the three frozen
stage-1 experts, fuses their aligned features through the noisy gate, and
distills the fusion into a single student network. Stage 3 fine-tunes all
three backbones with fresh logit heads under the supervised composite,
fusing logits through a train-only noisy gate.

Every training run (stage 1 per representation, stage 2, stage 3, the
linear probe) goes through ``_train_epochs``, which owns the run's one
AdamW and its training log and sizes the schedule by the optimizer steps
it takes; ``_save_stage`` writes every stage checkpoint, and a stage reads
a backbone's parameters by their ``encoders.param_names``. ``make_view`` is
the one place a representation is chosen: its view runs its own encoder.
Every stage gets its views through ``_scan_view``, which builds a scan's
un-augmented view of each kind once and keeps it with the scan. A graph
input is a view's features, named by the prefix of the encoder reading it.

Every run is a pure function of (config, dataset, seed): augmentation,
gate noise, and initialization seeds derive deterministically from the
run seed, so identical runs produce bit-identical checkpoints and logs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Graph
from .datagen import (NUM_CLASSES, CameraRender, SceneConfig, build_scene,
                      render_camera, simulate_lidar)
from .datagen import augment as augment_cloud
from .dataio import (CAMERA_ARRAYS, DatasetManifest, ScanEntry, TrainingLog,
                     load_manifest, read_camera_npz, read_json, read_lpcd, resolve,
                     save_manifest, write_camera_npz, write_json, write_lpcd)
from .encoders import (build_point_embed, build_range_embed, build_voxel_embed,
                       init_encoder_params, linear, param_names, point_grouping,
                       teacher_features, teacher_weights, trunk_shapes, trunk_width,
                       voxel_neighbor_pairs)
from .errors import LidarMoeError, NonFiniteError
from .geometry import build_superpoints, project_labels, project_to_range, voxelize
from .losses import build_cross_entropy, build_info_nce, build_sms_total
from .metrics import compute_miou
from .moe import REPRESENTATIONS, build_moe, gate_terms, init_moe_params, write_gate_csv
from .optim import AdamW
from .params import ParameterStore, add_linear, load_checkpoint, save_checkpoint
from .pointcloud import PointCloud
from .sensors import (POSITIVE, CameraModel, SensorModel, at_least, check_fields,
                      config_from_json, config_to_json, is_number, one_of, read_key,
                      reject_unknown)

# the range or choices of each RunConfig field that has one
_RUN_RULES = {
    "seed": at_least(0), "epochs": at_least(0), "batch_size": at_least(1),
    "embed_dim": at_least(1), "temperature": POSITIVE,
    "contrastive_denominator": one_of(("all", "exclude_positive")),
    "lr_stage1": POSITIVE, "lr_cml": POSITIVE, "lr_sms_backbone": POSITIVE,
    "lr_sms_other": POSITIVE, "student": one_of(REPRESENTATIONS),
    "student_init": one_of(("stage1", "random")),
    "voxel_size": ((lambda v: len(v) == 3 and all(is_number(x) and x > 0 for x in v)),
                   "three positive numbers"),
    "centroid_count": at_least(1), "knn_k": at_least(1), "superpoint_tolerance": at_least(0),
    "probe_epochs": at_least(0), "probe_lr": POSITIVE, "sms_epochs": at_least(0),
}


@dataclass(frozen=True)
class RunConfig:
    """Run settings shared by the stage commands; JSON keys match fields."""

    dataset: str = ""
    seed: int = 0
    epochs: int = 50
    batch_size: int = 1
    embed_dim: int = 64
    temperature: float = 0.07
    contrastive_denominator: str = "all"
    lr_stage1: float = 0.01
    lr_cml: float = 0.001
    lr_sms_backbone: float = 0.001
    lr_sms_other: float = 0.01
    student: str = "voxel"
    student_init: str = "stage1"
    augment: bool = True
    sms_augment: bool = True
    voxel_size: tuple = (1.5, 1.5, 1.5)
    centroid_count: int = 48
    knn_k: int = 12
    superpoint_tolerance: float = 0.1
    probe_epochs: int = 40
    probe_lr: float = 0.05
    sms_epochs: int = 30

    def __post_init__(self):
        check_fields(self, "run config", _RUN_RULES)

    def digest(self) -> str:
        """Hash of every setting except where the dataset sits, so the same
        run on the same data gives the same checkpoints at any path."""
        doc = config_to_json(self)
        del doc["dataset"]
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _step_seed(*parts) -> int:
    h = hashlib.sha256(("/".join(str(p) for p in parts)).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little") >> 1


# ---------------------------------------------------------------------------
# dataset generation and loading
# ---------------------------------------------------------------------------

DEFAULT_DATASET_CONFIG = {
    "n_train": 5,
    "n_val": 2,
    "scene": config_to_json(SceneConfig()),
    "beam_count": 32,
    "azimuth_steps": 192,
    "fov_total_rad": float(np.deg2rad(40.0)),
    "fov_down_rad": float(np.deg2rad(25.0)),
    "max_range_m": 60.0,
    "range_h": 32,
    "range_w": 192,
    "cam_intrinsics": [[64.0, 0.0, 48.0], [0.0, 64.0, 32.0], [0.0, 0.0, 1.0]],
    "cam_extrinsics": [[0.0, -1.0, 0.0, 0.0],
                       [0.0, 0.0, -1.0, 0.2],
                       [1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0]],
    "cam_w": 96,
    "cam_h": 64,
    "num_classes": NUM_CLASSES,
    "superpixel_tile": 16,
}


def generate_dataset(doc: dict, out_dir, seed: int) -> DatasetManifest:
    """Render scans + camera files and write manifest/sensor documents;
    returns the manifest written.

    ``doc`` overrides keys of ``DEFAULT_DATASET_CONFIG`` with values of the
    default's type; any other key, type or range raises LidarMoeError
    naming the key."""
    merged = dict(DEFAULT_DATASET_CONFIG, **(doc or {}))
    reject_unknown(merged, DEFAULT_DATASET_CONFIG, "datagen config")
    sensor = config_from_json(SensorModel, merged, "sensor config")
    camera = config_from_json(CameraModel, merged, "camera config")
    for key, low in (("n_train", 0), ("n_val", 0), ("superpixel_tile", 1),
                     ("num_classes", NUM_CLASSES)):
        read_key(merged, "datagen config", key, "int", rule=at_least(low))
    scene_doc = read_key(merged, "datagen config", "scene", "dict")
    reject_unknown(scene_doc, SceneConfig.__dataclass_fields__, "scene config")
    scene_cfg = config_from_json(SceneConfig, scene_doc, "scene config")
    tile = merged["superpixel_tile"]
    out = Path(out_dir)

    manifest = DatasetManifest(num_classes=merged["num_classes"])
    for split, count in (("train", merged["n_train"]), ("val", merged["n_val"])):
        for i in range(count):
            scene = build_scene(scene_cfg, _step_seed(seed, split, i))
            scan_rel = f"scans/{split}_{i:03d}.lpcd"
            cam_rel = f"cams/{split}_{i:03d}.npz"
            write_lpcd(out / scan_rel, simulate_lidar(scene, sensor))
            write_camera_npz(out / cam_rel, render_camera(scene, camera, tile))
            entry = ScanEntry(scan=scan_rel, camera=cam_rel)
            (manifest.train if split == "train" else manifest.val).append(entry)
    save_manifest(out / "manifest.json", manifest)
    write_json(out / "sensors.json", merged)
    return manifest


@dataclass
class LoadedScan:
    """One scan of a loaded dataset; ``views`` holds its un-augmented
    views, filled by ``_scan_view``."""

    name: str
    cloud: PointCloud
    render: CameraRender | None = None
    views: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class DatasetBundle:
    train: list
    val: list
    sensor: SensorModel
    camera: CameraModel
    num_classes: int
    annotation_fraction: float
    path: str

    def scans(self, split):
        """The scans of ``split``; raises LidarMoeError naming the dataset
        and the split when it has none."""
        scans = self.val if split == "val" else self.train
        if not scans:
            raise LidarMoeError(f"dataset {self.path} has an empty {split} split")
        return scans


def load_sensors(dataset_dir):
    """``(SensorModel, CameraModel)`` of a dataset, read from its
    ``sensors.json`` alone; a bad key raises LidarMoeError naming that
    file."""
    path = Path(dataset_dir) / "sensors.json"
    sdoc = read_json(path)
    try:
        return (config_from_json(SensorModel, sdoc, "sensor config"),
                config_from_json(CameraModel, sdoc, "camera config"))
    except LidarMoeError as exc:
        raise LidarMoeError(f"{path}: {exc}") from exc


def load_dataset(dataset_dir) -> DatasetBundle:
    """The scans, sensors and manifest settings of a dataset; raises
    LidarMoeError naming a scan with a label outside [-1, num_classes) or a
    point at the sensor origin, or a camera file whose arrays are not
    (cam_h, cam_w), whose class_id or superpixel array is not of an integer
    dtype, with a class_id outside [-1, num_classes) or a superpixel id
    outside [0, cam_h * cam_w)."""
    base = Path(dataset_dir)
    manifest = load_manifest(base / "manifest.json")
    sensor, camera = load_sensors(base)
    shape = (camera.cam_h, camera.cam_w)
    # the [low, top) range of each id array of a camera render
    ids = {"class_id": (-1, manifest.num_classes), "superpixel": (0, shape[0] * shape[1])}

    def load_split(entries):
        scans = []
        for e in entries:
            path = resolve(base, e.scan)
            cloud = read_lpcd(path)
            low, top = int(cloud.label.min(initial=-1)), int(cloud.label.max(initial=-1))
            if low < -1:
                raise LidarMoeError(f"scan {path} has label {low}, below -1 (unlabeled)")
            if top >= manifest.num_classes:
                raise LidarMoeError(f"scan {path} has label {top}, "
                                    f"but num_classes is {manifest.num_classes}")
            check_off_origin(cloud, f"scan {path}")
            scan = LoadedScan(name=Path(e.scan).stem, cloud=cloud)
            if e.camera:
                cam_path = resolve(base, e.camera)
                scan.render = read_camera_npz(cam_path)
                arrays = {name: getattr(scan.render, name) for name in CAMERA_ARRAYS}
                for name, arr in arrays.items():
                    if arr.shape != shape:
                        raise LidarMoeError(f"{cam_path}: {name} has shape {arr.shape}, "
                                            f"want {shape}")
                for name, (low, top) in ids.items():
                    arr = arrays[name]
                    if arr.dtype.kind not in "iu":
                        raise LidarMoeError(f"{cam_path}: {name} has dtype {arr.dtype}, "
                                            "want an integer one")
                    bad = arr[(arr < low) | (arr >= top)]
                    if bad.size:
                        raise LidarMoeError(f"{cam_path}: {name} has value {bad[0]}, "
                                            f"want one in [{low}, {top})")
            scans.append(scan)
        return scans

    return DatasetBundle(load_split(manifest.train), load_split(manifest.val),
                         sensor, camera, manifest.num_classes,
                         manifest.annotation_fraction, str(dataset_dir))


def check_off_origin(cloud: PointCloud, source) -> None:
    """Raises LidarMoeError naming ``source`` and the first point of
    ``cloud`` at the sensor origin, which has no direction to project."""
    origin = np.flatnonzero(cloud.depth() == 0)
    if origin.size:
        raise LidarMoeError(f"{source} has point {origin[0]} at the sensor origin")


def _scored_scans(config: RunConfig, data: DatasetBundle, split) -> list:
    """The scans of ``split``, which a score reads; raises LidarMoeError
    when the split is empty or, naming the dataset and the split, when it
    holds no labeled point, so a run fails before any work."""
    scans = data.scans(split)
    if not any(np.any(scan.cloud.label >= 0) for scan in scans):
        raise LidarMoeError(f"dataset {config.dataset} has no labeled point "
                            f"in its {split} split")
    return scans


def _superpoint_scans(config: RunConfig, data: DatasetBundle):
    """The train scans with at least two superpoints, which stage 1 and CML
    train on, and ``{scan name: partition}`` of each.

    Raises LidarMoeError when a train scan has no camera pairing or no
    train scan has two superpoints.
    """
    usable, partitions = [], {}
    for scan in data.train:
        if scan.render is None:
            raise LidarMoeError(f"train scan {scan.name} lacks camera pairing")
        partition = build_superpoints(scan.cloud, data.camera, scan.render.superpixel,
                                      scan.render.depth, tolerance=config.superpoint_tolerance)
        if partition.count >= 2:
            usable.append(scan)
            partitions[scan.name] = partition
    if not usable:
        raise LidarMoeError("no train scan has at least two superpoints")
    return usable, partitions


def _labeled_scans(data: DatasetBundle) -> list:
    """The train scans with a labeled point, which SMS and the probe train
    on; raises LidarMoeError naming the dataset when the train split is
    empty or no scan has a label."""
    labeled = [s for s in data.scans("train") if np.any(s.cloud.label >= 0)]
    if not labeled:
        raise LidarMoeError(f"dataset {data.path} has no labeled training scan")
    return labeled


# ---------------------------------------------------------------------------
# representation views
# ---------------------------------------------------------------------------

@dataclass
class ReprView:
    """One representation of one (possibly augmented) cloud: its encoder's
    input features and index structures, in the encoder's argument order,
    plus the per-point row index into the encoder output."""

    features: np.ndarray
    index: tuple
    gather: np.ndarray | None
    mapping: object
    encoder: object

    def output(self, ctx, prefix, head="head"):
        """Encoder output in representation space (cells / voxels / points);
        the features are the graph input named ``prefix``."""
        return self.encoder(ctx, ctx.input(prefix), *self.index, prefix, head)

    def align(self, out):
        """Encoder output rows gathered to one row per point."""
        return out if self.gather is None else ad.gather_rows(out, self.gather)

    def aligned(self, ctx, prefix):
        return self.align(self.output(ctx, prefix))

    def pooled(self, ctx, prefix, partition):
        """Encoder output averaged per superpoint of ``partition``, its
        rows gathered straight to the assigned points by one gather."""
        return build_group_mean(self.output(ctx, prefix), partition, self.gather)

    def labels(self, cloud):
        """Per-row labels of the encoder output."""
        return cloud.label if self.gather is None else project_labels(cloud, self.mapping)


def make_view(kind, cloud, sensor, config: RunConfig) -> ReprView:
    """The ``kind`` view of ``cloud``."""
    if kind == "range":
        ri = project_to_range(cloud, sensor)
        return ReprView(ri.features, (), ri.point_cell_ids(), ri, build_range_embed)
    if kind == "voxel":
        try:
            vg = voxelize(cloud, config.voxel_size)
            pairs = voxel_neighbor_pairs(vg)
        except LidarMoeError as err:  # the key to fix is voxel_size
            raise LidarMoeError(f"voxel_size {list(config.voxel_size)}: {err}") from None
        return ReprView(vg.features, (pairs,), vg.point_voxel, vg, build_voxel_embed)
    if kind == "point":
        grouping = point_grouping(cloud, config.centroid_count, config.knn_k)
        return ReprView(cloud.features(), (grouping,), None, grouping, build_point_embed)
    raise LidarMoeError(f"unknown representation: {kind}")


def _scan_view(scan: LoadedScan, kind, sensor, config: RunConfig, *seed_parts):
    """The ``kind`` view of ``scan``.

    When ``config.augment`` is set and ``seed_parts`` name a draw, it is a
    new view of ``scan.cloud`` augmented with seed ``_step_seed(config.seed,
    *seed_parts)``, so views asked for with the same parts see one cloud.
    Otherwise it is the scan's own un-augmented view, built on first use
    and kept in ``scan.views`` under its kind and every setting a view reads.
    """
    if config.augment and seed_parts:
        cloud = augment_cloud(scan.cloud, _step_seed(config.seed, *seed_parts))
        return make_view(kind, cloud, sensor, config)
    key = (kind, config.voxel_size, config.centroid_count, config.knn_k)
    if key not in scan.views:
        scan.views[key] = make_view(kind, scan.cloud, sensor, config)
    return scan.views[key]


def _inputs(views: dict) -> dict:
    """The graph inputs of ``{prefix: view}``: each view's features, named
    by the parameter prefix of the encoder that reads them."""
    return {prefix: view.features for prefix, view in views.items()}


def build_group_mean(feats_var, partition, rows=None):
    """Mean of the rows of ``feats_var`` per superpoint of ``partition``;
    with ``rows``, a point's row is ``rows[point]``, else the point id."""
    keep = np.flatnonzero(partition.point_group >= 0)
    groups = partition.point_group[keep].astype(np.int64)
    src = keep if rows is None else rows[keep]
    return ad.segment_mean(ad.gather_rows(feats_var, src), groups, partition.count)


def _accumulate(batch_grads: list) -> dict:
    total = {}
    for grads in batch_grads:
        for name, g in grads.items():
            acc = total.get(name)
            total[name] = g.astype(np.float64) if acc is None else acc + g
    return {n: (g / len(batch_grads)).astype(np.float32) for n, g in total.items()}


def _train_epochs(config, scans, graph_fn, store, peak_lr, log_path, stage_name,
                  on_epoch):
    """The training loop of every stage and the probe: per epoch, per
    batch of ``config.batch_size`` scans, average the grads and step the
    run's one AdamW over ``store``, logging to a ``TrainingLog`` at
    ``log_path``.

    Callers pass only the scans they train on, so the one-cycle schedule
    spans exactly the steps taken: ``epochs x ceil(len(scans) /
    batch_size)``. ``peak_lr(name)`` is each parameter's schedule peak.
    ``graph_fn(scan_index, scan, epoch) -> (build, inputs)`` gives a step's
    graph, which the loop runs backward in train mode with the seed
    ``_step_seed(config.seed, stage_name, epoch, scan_index)``; it logs the
    ``loss`` output, then every other 0-d output in name order.
    ``on_epoch(epoch)``, unless None, returns values logged after the
    epoch's mean loss. A NonFiniteError of a step is raised again with the
    stage, epoch and scan name in its message. Returns per-epoch mean losses.
    """
    batches = math.ceil(len(scans) / config.batch_size)
    optimizer = AdamW(store, peak_lr, max(1, config.epochs * batches))
    epoch_losses, global_step = [], 0
    with TrainingLog(log_path) as log:
        for epoch in range(config.epochs):
            losses, pending = [], []
            for idx, scan in enumerate(scans):
                try:
                    build, inputs = graph_fn(idx, scan, epoch)
                    outs, grads = ad.backward(
                        Graph(build), store, inputs,
                        seed=_step_seed(config.seed, stage_name, epoch, idx))
                except NonFiniteError as exc:
                    raise NonFiniteError(f"{stage_name} epoch {epoch} scan "
                                         f"{scan.name}: {exc}") from exc
                del build, inputs  # frees an augmented step's views before the next step's
                losses.append(float(outs["loss"]))
                pending.append(grads)
                if len(pending) >= config.batch_size:
                    optimizer.step(_accumulate(pending))
                    pending = []
                scalars = sorted(k for k, v in outs.items() if k != "loss" and v.ndim == 0)
                for term in ["loss"] + scalars:
                    log.append(global_step, stage_name, term, outs[term])
                global_step += 1
            if pending:
                optimizer.step(_accumulate(pending))
            mean = float(np.mean(losses))
            epoch_losses.append(mean)
            log.append(global_step, stage_name, "epoch_loss", mean)
            if on_epoch is not None:
                for term, value in on_epoch(epoch).items():
                    log.append(global_step, stage_name, term, value)
    return epoch_losses


def _save_stage(path, store, config: RunConfig, stage, **extra):
    """A stage checkpoint whose metadata holds stage, digest, seed and ``extra``."""
    save_checkpoint(path, store, {"stage": stage, "config_digest": config.digest(),
                                  "seed": config.seed, **extra})


# ---------------------------------------------------------------------------
# stage 1: image-to-LiDAR pretraining
# ---------------------------------------------------------------------------

def init_backbone_store(kind, config: RunConfig, seed_tag) -> ParameterStore:
    store = ParameterStore()
    rng = np.random.default_rng(_step_seed(config.seed, "init", seed_tag, kind))
    init_encoder_params(store, kind, config.embed_dim, rng)
    return store


def stage1_pretrain(config: RunConfig, out_dir):
    """Train each representation encoder against the frozen teacher.

    Writes one checkpoint and one loss log per representation; returns
    {representation: {checkpoint, epoch_losses, skipped}}.
    """
    out = Path(out_dir)
    data = load_dataset(config.dataset)
    teacher = teacher_weights(data.num_classes, config.embed_dim,
                              _step_seed(config.seed, "teacher"))
    scans, partitions = _superpoint_scans(config, data)
    targets = {scan.name: teacher_features(scan.render, teacher)[
        partitions[scan.name].superpixel_of] for scan in scans}

    results = {}
    for kind in REPRESENTATIONS:
        store = init_backbone_store(kind, config, "stage1")

        def graph_fn(idx, scan, epoch):
            view = _scan_view(scan, kind, data.sensor, config, "s1", kind, epoch, idx)

            def build(ctx):
                k = view.pooled(ctx, kind, partitions[scan.name])
                loss = build_info_nce(k, ad.as_var(targets[scan.name]),
                                      config.temperature,
                                      config.contrastive_denominator)
                return {"loss": loss}

            return build, _inputs({kind: view})

        epoch_losses = _train_epochs(config, scans, graph_fn, store,
                                     lambda _: config.lr_stage1,
                                     out / f"stage1_{kind}_log.csv",
                                     f"stage1-{kind}", None)
        ckpt = out / f"stage1_{kind}.ckpt"
        _save_stage(ckpt, store, config, f"stage1-{kind}")
        results[kind] = {"checkpoint": str(ckpt), "epoch_losses": epoch_losses,
                         "skipped": len(data.train) - len(scans)}
    return results


# ---------------------------------------------------------------------------
# stage 2: contrastive mixture learning
# ---------------------------------------------------------------------------

def stage2_cml(config: RunConfig, expert_ckpts: dict, out_dir):
    """Distill the gated expert fusion into a single student network.

    ``expert_ckpts`` maps each representation to its stage-1 checkpoint.
    The experts are frozen by being only evaluated: each step, every
    expert's per-point features are an array from ``embed_view``, and the
    trained graph fuses the three side by side, as one constant. The
    trained store holds the student's backbone (``param_names``), which
    warm-starts from its stage-1 checkpoint (per ``config.student_init``),
    and the gate's ``moe.*``.
    Writes that store as the checkpoint, a loss log, and per-scan
    gate-score CSVs from the final epoch. ``experts_frozen`` says whether
    every expert store still equals its copy taken at load.
    """
    out = Path(out_dir)
    data = load_dataset(config.dataset)
    usable, partitions = _superpoint_scans(config, data)

    experts = {k: load_checkpoint(expert_ckpts[k])[0] for k in REPRESENTATIONS}
    for kind, expert in experts.items():
        width = embedding_width(expert, kind, expert_ckpts[kind])
        backbone_kind(expert, kind, expert_ckpts[kind])
        if width != config.embed_dim:
            raise LidarMoeError(f"checkpoint {expert_ckpts[kind]} embeds {kind} in "
                                f"{width} dims, but embed_dim is {config.embed_dim}")
    loaded = {k: experts[k].copy() for k in REPRESENTATIONS}
    store = ParameterStore()
    student_src = experts[config.student] if config.student_init == "stage1" \
        else init_backbone_store(config.student, config, "cml-student")
    for name in sum(param_names(config.student), []):
        store.add(name, student_src.get(name).copy())
    init_moe_params(store, config.embed_dim,
                    np.random.default_rng(_step_seed(config.seed, "init", "moe")))

    final_gates = {}

    def graph_fn(idx, scan, epoch):
        partition = partitions[scan.name]
        # each view has its own augmentation draw; un-augmented, the
        # student shares its expert's view
        features = np.concatenate(
            [embed_view(experts[k], _scan_view(scan, k, data.sensor, config,
                                               "cml", k, epoch, idx), k)
             for k in REPRESENTATIONS], axis=1)
        student = _scan_view(scan, config.student, data.sensor, config,
                             "cml", "student", epoch, idx)

        def build(ctx):
            fused, gates = build_moe(ctx, features, "cml")
            if epoch == config.epochs - 1:
                final_gates[scan.name] = gates.data
            k_moe = build_group_mean(fused, partition)
            k_student = student.pooled(ctx, config.student, partition)
            loss = build_info_nce(k_student, k_moe, config.temperature,
                                  config.contrastive_denominator)
            return {"loss": loss, **gate_terms(gates.data)}

        return build, _inputs({config.student: student})

    epoch_losses = _train_epochs(config, usable, graph_fn, store,
                                 lambda _: config.lr_cml, out / "cml_log.csv",
                                 "cml", None)
    for name, gates in sorted(final_gates.items()):
        write_gate_csv(out / f"cml_gates_{name}.csv", gates)

    ckpt = out / "cml_student.ckpt"
    _save_stage(ckpt, store, config, "cml", student=config.student)
    frozen_ok = all(experts[k].state_equal(loaded[k]) for k in REPRESENTATIONS)
    return {"checkpoint": str(ckpt), "epoch_losses": epoch_losses,
            "skipped": len(data.train) - len(usable), "experts_frozen": frozen_ok,
            "usable_scans": len(usable)}


# ---------------------------------------------------------------------------
# stage 3: semantic mixture supervision
# ---------------------------------------------------------------------------

def _sms_store(config: RunConfig, init_ckpts: dict, num_classes) -> ParameterStore:
    store = ParameterStore()
    for kind in REPRESENTATIONS:
        src_path = init_ckpts.get(kind)
        if src_path:
            src, _ = load_checkpoint(src_path)
            backbone_kind(src, kind, src_path)
        else:
            src = init_backbone_store(kind, config, "sms")
        for name in param_names(kind)[0]:
            store.add(name, src.get(name).copy())
        rng = np.random.default_rng(_step_seed(config.seed, "init", "sms-head", kind))
        add_linear(store, f"{kind}.logit_head", trunk_width(kind), num_classes, rng)
    init_moe_params(store, num_classes,
                    np.random.default_rng(_step_seed(config.seed, "init", "sms-moe")))
    return store


def _sms_forward_build(ctx, views):
    logits = {k: views[k].output(ctx, k, head="logit_head") for k in REPRESENTATIONS}
    aligned = {k: views[k].align(logits[k]) for k in REPRESENTATIONS}
    fused, gates = build_moe(ctx, ad.concat_cols(list(aligned.values())), "sms")
    return logits, aligned, fused, gates


def stage3_sms(config: RunConfig, init_ckpts: dict, out_dir):
    """Fine-tune all three backbones with supervised logit fusion.

    ``init_ckpts`` maps representation to a warm-start checkpoint (stage-1,
    distilled-student or SMS), whose trunk alone is copied; a missing entry
    means random init. One AdamW steps every parameter: the trunks
    (``param_names``) peak at ``lr_sms_backbone``, logit heads and the gate
    at ``lr_sms_other``.
    Validation runs after every epoch in eval mode (no gate noise); the
    last one gives ``val_miou``.
    """
    out = Path(out_dir)
    data = load_dataset(config.dataset)
    _scored_scans(config, data, "val")  # fail before training
    labeled = _labeled_scans(data)
    labeled = labeled[:max(1, int(np.ceil(data.annotation_fraction * len(labeled))))]
    cfg = replace(config, epochs=config.sms_epochs, augment=config.sms_augment)
    store = _sms_store(config, init_ckpts, data.num_classes)
    trunks = {name for kind in REPRESENTATIONS for name in param_names(kind)[0]}
    val_history = []

    def graph_fn(idx, scan, epoch):
        # one draw for the three views, so they see one augmented cloud
        views = {k: _scan_view(scan, k, data.sensor, cfg, "sms", epoch, idx)
                 for k in REPRESENTATIONS}
        # augmentation moves points only, so labels are the scan's own
        labels = {"fused": scan.cloud.label,
                  **{k: v.labels(scan.cloud) for k, v in views.items()}}

        def build(ctx):
            logits, _, fused, gates = _sms_forward_build(ctx, views)
            total, breakdown = build_sms_total({"fused": fused, **logits}, labels)
            return {"loss": total, **breakdown, **gate_terms(gates.data)}

        return build, _inputs(views)

    def peak_lr(name):
        return config.lr_sms_backbone if name in trunks else config.lr_sms_other

    def validate(epoch):
        reports, _ = evaluate_store(store, config, data, split="val", keep_views=True)
        val_history.append({k: r.miou for k, r in reports.items()})
        return {f"val_miou_{k}": r.miou for k, r in reports.items()}

    epoch_losses = _train_epochs(cfg, labeled, graph_fn, store, peak_lr,
                                 out / "sms_log.csv", "sms", validate)
    ckpt = out / "sms_model.ckpt"
    _save_stage(ckpt, store, config, "sms")
    val_miou = val_history[-1] if val_history else {
        k: r.miou for k, r in evaluate_store(store, config, data)[0].items()}
    return {"checkpoint": str(ckpt), "epoch_losses": epoch_losses,
            "val_history": val_history, "val_miou": val_miou}


def evaluate_store(store, config: RunConfig, data: DatasetBundle, split="val",
                   keep_views=False):
    """Inference forward (noise off) over one split, one pass per scan.

    Returns per-class IoU reports for the fused head and each single
    head, and the fused per-point predictions of each scan in split order.
    A scan's views are dropped once it is scored, unless ``keep_views``.
    A split with no labeled point raises LidarMoeError before any forward.
    """
    scans = _scored_scans(config, data, split)
    preds = {k: [] for k in ("fused",) + REPRESENTATIONS}
    for scan in scans:
        views = {k: _scan_view(scan, k, data.sensor, config) for k in REPRESENTATIONS}

        def build(ctx):
            _, aligned, fused, _ = _sms_forward_build(ctx, views)
            return {"fused": fused, **aligned}

        outs = ad.evaluate(Graph(build), store, _inputs(views))
        for k, head in preds.items():
            head.append(np.argmax(outs[k], axis=1))
        if not keep_views:
            scan.views.clear()
    labels = np.concatenate([scan.cloud.label for scan in scans])
    reports = {k: compute_miou(np.concatenate(v), labels, data.num_classes)
               for k, v in preds.items()}
    return reports, preds["fused"]


# ---------------------------------------------------------------------------
# linear probing
# ---------------------------------------------------------------------------

def backbone_kind(store: ParameterStore, representation, source) -> str:
    """``representation`` if ``store`` holds its ``<kind>.*`` parameters,
    else, when it is None, the one backbone kind the store holds; raises
    LidarMoeError naming the checkpoint ``source`` otherwise, or naming it
    and the first trunk parameter of that kind it lacks or holds in
    another shape than its ``encoders._LAYERS`` row gives."""
    names = store.names()
    kinds = [k for k in REPRESENTATIONS if any(n.startswith(k + ".") for n in names)]
    if representation is not None and representation not in kinds:
        raise LidarMoeError(f"checkpoint {source} has no {representation} backbone")
    if representation is None and len(kinds) != 1:
        raise LidarMoeError(f"checkpoint {source} holds {len(kinds)} backbones "
                            f"({', '.join(kinds)}); set representation to pick one")
    kind = representation or kinds[0]
    check_param_shapes(store, trunk_shapes(kind), source)
    return kind


def embedding_width(store: ParameterStore, kind, source, head="head") -> int:
    """The width of the ``kind`` backbone's ``head`` in ``store``, its
    embedding ``head`` or its ``logit_head``; raises LidarMoeError naming
    the checkpoint ``source`` when it has none, or when the head's weight
    does not read the trunk's width or its bias is not one per column."""
    if f"{kind}.{head}.w" not in store.names():
        what, holders = ("embedding", "stage-1 and cml") if head == "head" else ("logit", "sms")
        raise LidarMoeError(f"checkpoint {source} has no {kind} {what} head "
                            f"(only {holders} checkpoints have one)")
    w = store.get(f"{kind}.{head}.w")
    check_param_shapes(store, {f"{kind}.{head}.w": (trunk_width(kind), *w.shape[-1:]),
                               f"{kind}.{head}.b": w.shape[1:]}, source)
    return w.shape[1]


def check_param_shapes(store: ParameterStore, wanted: dict, source) -> None:
    """Raises LidarMoeError naming the checkpoint ``source`` and the first
    parameter of ``wanted`` (``{name: shape}``, in order) that ``store``
    lacks or holds in another shape, with both shapes."""
    names = set(store.names())
    for name, shape in wanted.items():
        if name not in names:
            raise LidarMoeError(f"checkpoint {source} lacks parameter {name}")
        if store.get(name).shape != shape:
            raise LidarMoeError(f"checkpoint {source} parameter {name} has shape "
                                f"{store.get(name).shape}, want {shape}")


def embed_view(store, view: ReprView, kind):
    """Per-point embeddings of ``view`` by the ``kind`` backbone of
    ``store``: an evaluated array, so no gradient ever reaches ``store``."""
    graph = Graph(lambda ctx: {"out": view.aligned(ctx, kind)})
    return ad.evaluate(graph, store, _inputs({kind: view}))["out"]


def linear_probe(config: RunConfig, out_dir, checkpoint=None, representation=None):
    """Train a linear head on the per-point embeddings (``embed_view``) of
    the labeled train scans; report val mIoU. The backbone is only
    evaluated, so it stays frozen; ``backbone_intact`` checks that it does.

    The backbone comes from ``checkpoint``, picked by ``backbone_kind``,
    or, without a checkpoint, is a fresh ``representation`` backbone
    (default ``config.student``): the random baseline.
    """
    out = Path(out_dir)
    if checkpoint is None:
        kind = representation or config.student
        store = init_backbone_store(kind, config, "probe-baseline")
    else:
        store, _ = load_checkpoint(checkpoint)
        kind = backbone_kind(store, representation, checkpoint)
    width = embedding_width(store, kind, checkpoint)
    before = store.copy()
    data = load_dataset(config.dataset)
    val = _scored_scans(config, data, "val")
    train = _labeled_scans(data)
    train_embeds = [embed_view(store, _scan_view(scan, kind, data.sensor, config), kind)
                    for scan in train]
    probe = ParameterStore()
    add_linear(probe, "probe", width, data.num_classes,
               np.random.default_rng(_step_seed(config.seed, "probe-init")))

    def logits(ctx):
        return linear(ctx, ctx.input("emb"), "probe")

    def graph_fn(idx, scan, epoch):
        return (lambda ctx: {"loss": build_cross_entropy(logits(ctx), scan.cloud.label)},
                {"emb": train_embeds[idx]})

    _train_epochs(replace(config, epochs=config.probe_epochs), train,
                  graph_fn, probe, lambda _: config.probe_lr,
                  out / f"probe_{kind}_log.csv", "probe", None)

    head = Graph(lambda ctx: {"logits": logits(ctx)})
    preds, labels = [], []
    for scan in val:
        emb = embed_view(store, _scan_view(scan, kind, data.sensor, config), kind)
        outs = ad.evaluate(head, probe, {"emb": emb})
        preds.append(np.argmax(outs["logits"], axis=1))
        labels.append(scan.cloud.label)
    report = compute_miou(np.concatenate(preds), np.concatenate(labels),
                          data.num_classes)
    return {"report": report, "backbone_intact": store.state_equal(before)}
