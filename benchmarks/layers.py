"""Which lidarmoe functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every metric is named ``<module>.<function>.<stat>``; ``s`` is self time
(duration minus the time covered by child spans), ``calls`` a call count.
"""

from __future__ import annotations

import os
import sys
import zlib

import numpy as np

from tracer import NAME, PARENT, START, END, Tracer, nearest_ancestor, self_times

PACKAGE = "lidarmoe"

# The autodiff primitives reported one by one; every other primitive is
# traced too and reported as ``autodiff.fwd.other`` / ``autodiff.bwd.other``.
LISTED_PRIMITIVES = ("conv2d3x3", "gather_rows", "segment_mean", "segment_max",
                     "matmul", "log_softmax_rows", "softmax_rows", "relu", "mul",
                     "add")

FUNCTIONS = (
    ("autodiff", "backward"), ("autodiff", "evaluate"),
    ("pipeline", "make_view"), ("pipeline", "load_dataset"),
    ("pipeline", "evaluate_store"),
    ("geometry", "project_to_range"), ("geometry", "voxelize"),
    ("geometry", "build_superpoints"), ("geometry", "project_labels"),
    ("encoders", "point_grouping"), ("encoders", "voxel_neighbor_pairs"),
    ("encoders", "teacher_features"),
    ("moe", "build_moe"), ("losses", "build_info_nce"), ("losses", "build_sms_total"),
    ("params", "save_checkpoint"), ("params", "load_checkpoint"),
    ("dataio", "read_lpcd"), ("dataio", "write_lpcd"), ("dataio", "read_camera_npz"),
    ("datagen", "simulate_lidar"), ("datagen", "render_camera"), ("datagen", "corrupt"),
)

METHODS = (
    ("autodiff", "Graph", "run"), ("autodiff", "Var", "add_grad"),
    ("optim", "AdamW", "step"), ("dataio", "TrainingLog", "append"),
)

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _array_key(arr):
    arr = np.ascontiguousarray(arr)
    return arr.shape, zlib.crc32(arr)


def _cloud_key(cloud):
    return _array_key(cloud.xyz), _array_key(cloud.intensity)


def _before_make_view(tracer, args, kwargs):
    key = (_arg(args, kwargs, 0, "kind"), _cloud_key(_arg(args, kwargs, 1, "cloud")))
    tracer.distinct["pipeline.make_view"].add(key)


def _before_build_superpoints(tracer, args, kwargs):
    key = (_cloud_key(_arg(args, kwargs, 0, "cloud")),
           _array_key(_arg(args, kwargs, 2, "superpixel_map")))
    tracer.distinct["geometry.build_superpoints"].add(key)


def _after_save_checkpoint(tracer, args, kwargs, result):
    tracer.counters["params.save_checkpoint.bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _shape(value):
    return np.shape(getattr(value, "data", value))


def _before_conv(tracer, args, kwargs):
    h, w, cin = _shape(_arg(args, kwargs, 0, "x"))
    cout = _shape(_arg(args, kwargs, 1, "w"))[1]
    tracer.counters["autodiff.fwd.conv2d3x3.flops"] += 2.0 * h * w * 9 * cin * cout


def _before_gather_bwd(tracer, args, kwargs):
    tracer.counters["autodiff.bwd.gather_rows.rows"] += _shape(args[0])[0]


_HOOKS = {
    "pipeline.make_view": {"before": _before_make_view},
    "geometry.build_superpoints": {"before": _before_build_superpoints},
    "params.save_checkpoint": {"after": _after_save_checkpoint},
    "autodiff.fwd.conv2d3x3": {"before": _before_conv},
    "autodiff.bwd.gather_rows": {"before": _before_gather_bwd},
}


def primitive_names(autodiff) -> list[str]:
    """Public autodiff functions that create graph nodes (call ``_out``)."""
    names = sorted(n for n, fn in vars(autodiff).items()
                   if callable(fn) and not n.startswith("_")
                   and "_out" in getattr(getattr(fn, "__code__", None), "co_names", ()))
    missing = set(LISTED_PRIMITIVES) - set(names)
    if missing:
        raise RuntimeError(f"autodiff primitives not found: {sorted(missing)}")
    return names


def _primitive_wrapper(tracer, prim):
    bwd_name = f"autodiff.bwd.{prim}"
    bwd_hook = _HOOKS.get(bwd_name, {}).get("before")

    def after(tr, args, kwargs, var):
        if getattr(var, "bwd", None) is not None:
            var.bwd = tr.wrap(bwd_name, var.bwd, before=bwd_hook)

    def make(original):
        return tracer.wrap(f"autodiff.fwd.{prim}", original,
                           before=_HOOKS.get(f"autodiff.fwd.{prim}", {}).get("before"),
                           after=after)
    return make


def install(tracer: Tracer) -> None:
    """Wrap every catalogued function; undo with ``tracer.uninstall()``."""
    try:
        for module, attr in FUNCTIONS:
            name = f"{module}.{attr}"
            hooks = _HOOKS.get(name, {})
            tracer.patch_function(PACKAGE, module, attr,
                                  lambda fn, name=name, hooks=hooks:
                                  tracer.wrap(name, fn, **hooks))
        for module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            name = f"{module}.{cls_name}.{attr}"
            tracer.patch_method(cls, attr, lambda fn, name=name: tracer.wrap(name, fn))
        autodiff = sys.modules[f"{PACKAGE}.autodiff"]
        for prim in primitive_names(autodiff):
            tracer.patch_function(PACKAGE, "autodiff", prim, _primitive_wrapper(tracer, prim))
    except Exception:
        tracer.uninstall()
        raise


def summarize(spans):
    """Per span name: call count, summed duration and summed self time."""
    selfs = self_times(spans)
    calls, dur, self_s = {}, {}, {}
    for span, s in zip(spans, selfs):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + (span[END] - span[START])
        self_s[name] = self_s.get(name, 0.0) + s
    return calls, dur, self_s, selfs


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(timed: Tracer, setup: Tracer, traced_wall_s, overhead_frac,
                  eval_scans) -> dict:
    """Per-layer metrics of one traced repetition.

    ``timed`` holds the spans of the timed part, whose root spans are the
    benchmark's ``cli.<subcommand>`` spans; ``setup`` holds the set-up
    spans, which feed only the data-generation metrics. ``eval_scans`` is
    the number of scans the ``eval`` subcommands were asked to score.
    """
    spans = timed.spans
    calls, dur, self_s, selfs = summarize(spans)
    s_self = summarize(setup.spans)[2]
    m = {}

    def put(name, value):
        m[name] = float(value)

    backward = calls.get("autodiff.backward", 0)
    put("autodiff.backward.calls", backward)
    put("autodiff.forward.s", self_s.get("autodiff.Graph.run", 0.0))
    run_in_backward = sum(s[END] - s[START] for s in spans
                          if s[NAME] == "autodiff.Graph.run" and s[PARENT] >= 0
                          and spans[s[PARENT]][NAME] == "autodiff.backward")
    put("autodiff.backprop.s", dur.get("autodiff.backward", 0.0) - run_in_backward)
    put("autodiff.evaluate.calls", calls.get("autodiff.evaluate", 0))

    owner = nearest_ancestor(spans, {"autodiff.backward", "autodiff.evaluate"})
    nodes = sum(1 for s, o in zip(spans, owner)
                if s[NAME].startswith("autodiff.fwd.") and o >= 0
                and spans[o][NAME] == "autodiff.backward")
    put("autodiff.nodes_per_step", _ratio(nodes, backward))

    other_fwd = other_bwd = 0.0
    for name, value in self_s.items():
        if name.startswith("autodiff.fwd.") and name[13:] not in LISTED_PRIMITIVES:
            other_fwd += value
        if name.startswith("autodiff.bwd.") and name[13:] not in LISTED_PRIMITIVES:
            other_bwd += value
    for prim in LISTED_PRIMITIVES:
        put(f"autodiff.fwd.{prim}.calls", calls.get(f"autodiff.fwd.{prim}", 0))
        put(f"autodiff.fwd.{prim}.s", self_s.get(f"autodiff.fwd.{prim}", 0.0))
        put(f"autodiff.bwd.{prim}.s", self_s.get(f"autodiff.bwd.{prim}", 0.0))
    put("autodiff.fwd.other.s", other_fwd)
    put("autodiff.bwd.other.s", other_bwd)
    put("autodiff.bwd.gather_rows.rows", timed.counters["autodiff.bwd.gather_rows.rows"])
    put("autodiff.fwd.conv2d3x3.flops", timed.counters["autodiff.fwd.conv2d3x3.flops"])

    def calls_and_self(name):
        put(f"{name}.calls", calls.get(name, 0))
        put(f"{name}.s", self_s.get(name, 0.0))

    calls_and_self("autodiff.Var.add_grad")
    calls_and_self("pipeline.make_view")
    put("pipeline.make_view.distinct_ratio",
        _ratio(len(timed.distinct["pipeline.make_view"]), calls.get("pipeline.make_view", 0)))
    calls_and_self("pipeline.load_dataset")
    put("pipeline.evaluate_store.s", self_s.get("pipeline.evaluate_store", 0.0))
    eval_owner = nearest_ancestor(spans, {"cli.eval"})
    eval_forwards = sum(1 for s, o in zip(spans, eval_owner)
                        if s[NAME] == "autodiff.evaluate" and o >= 0)
    put("pipeline.forwards_per_eval_scan", _ratio(eval_forwards, eval_scans))

    for name in ("geometry.project_to_range", "geometry.voxelize",
                 "geometry.project_labels", "encoders.point_grouping",
                 "encoders.voxel_neighbor_pairs", "encoders.teacher_features",
                 "moe.build_moe", "losses.build_info_nce", "losses.build_sms_total",
                 "params.save_checkpoint", "dataio.read_lpcd", "dataio.write_lpcd",
                 "dataio.read_camera_npz", "datagen.corrupt"):
        put(f"{name}.s", self_s.get(name, 0.0))
    calls_and_self("geometry.build_superpoints")
    put("geometry.build_superpoints.distinct_ratio",
        _ratio(len(timed.distinct["geometry.build_superpoints"]),
               calls.get("geometry.build_superpoints", 0)))
    calls_and_self("optim.AdamW.step")
    put("params.save_checkpoint.bytes", timed.counters["params.save_checkpoint.bytes"])
    calls_and_self("params.load_checkpoint")
    calls_and_self("dataio.TrainingLog.append")
    put("datagen.simulate_lidar.s", s_self.get("datagen.simulate_lidar", 0.0))
    put("datagen.render_camera.s", s_self.get("datagen.render_camera", 0.0))

    attributed = sum(s for span, s in zip(spans, selfs) if not span[NAME].startswith("cli."))
    put("trace.unattributed_s", traced_wall_s - attributed)
    put("trace.overhead_frac", overhead_frac)
    return m
