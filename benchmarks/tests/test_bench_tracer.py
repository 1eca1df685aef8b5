import sys

import numpy as np
import pytest

import layers
from tracer import Tracer, WrapError, nearest_ancestor, self_times

import lidarmoe.cli  # noqa: F401  (imports every module the tracer wraps)
from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph
from lidarmoe.params import ParameterStore


def test_self_time_clips_and_merges_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: the union [1, 6] counts once
        ["a.child", 2.0, 3.0, 1],
        ["c", 8.0, 12.0, 0],   # runs past the root: clipped to [8, 10]
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_sum_to_root_duration_for_nested_spans():
    spans = [["root", 0.0, 9.0, -1], ["x", 1.0, 5.0, 0], ["y", 2.0, 3.0, 1],
             ["z", 6.0, 8.0, 0]]
    assert sum(self_times(spans)) == pytest.approx(9.0)


def test_nearest_ancestor_includes_the_span_itself():
    spans = [["cli.eval", 0, 9, -1], ["autodiff.evaluate", 1, 5, 0],
             ["autodiff.fwd.add", 2, 3, 1], ["other", 6, 7, 0]]
    assert nearest_ancestor(spans, {"autodiff.evaluate"}) == [-1, 1, 1, -1]


def _bindings():
    """Every attribute of every lidarmoe module and wrapped class."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "lidarmoe" or name.startswith("lidarmoe."):
            snap[name] = dict(vars(mod))
    for module, cls_name, _ in layers.METHODS:
        cls = getattr(sys.modules[f"lidarmoe.{module}"], cls_name)
        snap[cls.__qualname__] = dict(cls.__dict__)
    return snap


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from lidarmoe import geometry, pipeline
    before = _bindings()
    original = geometry.voxelize
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert pipeline.voxelize is not original
        assert geometry.voxelize is pipeline.voxelize
        assert ad.Graph.run is not before["Graph"]["run"]
    finally:
        tracer.uninstall()
    after = _bindings()
    for key, attrs in before.items():
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_patch_method_fails_loudly_for_a_method_the_class_does_not_define():
    tracer = Tracer()
    with pytest.raises(WrapError):
        tracer.patch_method(ad.Graph, "no_such_method", lambda fn: fn)


def test_traced_backward_records_forward_and_backward_spans():
    store = ParameterStore()
    store.add("w", np.arange(6, dtype=np.float32).reshape(3, 2))

    def build(ctx):
        rows = ad.gather_rows(ctx.param("w"), np.array([0, 2, 2, 1]))
        return {"loss": ad.sum_all(ad.mul(rows, rows))}

    untraced = ad.backward(Graph(build), store, {})[1]["w"]
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = ad.backward(Graph(build), store, {})[1]["w"]
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(traced, untraced)
    calls = layers.summarize(tracer.spans)[0]
    assert calls["autodiff.backward"] == 1
    assert calls["autodiff.Graph.run"] == 1
    assert calls["autodiff.fwd.gather_rows"] == 1
    assert calls["autodiff.bwd.gather_rows"] == 1
    assert tracer.counters["autodiff.bwd.gather_rows.rows"] == 4
    metrics = layers.layer_metrics(tracer, Tracer(), 1.0, 1.0, 0)
    assert metrics["autodiff.nodes_per_step"] == 3  # gather_rows, mul, sum_all
    assert metrics["autodiff.backprop.s"] > 0
