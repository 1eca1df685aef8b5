"""Gate laws: convexity, normalization, noise switch, zero-init routing."""

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph
from lidarmoe.errors import LidarMoeError
from lidarmoe.moe import (build_moe, gate_terms, init_moe_params, read_gate_csv,
                          write_gate_csv)
from lidarmoe.params import ParameterStore

from graph_eval import evaluate_builder
from oracles import gate_csv_fstring, gated_sum_slices, linear_add_matmul, mean_all


def fresh_params(dim, seed=0):
    store = ParameterStore()
    init_moe_params(store, dim, np.random.default_rng(seed))
    return store


def fuse(r, v, p, store, train_mode, seed=0):
    """(fused, gates) arrays of the gated fusion; noise is on in train
    mode, as in the stage-3 logit fusion."""
    return evaluate_builder(
        lambda ctx: build_moe(ctx, ad.concat_cols([ctx.input(k) for k in "rvp"]), "moe"),
        {"r": r, "v": v, "p": p}, store, train_mode=train_mode, seed=seed)


def rand_experts(rng, n=20, d=6):
    return (rng.standard_normal((n, d)).astype(np.float32),
            rng.standard_normal((n, d)).astype(np.float32),
            rng.standard_normal((n, d)).astype(np.float32))


def test_identical_experts_fuse_to_themselves(rng):
    store = fresh_params(5)
    f = rng.standard_normal((12, 5)).astype(np.float32)
    fused, _ = fuse(f, f, f, store, train_mode=True, seed=9)
    assert np.allclose(fused, f, atol=1e-6)


def test_zero_gate_uniform_routing(rng):
    store = fresh_params(4)
    r, v, p = rand_experts(rng, d=4)
    fused, gates = fuse(r, v, p, store, train_mode=False)
    third = np.float32(1.0) / np.float32(3.0)
    assert np.all(gates == third)
    assert np.allclose(fused, (r + v + p) / 3.0, atol=1e-6)


def test_forced_large_gate_logit(rng):
    # logits (10, 0, 0) -> alpha ~ 0.999909, fused ~ first expert
    store = fresh_params(3)
    r, v, p = rand_experts(rng, n=4, d=3)

    def build(ctx):
        logits = ad.as_var(np.array([[10.0, 0.0, 0.0]] * 4, np.float32))
        gates = ad.softmax_rows(logits)
        stacked = ad.concat_cols([ctx.input(k) for k in "rvp"])
        return {"fused": ad.gated_sum(gates, stacked), "gates": gates}

    outs = ad.evaluate(Graph(build), ParameterStore(), {"r": r, "v": v, "p": p})
    gates = outs["gates"]
    assert gates[0, 0] == pytest.approx(0.999909, abs=1e-6)
    want = gates[:, :1] * r + gates[:, 1:2] * v + gates[:, 2:] * p
    assert outs["fused"].tobytes() == want.tobytes()
    scale = max(np.abs(np.concatenate([r, v, p])).max(), 1.0)
    assert np.all(np.abs(outs["fused"] - r) < 1e-4 * scale * 10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train_mode", [True, False])
def test_build_moe_gives_the_bytes_of_the_slice_graph(rng, monkeypatch, dtype, train_mode):
    """The fusion of ``linear`` and ``gated_sum`` nodes, whose ``stacked``
    operand feeds both, gives the outputs and the grads (parameters and
    experts) of the ``add(matmul)`` and slice/mul/add graph."""
    store = fresh_params(6, seed=5)
    for name in ("moe.z_gate", "moe.z_noise", "moe.fusion.b"):
        store.set(name, rng.standard_normal(store.get(name).shape).astype(np.float32))
    experts = {k: rng.standard_normal((30, 6)).astype(np.float32) for k in "rvp"}
    upstream = rng.standard_normal((30, 6))
    upstream[::4] = -0.0

    def run():
        leaves = {k: ad.Var(v.astype(dtype), requires_grad=train_mode)
                  for k, v in experts.items()}

        def build(ctx):
            fused, gates = build_moe(ctx, ad.concat_cols(list(leaves.values())), "moe")
            weighted = ad.mul(fused, ad.as_var(upstream.astype(dtype)))
            return {"loss": ad.sum_all(weighted), "fused": fused, "gates": gates}

        ctx, outs = Graph(build).run(store, {}, train_mode=train_mode, seed=3, dtype=dtype)
        if train_mode:
            ad._backprop(outs["loss"])
        grads = {k: v.grad for k, v in {**leaves, **ctx.param_vars()}.items()}
        return {k: v.data for k, v in outs.items()}, grads

    new = run()
    monkeypatch.setattr(ad, "linear", linear_add_matmul)
    monkeypatch.setattr(ad, "gated_sum", gated_sum_slices)
    old = run()
    for got, want in zip(new, old):
        assert got.keys() == want.keys()
        for k in want:
            if want[k] is None:
                assert got[k] is None, k
            else:
                assert (got[k].dtype, got[k].tobytes()) == (want[k].dtype, want[k].tobytes()), k


def test_gate_rows_sum_to_one_with_noise(rng):
    store = fresh_params(6, seed=3)
    # make the gate weights nonzero so logits vary
    store.set("moe.z_gate", rng.standard_normal((6, 3)).astype(np.float32))
    store.set("moe.z_noise", rng.standard_normal((6, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=200, d=6)
    _, gates = fuse(r, v, p, store, train_mode=True, seed=4)
    assert np.all(gates >= 0)
    assert np.all(np.abs(gates.sum(axis=1) - 1.0) <= 1e-6)


def test_convexity_componentwise(rng):
    store = fresh_params(5, seed=2)
    store.set("moe.z_gate", rng.standard_normal((5, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=50, d=5)
    fused, _ = fuse(r, v, p, store, train_mode=True, seed=11)
    lo = np.minimum(np.minimum(r, v), p)
    hi = np.maximum(np.maximum(r, v), p)
    assert np.all(fused >= lo - 1e-6)
    assert np.all(fused <= hi + 1e-6)


def test_noise_changes_training_logits(rng):
    store = fresh_params(6, seed=3)
    store.set("moe.z_gate", rng.standard_normal((6, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=50, d=6)
    _, clean = fuse(r, v, p, store, train_mode=False)
    _, noisy = fuse(r, v, p, store, train_mode=True, seed=12)
    assert not np.array_equal(clean, noisy)


def test_row_count_mismatch_rejected(rng):
    store = fresh_params(4)
    r = rng.standard_normal((5, 4)).astype(np.float32)
    v = rng.standard_normal((6, 4)).astype(np.float32)
    with pytest.raises(LidarMoeError, match=r"^concat_cols row mismatch: \[5, 6\]$"):
        fuse(r, v, r, store, train_mode=False)


def test_columns_that_do_not_split_into_three_experts_rejected(rng):
    store = fresh_params(4)
    stacked = rng.standard_normal((5, 13)).astype(np.float32)
    with pytest.raises(LidarMoeError,
                       match="^13 expert columns do not split into 3 equal blocks$"):
        evaluate_builder(lambda ctx: build_moe(ctx, ctx.input("s"), "moe"),
                         {"s": stacked}, store, train_mode=False)


def test_logits_zeta_zero_bit_identical(rng):
    store = fresh_params(4, seed=1)
    store.set("moe.z_gate", rng.standard_normal((4, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=30, d=4)
    a, ga = fuse(r, v, p, store, train_mode=False, seed=1)
    b, gb = fuse(r, v, p, store, train_mode=False, seed=2)
    assert np.array_equal(a, b)
    assert np.array_equal(ga, gb)


def test_logits_zeta_one_seeded(rng):
    store = fresh_params(4, seed=1)
    store.set("moe.z_noise", rng.standard_normal((4, 3)).astype(np.float32))
    store.set("moe.z_gate", rng.standard_normal((4, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=30, d=4)
    a, _ = fuse(r, v, p, store, train_mode=True, seed=5)
    b, _ = fuse(r, v, p, store, train_mode=True, seed=5)
    c, _ = fuse(r, v, p, store, train_mode=True, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_logits_identical_inputs_convexity(rng):
    store = fresh_params(4, seed=1)
    y = rng.standard_normal((10, 4)).astype(np.float32)
    fused, _ = fuse(y, y, y, store, train_mode=True, seed=3)
    assert np.allclose(fused, y, atol=1e-6)


def test_noise_scale_strictly_positive(rng):
    store = fresh_params(8, seed=4)
    store.set("moe.z_noise", rng.standard_normal((8, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=64, d=8)

    def build(ctx):
        e = ad.add(ad.matmul(ad.concat_cols([ctx.input("r"), ctx.input("v"),
                                             ctx.input("p")]),
                             ctx.param("moe.fusion.w")),
                   ctx.param("moe.fusion.b"))
        return {"scale": ad.softplus(ad.matmul(e, ctx.param("moe.z_noise")))}

    scale = ad.evaluate(Graph(build), store, {"r": r, "v": v, "p": p})["scale"]
    assert np.all(scale > 0)


def test_moe_grad_check(rng):
    store = fresh_params(4, seed=7)
    # move off the zero init so the check exercises nontrivial paths
    store.set("moe.z_gate", 0.1 * rng.standard_normal((4, 3)).astype(np.float32))
    store.set("moe.z_noise", 0.1 * rng.standard_normal((4, 3)).astype(np.float32))
    r, v, p = rand_experts(rng, n=8, d=4)
    target = rng.standard_normal((8, 4)).astype(np.float32)

    def build(ctx):
        fused, _ = build_moe(ctx, ad.concat_cols([ctx.input(k) for k in "rvp"]), "moe")
        err = ad.add(fused, ad.as_var(-target))
        return {"loss": mean_all(ad.mul(err, err))}

    err = ad.grad_check(Graph(build), store, {"r": r, "v": v, "p": p}, seed=3)
    assert err < 1e-4


def test_gate_csv_roundtrip(tmp_path, rng):
    """``read_gate_csv`` returns the written float32 bits: at 0, 1, 1/3,
    0.1, at weights below 1e-4, which are written in exponent form, down
    to the smallest subnormal, and on 200 random rows of convex weights."""
    edge = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3],
                     [0.1, 0.2, 0.7], [1e-5, 3.7e-7, 1 - 1e-5 - 3.7e-7],
                     [np.finfo(np.float32).smallest_subnormal, 1e-38, 1.0]], np.float32)
    raw = rng.uniform(0, 1, (200, 3))
    gates = np.concatenate([edge, (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)])
    path = tmp_path / "gates.csv"
    write_gate_csv(path, gates)
    assert "\n4,9.99999975e-06,3.70000009e-07,0.999989629\n" in path.read_text()
    loaded = read_gate_csv(path)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.view(np.uint32), gates.view(np.uint32))


def test_gate_csv_bytes_equal_the_row_by_row_writer(tmp_path, rng):
    """One ``%`` over a repeated template gives the bytes of one f-string
    per point, each weight to 9 significant digits (a float32 gate's
    ``repr`` as a float64 would take up to 17)."""
    raw = rng.uniform(0, 1, (200, 3))
    gates = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
    gates[0] = [0.1, 0.2, 0.7]
    path = tmp_path / "gates.csv"
    write_gate_csv(path, gates[:1])
    assert path.read_text() == "point_id,alpha,beta,gamma\n0,0.100000001,0.200000003,0.699999988\n"
    for table in (gates, gates[:0]):
        write_gate_csv(path, table)
        assert path.read_text() == gate_csv_fstring(table)


def test_gate_terms_are_column_means_and_mean_row_entropy():
    gates = np.array([[1, 0, 0], [0.5, 0.5, 0], [0.25, 0.25, 0.5]], np.float32)
    terms = {name: var.data for name, var in gate_terms(gates).items()}
    assert list(terms) == ["gate_load_range", "gate_load_voxel", "gate_load_point",
                           "gate_entropy"]
    assert all(v.shape == () for v in terms.values())
    assert [float(terms[f"gate_load_{k}"]) for k in ("range", "voxel", "point")] == \
        pytest.approx([1.75 / 3, 0.75 / 3, 0.5 / 3], abs=1e-15)
    # rows of 0, log 2 and 1.5 log 2 nats: 0 log 0 is 0
    assert float(terms["gate_entropy"]) == pytest.approx(2.5 * np.log(2) / 3, abs=1e-15)
    one_hot = gate_terms(np.eye(3, dtype=np.float32))["gate_entropy"].data
    assert str(float(one_hot)) == "0.0"
