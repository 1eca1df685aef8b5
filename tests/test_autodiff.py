"""Differentiation-core contracts: forward values, reverse-mode gradients
against central differences, determinism, value lifetimes, and error
handling."""

import tracemalloc
import weakref

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph, NonFiniteError
from lidarmoe.errors import LidarMoeError
from lidarmoe.params import ParameterStore

from oracles import (conv2d3x3_shifts, conv2d3x3_whole_image, log_softmax_rows_max,
                     logsumexp_rows_max, relu_where, softmax_rows_max)


def make_store(**arrays):
    store = ParameterStore()
    for name, value in arrays.items():
        store.add(name, np.asarray(value, np.float32))
    return store


def test_relu_forward():
    g = Graph(lambda ctx: {"out": ad.relu(ctx.input("x"))})
    out = ad.evaluate(g, ParameterStore(), {"x": np.array([-1.0, 2.0], np.float32)})
    assert np.array_equal(out["out"], [0.0, 2.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_is_bit_equal_to_the_where_form(dtype):
    """``np.maximum(x, 0)`` gives the bits of ``np.where(x > 0, x, 0)`` on
    finite input: -0.0 and negative subnormals become +0.0, positive
    subnormals are kept."""
    tiny = np.finfo(dtype).smallest_subnormal
    edge = np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, -3 * tiny, -1.0, 1.0,
                     np.finfo(dtype).max, -np.finfo(dtype).max], dtype)
    fmap = np.random.default_rng(5).standard_normal((32, 192, 32)).astype(dtype)
    fmap[0, :4, 0] = [-0.0, 0.0, tiny, -tiny]
    for x in (edge, fmap):
        got = ad.relu(x).data
        assert got.dtype == dtype and got.shape == x.shape
        assert np.array_equal(got.view(np.int32), relu_where(x).view(np.int32))


def _edge_rows(rng, dtype, width):
    """Rows of ``width`` mixing signed zeros, infinities, values far below
    the row max and normal draws, plus all-zero rows of both signs and a
    row whose only maximum is -0.0."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5, -50.0, -90.0], dtype)
    rows = pool[rng.integers(0, pool.size, (40, width))]
    normal = rng.standard_normal((40, width)).astype(dtype)
    rows = np.where(rng.random((40, width)) < 0.3, normal, rows)
    zeros = np.where(rng.random((3, width)) < 0.5, -0.0, 0.0).astype(dtype)
    lone = np.full((1, width), -90.0, dtype)
    lone[0, width // 2] = -0.0
    return np.concatenate([rows, zeros, lone, normal])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("prim, oracle", [(ad.softmax_rows, softmax_rows_max),
                                          (ad.log_softmax_rows, log_softmax_rows_max),
                                          (ad.logsumexp_rows, logsumexp_rows_max)])
def test_row_primitives_give_the_bytes_of_the_max_axis_form(prim, oracle, dtype,
                                                            monkeypatch):
    """The column-wise row max leaves every forward and backward byte of
    the ``max(axis=1)`` form, on rows of width 1-40 with signed zeros and
    infinities. A row max of zeros may differ in sign, which no output
    shows: the shift feeds ``exp``, or a log of a sum >= 2."""
    monkeypatch.setattr(ad, "_check_nodes", False)  # infinities make NaNs
    rng = np.random.default_rng(11)
    for width in range(1, 41):
        x = _edge_rows(rng, dtype, width)
        g = rng.standard_normal((x.shape[0], 1 if prim is ad.logsumexp_rows else width))
        g = g.astype(dtype)
        with np.errstate(invalid="ignore"):
            out = prim(ad.Var(x, requires_grad=True))
            (got_grad,) = out.bwd(g)
            want_out, want_grad = oracle(x, g)
        for got, want in ((out.data, want_out), (got_grad, want_grad)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), width


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_equals_max_axis_on_nan_rows(dtype):
    rng = np.random.default_rng(12)
    for width in range(1, 41):
        x = _edge_rows(rng, dtype, width)
        x[rng.random(x.shape) < 0.2] = np.nan
        got, want = ad._row_max(x), x.max(axis=1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.isnan(want).any() and np.array_equal(got, want, equal_nan=True)


def test_softmax_uniform():
    g = Graph(lambda ctx: {"out": ad.softmax_rows(ctx.input("x"))})
    out = ad.evaluate(g, ParameterStore(), {"x": np.zeros((1, 3), np.float32)})
    assert np.allclose(out["out"], 1.0 / 3.0, atol=1e-7)
    assert abs(out["out"].sum() - 1.0) < 1e-6


def test_softplus_at_zero():
    g = Graph(lambda ctx: {"out": ad.softplus(ctx.input("x"))})
    out = ad.evaluate(g, ParameterStore(), {"x": np.zeros(1, np.float32)})
    assert abs(out["out"][0] - np.log(2.0)) < 1e-6


def test_softplus_positive(rng):
    g = Graph(lambda ctx: {"out": ad.softplus(ctx.input("x"))})
    x = rng.standard_normal(100).astype(np.float32) * 10
    out = ad.evaluate(g, ParameterStore(), {"x": x})
    assert np.all(out["out"] > 0)


def test_backward_half_norm_squared():
    # loss = 0.5 * ||W x||^2 with x = (1, 0), W = I -> dloss/dW = [[1,0],[0,0]]
    store = make_store(w=np.eye(2))

    def build(ctx):
        y = ad.matmul(ctx.param("w"), ctx.input("x"))
        return {"loss": ad.mul(ad.sum_all(ad.mul(y, y)), ad.as_var(np.float32(0.5)))}

    _, grads = ad.backward(Graph(build), store, {"x": np.array([[1.0], [0.0]], np.float32)})
    assert np.allclose(grads["w"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-6)


def test_unused_parameter_gets_zero_gradient():
    store = make_store(used=np.ones(2), unused=np.ones(3))

    def build(ctx):
        ctx.param("unused")
        return {"loss": ad.sum_all(ctx.param("used"))}

    _, grads = ad.backward(Graph(build), store, {})
    assert np.array_equal(grads["unused"], np.zeros(3, np.float32))


def test_parameters_require_grad_exactly_in_train_mode():
    """A parameter leaf, and every node built on it, requires grad in a
    train-mode run and not in an eval-mode one; an input never does."""
    store = make_store(w=np.ones((2, 2)))
    g = Graph(lambda ctx: {"y": ad.matmul(ctx.input("x"), ctx.param("w"))})
    x = {"x": np.ones((3, 2), np.float32)}
    for train_mode in (True, False):
        ctx, outs = g.run(store, x, train_mode=train_mode)
        assert ctx.param("w").requires_grad is train_mode
        assert outs["y"].requires_grad is train_mode
        assert ctx.input("x").requires_grad is False


def test_evaluate_records_no_parents_and_no_backward_closure(monkeypatch):
    """Every output of the eval-mode run behind ``ad.evaluate`` keeps no
    parents and no backward closure, so it holds no graph alive."""
    store = make_store(w=np.ones((2, 2)), b=np.zeros(2))
    g = Graph(lambda ctx: {"y": ad.relu(ad.add(ad.matmul(ctx.input("x"), ctx.param("w")),
                                               ctx.param("b")))})
    runs = []

    def recording(graph, *args, _run=Graph.run, **kwargs):
        runs.append(_run(graph, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(Graph, "run", recording)
    ad.evaluate(g, store, {"x": np.ones((3, 2), np.float32)})
    (_, outs), = runs
    assert outs["y"].parents == () and outs["y"].bwd is None


def test_grad_check_linear_least_squares(rng):
    store = make_store(w=rng.standard_normal((3, 2)), b=rng.standard_normal(2))
    x = rng.standard_normal((5, 3)).astype(np.float32)
    t = rng.standard_normal((5, 2)).astype(np.float32)

    def build(ctx):
        pred = ad.add(ad.matmul(ctx.input("x"), ctx.param("w")), ctx.param("b"))
        err = ad.sub(pred, ad.as_var(t))
        return {"loss": ad.mean_all(ad.mul(err, err))}

    assert ad.grad_check(Graph(build), store, {"x": x}) < 1e-4


def test_grad_check_constant_loss():
    store = make_store(w=np.ones(3))

    def build(ctx):
        ctx.param("w")
        return {"loss": ad.as_var(np.float32(2.0))}

    assert ad.grad_check(Graph(build), store, {}) == 0.0


def test_grad_check_softplus_chain(rng):
    store = make_store(w=rng.standard_normal((4, 3)))

    def build(ctx):
        return {"loss": ad.mean_all(ad.softplus(ad.matmul(ctx.input("x"),
                                                          ctx.param("w"))))}

    x = rng.standard_normal((6, 4)).astype(np.float32)
    assert ad.grad_check(Graph(build), store, {"x": x}) < 1e-4


@pytest.mark.parametrize("op", ["softmax", "log_softmax", "logsumexp", "div",
                                "sqrt", "transpose", "diag",
                                "concat", "slice", "gather", "segment_mean",
                                "segment_max", "sum_cols"])
def test_grad_check_each_primitive(op, rng):
    store = make_store(w=rng.standard_normal((4, 4)))
    x = rng.standard_normal((5, 4)).astype(np.float32)
    seg = np.array([0, 1, 0, 2, 1])

    def body(h):
        if op == "softmax":
            return ad.softmax_rows(h)
        if op == "log_softmax":
            return ad.log_softmax_rows(h)
        if op == "logsumexp":
            return ad.logsumexp_rows(h)
        if op == "div":
            return ad.div(h, ad.as_var(np.float32(3.0)))
        if op == "sqrt":
            return ad.sqrt(ad.add(ad.mul(h, h), ad.as_var(np.float32(1.0))))
        if op == "transpose":
            return ad.transpose(h)
        if op == "diag":
            return ad.take_diag(ad.matmul(h, ad.transpose(h)))
        if op == "concat":
            return ad.concat_cols([h, ad.mul(h, h)])
        if op == "slice":
            return ad.slice_cols(h, 1, 3)
        if op == "gather":
            return ad.gather_rows(h, np.array([0, 0, 2, 4]))
        if op == "segment_mean":
            return ad.segment_mean(h, seg, 3)
        if op == "segment_max":
            return ad.segment_max(h, seg, 3)
        return ad.sum_cols(h)

    def build(ctx):
        h = ad.matmul(ctx.input("x"), ctx.param("w"))
        return {"loss": ad.mean_all(body(h))}

    eps = 1e-4 if op == "segment_max" else 1e-3
    assert ad.grad_check(Graph(build), store, {"x": x}, eps=eps) < 1e-4


def test_conv2d3x3_matches_explicit_convolution(rng):
    h, w, cin, cout = 4, 5, 3, 2
    x = rng.standard_normal((h, w, cin)).astype(np.float32)
    weight = rng.standard_normal((9 * cin, cout)).astype(np.float32)
    bias = rng.standard_normal(cout).astype(np.float32)
    g = Graph(lambda ctx: {"out": ad.conv2d3x3(ctx.input("x"), ctx.param("w"),
                                               ctx.param("b"))})
    store = make_store(w=weight, b=bias)
    out = ad.evaluate(g, store, {"x": x})["out"]

    # independent oracle: direct loop over taps
    xp = np.zeros((h + 2, w + 2, cin))
    xp[1:-1, 1:-1] = x.astype(np.float64)
    expected = np.zeros((h, w, cout))
    for i in range(h):
        for j in range(w):
            acc = bias.astype(np.float64).copy()
            for dy in range(3):
                for dx in range(3):
                    tap = weight[(dy * 3 + dx) * cin:(dy * 3 + dx + 1) * cin]
                    acc += xp[i + dy, j + dx] @ tap.astype(np.float64)
            expected[i, j] = acc
    assert np.allclose(out, expected, atol=1e-5)


@pytest.mark.parametrize("h,w,cin,cout", [(4, 5, 3, 2), (1, 6, 2, 3), (5, 1, 2, 3),
                                          (3, 4, 1, 4), (6, 10, 5, 32),
                                          (6, 10, 32, 32)])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_conv2d3x3_matches_nine_shift_oracle(h, w, cin, cout, dtype, tol):
    """Forward and the three grads against the nine-shift form; the
    summation order differs, so the error is taken relative to the
    largest entry of each reference. A constant image gets no grad."""
    rng = np.random.default_rng(h * 1000 + w * 100 + cin)
    x, weight, bias, g = (rng.standard_normal(shape).astype(dtype) for shape in
                          ((h, w, cin), (9 * cin, cout), (cout,), (h, w, cout)))
    want = conv2d3x3_shifts(x, weight, bias, g)
    for x_trainable in (True, False):
        out = ad.conv2d3x3(ad.Var(x, requires_grad=x_trainable),
                           *(ad.Var(a, requires_grad=True) for a in (weight, bias)))
        assert out.data.dtype == dtype
        got = (out.data,) + tuple(out.bwd(g))
        assert (got[1] is None) == (not x_trainable)
        for name, have, ref in zip(("out", "gx", "gw", "gb"), got, want):
            if have is None:
                continue
            assert have.shape == ref.shape, name
            assert np.max(np.abs(have - ref)) <= tol * np.max(np.abs(ref)), name


def _tap_block_shapes(cin):
    """(H, W) images whose H * (W + 2) flattened rows fall at the edges of
    the row blocks a C_in-channel forward is summed in, by case."""
    step = ad._tap_block_rows(cin)
    return {"several blocks, ragged last": (5, step // 2),
            "a last block of 20 rows": (1, step + 18),
            "exactly one block": (2, step // 2 - 2),
            "fewer rows than one block": (3, 30),
            "64 x 512": (64, 512)}


@pytest.mark.parametrize("case", ["several blocks, ragged last", "a last block of 20 rows",
                                  "exactly one block", "fewer rows than one block",
                                  "64 x 512"])
@pytest.mark.parametrize("cin", [5, 32])
def test_conv2d3x3_row_blocks_give_the_whole_image_bytes(cin, case):
    """The row-blocked tap sum gives the bits of the whole-image sum in the
    forward (C_in 5 and 32, 32 output columns) and in the image grad at
    C_in 32. At C_in 5 the image grad is 5 columns wide, where OpenBLAS
    may round a row block differently; the program never computes it (the
    first conv reads a graph input), so it is held to a tolerance. Every
    image here has more than 37 flattened rows: up to that OpenBLAS rounds
    a product with a strided ``tap.T``, as the whole-image form takes it,
    by another kernel than one with the C-order taps of ``conv2d3x3``; a
    last block of 20 rows shows that blocks of any size keep the bytes."""
    h, w = _tap_block_shapes(cin)[case]
    step, n = ad._tap_block_rows(cin), h * (w + 2)
    assert {"several blocks, ragged last": 2 * step < n < 3 * step,
            "a last block of 20 rows": n == step + 20,
            "exactly one block": n == step, "fewer rows than one block": n < step,
            "64 x 512": True}[case]
    rng = np.random.default_rng(cin + h)
    x, weight, bias, g = (rng.standard_normal(shape).astype(np.float32) for shape in
                          ((h, w, cin), (9 * cin, 32), (32,), (h, w, 32)))
    want_out, want_gx = conv2d3x3_whole_image(x, weight, bias, g)
    out = ad.conv2d3x3(ad.Var(x, requires_grad=True), ad.Var(weight, requires_grad=True),
                       bias)
    gx = out.bwd(g)[0]
    assert out.data.dtype == gx.dtype == np.float32
    assert np.array_equal(out.data, want_out)
    if cin == 32:
        assert np.array_equal(gx, want_gx)
    else:
        assert np.max(np.abs(gx - want_gx)) <= 1e-5 * np.max(np.abs(want_gx))


def test_conv2d3x3_of_an_image_with_no_rows():
    x = np.zeros((0, 6, 5), np.float32)
    weight, bias = np.ones((45, 32), np.float32), np.ones(32, np.float32)
    out = ad.conv2d3x3(*(ad.Var(a, requires_grad=True) for a in (x, weight, bias)))
    assert out.data.shape == (0, 6, 32)
    gx, gw, gb = out.bwd(np.zeros((0, 6, 32), np.float32))
    assert gx.shape == (0, 6, 5)
    assert np.array_equal(gw, np.zeros((45, 32))) and np.array_equal(gb, np.zeros(32))


def test_conv2d3x3_forward_makes_no_full_image_temporary():
    """One 64 x 512 x 32 forward: what it allocates beyond the output it
    returns (4.2 MB) was 8.6 MB with a full-image product per tap (the
    padded image and one tap's product) and is 4.4 MB with row blocks (the
    padded image and one block's product)."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 512, 32)).astype(np.float32)
    weight = rng.standard_normal((288, 32)).astype(np.float32)
    bias = np.zeros(32, np.float32)
    tracemalloc.start()
    try:
        out = ad.conv2d3x3(x, weight, bias)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.shape == (64, 512, 32)
    assert peak - retained < 6e6


@pytest.mark.parametrize("wshape,bshape,message", [
    ((44, 32), (32,), r"conv2d3x3 weight rows 44 != 9\*5"),
    ((45, 32), (31,), r"conv2d3x3 bias shape \(31,\) != \(32,\)"),
    ((45, 32), (1,), r"conv2d3x3 bias shape \(1,\) != \(32,\)"),
    ((45, 32), (1, 32), r"conv2d3x3 bias shape \(1, 32\) != \(32,\)"),
])
def test_conv2d3x3_rejects_a_weight_or_bias_of_the_wrong_shape(wshape, bshape, message):
    with pytest.raises(LidarMoeError, match=message):
        ad.conv2d3x3(np.ones((3, 4, 5), np.float32), np.ones(wshape, np.float32),
                     np.ones(bshape, np.float32))


def test_non_finite_gradient_names_the_parameter():
    """The forward is finite in float32; the grad of p, 2 * 3e38, is not."""
    store = make_store(p=np.full(1, 1e-30))

    def build(ctx):
        pc = ad.mul(ctx.param("p"), ctx.input("c"))
        return {"loss": ad.add(ad.sum_all(pc), ad.sum_all(pc))}

    graph = Graph(build)
    inputs = {"c": np.full(1, 3e38, np.float32)}
    assert np.isfinite(ad.evaluate(graph, store, inputs)["loss"])
    with pytest.raises(NonFiniteError, match="gradient of parameter p"), \
            np.errstate(over="ignore"):
        ad.backward(graph, store, inputs)


def test_non_finite_input_names_itself():
    g = Graph(lambda ctx: {"out": ad.relu(ctx.input("x"))})
    with pytest.raises(NonFiniteError, match="^non-finite value in input x$"):
        ad.evaluate(g, ParameterStore(), {"x": np.array([np.nan], np.float32)})


@pytest.mark.parametrize("train_mode", [True, False])
def test_non_finite_parameter_names_itself(train_mode):
    store = ParameterStore()
    store.add("enc.w", np.array([1.0, np.inf], np.float32))
    g = Graph(lambda ctx: {"out": ad.relu(ctx.param("enc.w"))})
    with pytest.raises(NonFiniteError, match="^non-finite value in parameter enc.w$"):
        g.run(store, {}, train_mode=train_mode)


# every public autodiff function that makes a graph node
PRIMITIVES = sorted(n for n, fn in vars(ad).items()
                    if callable(fn) and not n.startswith("_")
                    and "_out" in getattr(getattr(fn, "__code__", None), "co_names", ()))

SEG = np.array([0, 1, 0, 2, 1])

# primitive -> (parameter shapes, body over the parameter Vars); the bodies
# give every operand a grad, and ``add``/``sub``/``mul`` broadcast one
POLICY_CASES = {
    "add": ({"a": (5, 4), "b": (4,)}, lambda p: ad.add(p["a"], p["b"])),
    "sub": ({"a": (5, 4), "b": (1, 4)}, lambda p: ad.sub(p["a"], p["b"])),
    "neg": ({"a": (5, 4)}, lambda p: ad.neg(p["a"])),
    "mul": ({"a": (5, 4), "b": (4,)}, lambda p: ad.mul(p["a"], p["b"])),
    "div": ({"a": (5, 4), "b": (5, 4)}, lambda p: ad.div(p["a"], p["b"])),
    "matmul": ({"a": (5, 4), "b": (4, 3)}, lambda p: ad.matmul(p["a"], p["b"])),
    "relu": ({"a": (5, 4), "b": (4,)}, lambda p: ad.relu(ad.sub(p["a"], p["b"]))),
    "softplus": ({"a": (5, 4), "b": (4,)},
                 lambda p: ad.softplus(ad.sub(p["a"], p["b"]))),
    "sqrt": ({"a": (5, 4)}, lambda p: ad.sqrt(p["a"])),
    "softmax_rows": ({"a": (5, 4)}, lambda p: ad.softmax_rows(p["a"])),
    "log_softmax_rows": ({"a": (5, 4)}, lambda p: ad.log_softmax_rows(p["a"])),
    "logsumexp_rows": ({"a": (5, 4)}, lambda p: ad.logsumexp_rows(p["a"])),
    "concat_cols": ({"a": (5, 4), "b": (5, 2)},
                    lambda p: ad.concat_cols([p["a"], p["b"]])),
    "slice_cols": ({"a": (5, 4)}, lambda p: ad.slice_cols(p["a"], 1, 3)),
    "reshape": ({"a": (5, 4)}, lambda p: ad.reshape(p["a"], (4, 5))),
    "transpose": ({"a": (5, 4)}, lambda p: ad.transpose(p["a"])),
    "gather_rows": ({"a": (5, 4)},
                    lambda p: ad.gather_rows(p["a"], np.array([0, 0, 2, 4]))),
    "take_diag": ({"a": (4, 4)}, lambda p: ad.take_diag(p["a"])),
    "segment_mean": ({"a": (5, 4)}, lambda p: ad.segment_mean(p["a"], SEG, 3)),
    "segment_max": ({"a": (5, 4)}, lambda p: ad.segment_max(p["a"], SEG, 3)),
    "sum_all": ({"a": (5, 4)}, lambda p: ad.sum_all(p["a"])),
    "mean_all": ({"a": (5, 4)}, lambda p: ad.mean_all(p["a"])),
    "sum_cols": ({"a": (5, 4)}, lambda p: ad.sum_cols(p["a"])),
    "conv2d3x3": ({"x": (3, 4, 2), "w": (18, 3), "b": (3,)},
                  lambda p: ad.conv2d3x3(p["x"], p["w"], p["b"])),
}


def test_policy_cases_cover_every_primitive():
    assert "conv2d3x3" in PRIMITIVES and "scatter_add_rows" not in PRIMITIVES
    assert sorted(POLICY_CASES) == PRIMITIVES


@pytest.mark.parametrize("name", PRIMITIVES)
def test_backward_runs_in_the_graph_dtype(name):
    """Every parameter grad has the graph's dtype and shape, in normal
    (float32) and exact (float64) mode, and exact mode passes grad_check."""
    shapes, body = POLICY_CASES[name]
    rng = np.random.default_rng(7)
    store = make_store(**{k: rng.uniform(0.5, 1.5, s) for k, s in shapes.items()})

    def build(ctx):
        out = body({k: ctx.param(k) for k in shapes})
        weights = np.random.default_rng(8).standard_normal(out.shape)
        return {"loss": ad.sum_all(ad.mul(out, ad.as_var(weights.astype(ctx.dtype))))}

    graph = Graph(build)
    for dtype in (np.float32, np.float64):
        ctx, outputs = graph.run(store, {}, train_mode=True, dtype=dtype)
        ad._backprop(outputs["loss"])
        for pname, var in ctx.param_vars().items():
            assert var.grad is not None, pname
            assert var.grad.dtype == dtype, pname
            assert var.grad.shape == var.data.shape, pname
    eps = 1e-4 if name == "segment_max" else 1e-3
    assert ad.grad_check(graph, store, {}, eps=eps) < 1e-4


@pytest.mark.parametrize("name", PRIMITIVES)
def test_forward_bytes_equal_inside_and_outside_a_graph(name):
    """Each primitive's forward, built with per-node checks off inside
    Graph.run, gives the bytes of a direct call, which checks at once."""
    shapes, body = POLICY_CASES[name]
    rng = np.random.default_rng(7)
    store = make_store(**{k: rng.uniform(0.5, 1.5, s) for k, s in shapes.items()})
    graph = Graph(lambda ctx: {"out": body({k: ctx.param(k) for k in shapes})})
    for dtype in (np.float32, np.float64):
        _, outputs = graph.run(store, {}, dtype=dtype)
        direct = body({k: ad.Var(store.get(k).astype(dtype), requires_grad=True)
                       for k in shapes})
        inside = outputs["out"].data
        assert (inside.dtype, inside.shape) == (direct.data.dtype, direct.data.shape)
        assert inside.tobytes() == direct.data.tobytes()


def _node(body, arrays, constant=None):
    """The operand leaves (all trainable but ``constant``) and the node
    ``body`` makes over them."""
    leaves = {k: ad.Var(v, requires_grad=k != constant) for k, v in arrays.items()}
    return leaves, body(leaves)


def _operand_grads(body, arrays, constant=None):
    """The node's closure grads by operand name, for a fixed upstream grad."""
    leaves, out = _node(body, arrays, constant)
    g = np.random.default_rng(9).standard_normal(out.shape).astype(out.data.dtype)
    grads = dict(zip(map(id, out.parents), out.bwd(g)))
    return {k: grads[id(v)] for k, v in leaves.items()}


MULTI_OPERAND = [name for name, (shapes, body) in POLICY_CASES.items()
                 if len(_node(body, {k: np.ones(s) for k, s in shapes.items()})[1]
                        .parents) > 1]


def test_multi_operand_cases_are_the_binary_primitives():
    assert MULTI_OPERAND == ["add", "sub", "mul", "div", "matmul", "concat_cols",
                             "conv2d3x3"]


@pytest.mark.parametrize("name", MULTI_OPERAND)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_constant_operand_gets_no_grad(name, dtype):
    """The closure returns None for an operand that takes no grad, and
    exactly the all-trainable grads for the others."""
    shapes, body = POLICY_CASES[name]
    rng = np.random.default_rng(7)
    arrays = {k: rng.uniform(0.5, 1.5, s).astype(dtype) for k, s in shapes.items()}
    full = _operand_grads(body, arrays)
    for constant in shapes:
        grads = _operand_grads(body, arrays, constant)
        assert grads[constant] is None, constant
        for k in shapes:
            if k != constant:
                assert grads[k].dtype == full[k].dtype, (constant, k)
                assert np.array_equal(grads[k], full[k]), (constant, k)


@pytest.mark.parametrize("shared_first", [True, False])
def test_grad_array_shared_by_two_parents_is_not_overwritten(shared_first):
    """``add`` hands one grad array to both operands; a later second grad
    of ``a`` must not change ``b``'s."""
    w1, w2 = np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])
    store = make_store(a=np.ones(3), b=np.ones(3))

    def build(ctx):
        a, b = ctx.param("a"), ctx.param("b")
        shared = ad.sum_all(ad.mul(ad.add(a, b), ad.as_var(w1.astype(ctx.dtype))))
        second = ad.sum_all(ad.mul(a, ad.as_var(w2.astype(ctx.dtype))))
        return {"loss": ad.add(shared, second) if shared_first else ad.add(second, shared)}

    _, grads = ad.backward(Graph(build), store, {})
    assert np.array_equal(grads["a"], w1 + w2)
    assert np.array_equal(grads["b"], w1)


# -- value lifetimes -----------------------------------------------------------

def _captured(values):
    """``values`` with every list and tuple in them unpacked."""
    found = []
    for value in values:
        found += _captured(value) if isinstance(value, (list, tuple)) else [value]
    return found


@pytest.mark.parametrize("name", PRIMITIVES)
def test_backward_closures_save_no_graph_value(name):
    """A closure saves arrays, shapes and flags, never a ``Var`` or a
    ``Value``, so it keeps no operand's array alive that its grads do not
    read."""
    shapes, body = POLICY_CASES[name]
    out = body({k: ad.Var(np.ones(s), requires_grad=True) for k, s in shapes.items()})
    saved = _captured(cell.cell_contents for cell in out.bwd.__closure__ or ())
    assert not [v for v in saved if isinstance(v, (ad.Var, ad.Value))]


def _lifetime_graph(refs):
    """loss = sum(relu(add(mul(p, x), c)) @ w), with weak references to the
    arrays of the ``mul``, ``add`` and ``relu`` outputs. ``add`` saves
    shapes, ``relu`` its mask, and ``matmul`` its operand ``r`` for
    ``w``'s grad."""
    def build(ctx):
        m = ad.mul(ctx.param("p"), ctx.input("x"))
        h = ad.add(m, ctx.input("c"))
        r = ad.relu(h)
        refs.update(mul=weakref.ref(m.data), add=weakref.ref(h.data),
                    relu=weakref.ref(r.data))
        return {"loss": ad.sum_all(ad.matmul(r, ctx.param("w")))}

    rng = np.random.default_rng(21)
    store = make_store(p=rng.standard_normal((6, 4)), w=rng.standard_normal((4, 3)))
    inputs = {k: rng.standard_normal((6, 4)).astype(np.float32) for k in ("x", "c")}
    return Graph(build), store, inputs


def test_an_intermediate_only_the_build_held_is_freed_by_the_forward():
    refs = {}
    graph, store, inputs = _lifetime_graph(refs)
    _, outputs = graph.run(store, inputs, train_mode=True)
    assert refs["mul"]() is None and refs["add"]() is None
    assert outputs["loss"].data.shape == ()


def test_a_saved_array_lives_until_its_backward_has_run():
    refs = {}
    graph, store, inputs = _lifetime_graph(refs)
    _, outputs = graph.run(store, inputs, train_mode=True)
    assert refs["relu"]() is not None
    ad._backprop(outputs["loss"])
    assert refs["relu"]() is None


def test_backprop_releases_every_interior_entry_and_keeps_parameter_grads():
    graph, store, inputs = _lifetime_graph({})
    ctx, outputs = graph.run(store, inputs, train_mode=True)
    root = getattr(outputs["loss"], "entry", outputs["loss"])
    interior, stack = [], [root]
    while stack:
        entry = stack.pop()
        if entry.parents and all(entry is not e for e in interior):
            interior.append(entry)
            stack.extend(entry.parents)
    assert len(interior) == 5  # mul, add, relu, matmul, sum_all
    ad._backprop(outputs["loss"])
    assert all((e.grad, e.bwd, e.parents) == (None, None, ()) for e in interior)
    grads = {name: var.grad for name, var in ctx.param_vars().items()}
    assert sorted(grads) == ["p", "w"]
    _, want = ad.backward(graph, store, inputs)
    for name, g in grads.items():
        assert g.tobytes() == want[name].tobytes(), name


def test_an_input_already_in_the_graph_dtype_is_not_copied():
    x = np.ones((4, 3), np.float32)
    seen = []

    def build(ctx):
        seen.append(ctx.input("x").data)
        return {"out": ad.relu(ctx.input("x"))}

    Graph(build).run(ParameterStore(), {"x": x})
    Graph(build).run(ParameterStore(), {"x": x}, dtype=np.float64)
    assert seen[0] is x
    assert seen[1].dtype == np.float64 and np.array_equal(seen[1], x)


def test_shape_validation():
    g = Graph(lambda ctx: {"out": ad.matmul(ctx.input("a"), ctx.input("b"))})
    with pytest.raises(LidarMoeError, match=r"^matmul \(2, 3\) @ \(2, 3\)$"):
        ad.evaluate(g, ParameterStore(), {"a": np.ones((2, 3), np.float32),
                                          "b": np.ones((2, 3), np.float32)})


def test_non_finite_intermediate_raises():
    with pytest.raises(NonFiniteError, match="^non-finite value in output of sqrt$"):
        ad.sqrt(-1)
    g = Graph(lambda ctx: {"out": ad.sqrt(ctx.input("x"))})
    with pytest.raises(NonFiniteError, match="^non-finite value in output of sqrt$"):
        ad.evaluate(g, ParameterStore(), {"x": np.array([-1.0], np.float32)})


@pytest.mark.parametrize("run", ["evaluate", "backward"])
def test_non_finite_value_zeroed_by_no_primitive_names_its_source(run):
    """relu passes NaN on, so the per-graph output check sees the NaN that
    sqrt makes and the checked rebuild names sqrt; a relu that zeroed NaN
    would hide it from the output check."""
    store = make_store(p=np.ones(2))

    def build(ctx):
        hidden = ad.sum_all(ad.relu(ad.sqrt(ctx.input("x"))))
        p = ctx.param("p")
        return {"loss": ad.add(ad.sum_all(ad.mul(p, p)), hidden)}

    inputs = {"x": np.array([-1.0, 4.0], np.float32)}
    with pytest.raises(NonFiniteError, match="^non-finite value in output of sqrt$"):
        getattr(ad, run)(Graph(build), store, inputs)


def test_non_finite_forward_value_seen_only_by_a_grad_names_its_primitive():
    """The forward is finite (the NaN rows are gathered away) but sqrt's NaN
    reaches p's grad: the checked rebuild of the forward names sqrt."""
    store = make_store(p=np.ones((2, 1)))

    def build(ctx):
        p = ctx.param("p")
        root = ad.sqrt(ad.mul(p, ctx.input("x")))
        return {"loss": ad.add(ad.sum_all(ad.gather_rows(root, np.zeros(0, np.int64))),
                               ad.sum_all(p))}

    graph, inputs = Graph(build), {"x": np.array([[-1.0], [4.0]], np.float32)}
    assert ad.evaluate(graph, store, inputs)["loss"] == 2.0
    with pytest.raises(NonFiniteError, match="^non-finite value in output of sqrt$"), \
            np.errstate(invalid="ignore"):
        ad.backward(graph, store, inputs)


def test_non_finite_intermediate_reaching_no_output_is_not_reported():
    """Finiteness is checked per graph: a NaN that no output and no grad
    reads passes, where a per-node check would have raised."""
    g = Graph(lambda ctx: {"out": ad.gather_rows(ad.sqrt(ctx.input("x")),
                                                 np.array([1]))})
    out = ad.evaluate(g, ParameterStore(), {"x": np.array([-1.0, 4.0], np.float32)})
    assert np.array_equal(out["out"], [2.0])


def test_a_failed_build_leaves_per_node_checks_on():
    g = Graph(lambda ctx: {"out": ad.matmul(ctx.input("a"), ctx.input("a"))})
    with pytest.raises(LidarMoeError, match="^matmul"):
        ad.evaluate(g, ParameterStore(), {"a": np.ones((2, 3), np.float32)})
    with pytest.raises(NonFiniteError, match="^non-finite value in output of sqrt$"):
        ad.sqrt(-1)


def test_backward_requires_scalar_loss():
    store = make_store(w=np.ones((2, 2)))
    g = Graph(lambda ctx: {"loss": ctx.param("w")})
    with pytest.raises(LidarMoeError, match="^loss node must be scalar$"):
        ad.backward(g, store, {})


def test_evaluate_deterministic_with_noise():
    def build(ctx):
        noise = ad.as_var(ctx.randn((4, 3), "tag"))
        return {"out": noise}

    g = Graph(build)
    a = g.run(ParameterStore(), {}, seed=7)[1]["out"].data
    b = g.run(ParameterStore(), {}, seed=7)[1]["out"].data
    c = g.run(ParameterStore(), {}, seed=8)[1]["out"].data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_segment_mean_matches_bruteforce(rng):
    x = rng.standard_normal((10, 3)).astype(np.float32)
    seg = rng.integers(0, 4, 10)
    g = Graph(lambda ctx: {"out": ad.segment_mean(ctx.input("x"), seg, 4)})
    out = ad.evaluate(g, ParameterStore(), {"x": x})["out"]
    for s in range(4):
        members = x[seg == s]
        want = members.mean(axis=0) if members.size else np.zeros(3)
        assert np.allclose(out[s], want, atol=1e-6)


def test_segment_max_matches_bruteforce(rng):
    x = rng.standard_normal((12, 4)).astype(np.float32)
    seg = np.repeat(np.arange(3), 4)
    g = Graph(lambda ctx: {"out": ad.segment_max(ctx.input("x"), seg, 3)})
    out = ad.evaluate(g, ParameterStore(), {"x": x})["out"]
    for s in range(3):
        assert np.allclose(out[s], x[seg == s].max(axis=0), atol=1e-7)
