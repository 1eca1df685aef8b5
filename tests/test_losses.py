"""Loss oracles: independent brute-force evaluation of the contrastive
loss, direct set-based evaluation of the Jaccard extension, worked
values, and gradient checks."""

import numpy as np
import pytest

from lidarmoe import autodiff as ad
from lidarmoe.autodiff import Graph
from lidarmoe.errors import LidarMoeError
from lidarmoe.losses import (build_cross_entropy, build_info_nce,
                             build_lovasz_softmax, build_sms_total)
from lidarmoe.params import ParameterStore

from graph_eval import evaluate_builder
from oracles import info_nce_bruteforce, lovasz_bruteforce, lovasz_softmax_per_class


def info_nce(k, q, temperature, denominator="all"):
    return float(evaluate_builder(
        lambda ctx: build_info_nce(ctx.input("k"), ctx.input("q"), temperature,
                                   denominator), {"k": k, "q": q}))


def cross_entropy(logits, labels):
    return float(evaluate_builder(
        lambda ctx: build_cross_entropy(ctx.input("logits"), labels),
        {"logits": logits}))


def lovasz_softmax(probs, labels):
    return float(evaluate_builder(
        lambda ctx: build_lovasz_softmax(ctx.input("probs"), labels),
        {"probs": probs}))


def sms_total(logits_by_rep, labels_by_rep):
    """(total, per-term breakdown) of the supervised composite."""
    def build(ctx):
        total, breakdown = build_sms_total(
            {rep: ctx.input(rep) for rep in logits_by_rep}, labels_by_rep)
        return {"loss": total, **breakdown}

    outs = evaluate_builder(build, dict(logits_by_rep))
    total = float(outs.pop("loss"))
    return total, {k: float(v) for k, v in outs.items()}


# -- info_nce ----------------------------------------------------------------

def test_info_nce_worked_example():
    k = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    assert info_nce(k, k, 1.0) == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-6)


def test_info_nce_mismatch_increases_loss(rng):
    k = rng.standard_normal((6, 4)).astype(np.float32)
    matched = info_nce(k, k, 0.5)
    worst = k[np.argsort(-(k @ k.T).sum(axis=1))][::-1]
    # permute q so each positive is some other row
    perm = np.roll(np.arange(6), 1)
    shuffled = info_nce(k, k[perm], 0.5)
    assert shuffled > matched


def test_info_nce_identical_embeddings_log_s():
    for s in (2, 5, 9):
        k = np.ones((s, 3), np.float32)
        assert info_nce(k, k, 0.07) == pytest.approx(np.log(s), abs=1e-5)


def test_info_nce_matches_bruteforce_sweep(rng):
    for trial in range(100):
        s = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        k = rng.standard_normal((s, d)).astype(np.float32)
        q = rng.standard_normal((s, d)).astype(np.float32)
        tau = float(rng.uniform(0.05, 1.5))
        denom = "all" if trial % 2 == 0 else "exclude_positive"
        got = info_nce(k, q, tau, denom)
        want = info_nce_bruteforce(k, q, tau, denom)
        assert got == pytest.approx(want, abs=1e-6)


def test_info_nce_nonnegative_under_all_denominator(rng):
    for _ in range(50):
        k = rng.standard_normal((5, 3)).astype(np.float32)
        q = rng.standard_normal((5, 3)).astype(np.float32)
        assert info_nce(k, q, 0.2) >= -1e-7


def test_info_nce_temperature_monotonicity():
    k = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
    taus = [1.0, 0.7, 0.4, 0.1]
    losses = [info_nce(k, k, t) for t in taus]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_info_nce_requires_two_rows():
    k = np.ones((1, 3), np.float32)
    with pytest.raises(LidarMoeError, match="^contrastive loss needs at least 2 rows$"):
        info_nce(k, k, 0.1)


def test_info_nce_grad_check(rng):
    store = ParameterStore()
    store.add("k", rng.standard_normal((6, 4)).astype(np.float32))
    store.add("q", rng.standard_normal((6, 4)).astype(np.float32))

    def build(ctx):
        return {"loss": build_info_nce(ctx.param("k"), ctx.param("q"), 0.3)}

    assert ad.grad_check(Graph(build), store, {}) < 1e-4


# -- cross entropy -----------------------------------------------------------

def test_ce_uniform_logits():
    logits = np.zeros((5, 6), np.float32)
    assert cross_entropy(logits, [0, 1, 2, 3, 4]) == pytest.approx(np.log(6), abs=1e-6)


def test_ce_confident_correct_small():
    logits = np.full((3, 4), 0.0, np.float32)
    logits[np.arange(3), [1, 2, 3]] = 20.0
    assert cross_entropy(logits, [1, 2, 3]) < 1e-3


def test_ce_ignore_rows_do_not_change_loss(rng):
    logits = rng.standard_normal((4, 5)).astype(np.float32)
    base = cross_entropy(logits, [0, 1, 2, 3])
    padded = np.concatenate([logits, rng.standard_normal((3, 5)).astype(np.float32)])
    assert cross_entropy(padded, [0, 1, 2, 3, -1, -1, -1]) == pytest.approx(base, abs=1e-6)


def test_ce_all_ignored_rejected():
    with pytest.raises(LidarMoeError, match="^all labels are ignored$"):
        cross_entropy(np.zeros((2, 3), np.float32), [-1, -1])


def test_ce_grad_check(rng):
    store = ParameterStore()
    store.add("logits", rng.standard_normal((8, 4)).astype(np.float32))

    def build(ctx):
        return {"loss": build_cross_entropy(ctx.param("logits"),
                                            [0, 1, 2, 3, -1, 1, 0, 2])}

    assert ad.grad_check(Graph(build), store, {}) < 1e-4


# -- lovasz ------------------------------------------------------------------

def test_lovasz_perfect_predictions_zero():
    probs = np.eye(3, dtype=np.float32)[np.array([0, 1, 2, 1])]
    assert lovasz_softmax(probs, [0, 1, 2, 1]) == pytest.approx(0.0, abs=1e-7)


def test_lovasz_single_point_equals_error():
    assert lovasz_softmax(np.array([[0.6, 0.4]], np.float32), [0]) \
        == pytest.approx(0.4, abs=1e-6)


def test_lovasz_permutation_invariant(rng):
    probs = rng.dirichlet(np.ones(3), size=6).astype(np.float32)
    labels = np.array([0, 1, 2, 0, 1, 2])
    base = lovasz_softmax(probs, labels)
    perm = rng.permutation(6)
    assert lovasz_softmax(probs[perm], labels[perm]) == pytest.approx(base, abs=1e-6)


def test_lovasz_matches_bruteforce_sweep(rng):
    for _ in range(60):
        n = int(rng.integers(1, 7))
        c = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(c), size=n).astype(np.float32)
        labels = rng.integers(0, c, n)
        got = lovasz_softmax(probs, labels)
        want = lovasz_bruteforce(probs, labels)
        assert got == pytest.approx(want, abs=1e-6)


def test_lovasz_malformed_rows_rejected():
    with pytest.raises(LidarMoeError, match="^probability rows must sum to 1$"):
        lovasz_softmax(np.array([[0.9, 0.9]], np.float32), [0])


def test_lovasz_grad_check(rng):
    store = ParameterStore()
    store.add("logits", rng.standard_normal((6, 3)).astype(np.float32))
    labels = [0, 1, 2, 0, 1, 2]

    def build(ctx):
        probs = ad.softmax_rows(ctx.param("logits"))
        return {"loss": build_lovasz_softmax(probs, labels)}

    assert ad.grad_check(Graph(build), store, {}, eps=1e-4) < 1e-4


def _lovasz_cases():
    """{case: (probability rows, labels)} over 6 classes: unlabeled rows,
    one present class, tied errors (rows repeat), every class present."""
    rng = np.random.default_rng(21)
    n, c = 300, 6

    def probs(logits):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)

    every = rng.integers(0, c, n)
    unlabeled = np.where(rng.random(n) < 0.3, -1, every)
    spread = probs(3.0 * rng.standard_normal((n, c)))
    tied = probs(rng.integers(-1, 2, (n, c)).astype(np.float64))
    return {"unlabeled rows": (spread, unlabeled), "one present class": (spread, np.full(n, 2)),
            "tied errors": (tied, every), "every class present": (spread, every)}


LOVASZ_CASES = _lovasz_cases()


@pytest.mark.parametrize("scale", [2.0, 0.0, -0.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(LOVASZ_CASES))
def test_lovasz_node_gives_the_bytes_of_the_per_class_graph(case, dtype, scale):
    """Loss and probability grad of the one-node Lovasz-softmax are bit for
    bit those of the per-class graph, in float32 and float64. An upstream
    grad of +0.0 or -0.0 makes the -0.0 grads that the per-class graph kept
    for one present class and no unlabeled row, and turned into +0.0
    otherwise; of -0.0, on the other rows than +0.0 does."""
    probs, labels = LOVASZ_CASES[case]
    assert case != "tied errors" or np.unique(probs, axis=0).shape[0] < probs.shape[0]
    store = ParameterStore()
    store.add("probs", probs)
    got = []
    for loss_fn in (build_lovasz_softmax, lovasz_softmax_per_class):
        graph = Graph(lambda ctx: {"loss": ad.mul(loss_fn(ctx.param("probs"), labels),
                                                  ad.as_var(np.float32(scale)))})
        ctx, outputs = graph.run(store, {}, train_mode=True, dtype=dtype)
        ad._backprop(outputs["loss"])
        got.append((outputs["loss"].data, ctx.param_vars()["probs"].grad))
    (loss, grad), (want_loss, want_grad) = got
    assert loss.dtype == want_loss.dtype == dtype and loss.tobytes() == want_loss.tobytes()
    assert grad.dtype == want_grad.dtype == dtype and grad.tobytes() == want_grad.tobytes()
    negative_zeros = np.any((grad == 0) & np.signbit(grad))
    assert negative_zeros == (case == "one present class" and scale == 0.0)


# -- sms composite -----------------------------------------------------------

def _perfect_logits(labels, c, magnitude=20.0):
    labels = np.asarray(labels)
    logits = np.zeros((labels.shape[0], c), np.float32)
    valid = labels >= 0
    logits[np.flatnonzero(valid), labels[valid]] = magnitude
    return logits


def test_sms_perfect_inputs_small():
    c = 4
    labels = {"fused": np.array([0, 1, 2, 3]), "point": np.array([0, 1, 2, 3]),
              "range": np.array([1, 2, -1, 3]), "voxel": np.array([2, 0, 1])}
    logits = {k: _perfect_logits(v, c) for k, v in labels.items()}
    total, _ = sms_total(logits, labels)
    assert total < 1e-3


def test_sms_breakdown_sums_to_total(rng):
    c = 4
    labels = {"fused": rng.integers(0, c, 10), "point": rng.integers(0, c, 10),
              "range": rng.integers(-1, c, 12), "voxel": rng.integers(0, c, 7)}
    logits = {k: rng.standard_normal((len(labels[k]), c)).astype(np.float32)
              for k in labels}
    total, breakdown = sms_total(logits, labels)
    assert total == pytest.approx(sum(breakdown.values()), abs=1e-6)
    # SMS_TERMS: range and voxel carry CE + 2 * lovasz
    assert {"range_ce", "range_lovasz", "voxel_ce", "voxel_lovasz",
            "fused_ce", "point_ce"} == set(breakdown)


def test_sms_grad_check(rng):
    c = 3
    store = ParameterStore()
    labels = {"fused": rng.integers(0, c, 6), "point": rng.integers(0, c, 6),
              "range": rng.integers(0, c, 8), "voxel": rng.integers(0, c, 5)}
    for k, lab in labels.items():
        store.add(k, rng.standard_normal((len(lab), c)).astype(np.float32))

    def build(ctx):
        logits = {k: ctx.param(k) for k in labels}
        total, _ = build_sms_total(logits, labels)
        return {"loss": total}

    assert ad.grad_check(Graph(build), store, {}, eps=1e-4) < 1e-4

