"""Minimal reverse-mode differentiation engine.

A train-mode run records a tape: one entry (a :class:`Var`) per primitive
output that depends on a parameter, linked to the entries of its operands
and holding the backward closure that maps the output's grad to theirs. So
any composition of the primitives below is differentiable.

A tape entry holds no array. A primitive output on the tape is a
:class:`Value`, a handle that holds the output array and its entry, so the
array lives only while the build code holds the handle or a backward
closure saved it. Each closure saves exactly the arrays, shapes and flags
its grads read, and never a ``Var`` or a ``Value``; ``relu``, for one,
saves its boolean mask, not its input. :func:`_backprop` releases each
entry's grad, closure and parent links once its backward has run, so a
saved array dies with the last closure that reads it. Leaves (inputs,
parameters, constants) are ``Var`` objects that hold their arrays and are
their own entries; a parameter leaf keeps its grad. An eval-mode run
records no tape: every output is a leaf.

The graph's dtype is the one compute dtype, in the forward and the backward
pass: storage, elementwise operations, matrix products and gradient buffers
all use it. It is float32 in normal mode and float64 in exact mode
(``Graph.run(dtype=np.float64)``), which :func:`grad_check` uses. It is set at
the leaves: inputs and parameters are cast to it, constants are float32, and
numpy's type promotion carries it through. Sums and scatter-adds (reductions,
segment pooling, softmax normalisers) accumulate in float64, then round to it.

A backward closure computes a grad only for an operand whose
``requires_grad`` is set and returns None for the others. Gradients are
never written in place, so a closure may hand one array to two parents.

The package-level entry points are :func:`evaluate`, :func:`backward` and
:func:`grad_check`, which run a :class:`Graph` (a named build function over
inputs and parameters) forward, backward, and against central differences.

Finiteness is checked once per graph: :meth:`Graph.run` builds with the
per-node checks off, then checks every output, and :func:`backward` checks
every parameter grad. A graph that fails is built again with the checks on,
so the error names the primitive, input or parameter that first went
non-finite. A non-finite intermediate that reaches no output and no grad is
not reported. A primitive called outside a graph checks its output at once.
Graph builds and backprops run with numpy's overflow, invalid and
divide warnings off, so a non-finite step reports only that error.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import LidarMoeError, NonFiniteError


# per-node finiteness checks; Graph.run turns them off and checks its outputs
_check_nodes = True


def _finite(data: np.ndarray, what) -> np.ndarray:
    if _check_nodes and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite value in {what}")
    return data


class Var:
    """One tape entry: its operands' entries ``parents``, its backward
    closure ``bwd``, its summed ``grad`` and the ``dtype`` that grad is
    kept in.

    A leaf (an input, a parameter or a constant) is its own entry and also
    holds its array, ``data`` (float32 in normal mode, float64 in exact
    mode). A parameter leaf requires grad exactly in a train-mode run;
    inputs and constants never do. A primitive output requires grad iff
    an operand does: then it is a :class:`Value` whose entry holds no
    array (``data`` is None), else a leaf, so an eval-mode run records no
    parents and no backward closures. :func:`_backprop` empties an
    interior entry's ``grad``, ``bwd`` and ``parents`` once its backward
    has run; a leaf keeps its grad.
    """

    __slots__ = ("data", "dtype", "grad", "parents", "bwd", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.dtype = self.data.dtype
        self.requires_grad = requires_grad
        self.grad, self.parents, self.bwd = None, (), None

    @classmethod
    def _interior(cls, dtype, parents, bwd):
        """The entry of a primitive output that requires grad."""
        entry = cls.__new__(cls)
        entry.data, entry.dtype, entry.requires_grad = None, dtype, True
        entry.grad, entry.parents, entry.bwd = None, parents, bwd
        return entry

    @property
    def shape(self):
        return self.data.shape

    @property
    def entry(self):
        return self

    def add_grad(self, g):
        # never written in place: a closure may hand one array to two parents
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=False)
        else:
            self.grad = (self.grad + g).astype(self.dtype, copy=False)


class Value:
    """A primitive output that requires grad: its array ``data`` and its
    tape ``entry``. The entry does not hold the array, so the array is
    freed once the build code drops this handle, unless a backward closure
    saved it."""

    __slots__ = ("data", "entry")
    requires_grad = True

    def __init__(self, data, entry):
        self.data, self.entry = data, entry

    @property
    def shape(self):
        return self.data.shape

    @property
    def parents(self):
        return self.entry.parents

    @property
    def bwd(self):
        return self.entry.bwd

    @bwd.setter
    def bwd(self, fn):
        self.entry.bwd = fn


def as_var(x):
    if isinstance(x, (Var, Value)):
        return x
    return Var(_finite(np.asarray(x), "constant"))


def _out(data, parents, bwd):
    if _check_nodes and not np.all(np.isfinite(data)):
        # every primitive defines its backward closure in its own body
        primitive = bwd.__qualname__.split(".")[0]
        raise NonFiniteError(f"non-finite value in output of {primitive}")
    if not any(p.requires_grad for p in parents):
        return Var(data)
    data = np.asarray(data)
    return Value(data, Var._interior(data.dtype, tuple(p.entry for p in parents), bwd))


def _saved(var, value):
    """``value`` if ``var`` takes a grad, else None: a closure saves what an
    operand's grad reads only for an operand that takes one."""
    return value if var.requires_grad else None


def _reduce_sum(x, axis=None):
    # float64 accumulation regardless of storage dtype
    return np.sum(x, axis=axis, dtype=np.float64)


def _row_sums(x, dtype=None):
    """Row sums of a 2D array, shape (N, 1), accumulated in ``dtype`` (by
    default ``x``'s own), with the bits of ``np.sum(x, axis=1,
    keepdims=True, dtype=dtype)``. numpy adds a row narrower than 8 columns
    in a plain loop from +0.0, left to right, so such rows are summed here
    one column at a time in that order, without numpy's per-row loop (4-10x
    faster on the 3-6 columns of gates and class scores); wider rows take
    ``np.sum``."""
    if x.shape[1] >= 8:
        return np.sum(x, axis=1, keepdims=True, dtype=dtype)
    acc = np.zeros(x.shape[0], dtype or x.dtype)
    for j in range(x.shape[1]):
        acc += x[:, j]
    return acc[:, None]


def _row_max(x):
    """Row maxima of a 2D array, shape (N, 1): one ``np.maximum`` per column,
    exact like ``max(axis=1)`` and ~10x faster on the narrow rows of gates
    and class logits."""
    return functools.reduce(np.maximum, x.T)[:, None]


def _column_sums(g):
    """float64 sums of ``g`` over every axis but the last, with the bits of
    ``np.sum`` over those axes. numpy adds the rows of a C-contiguous array
    one after another, and so does ``np.einsum("ij->j")``, in about half
    the time; a one-column or strided ``g`` takes ``np.sum``, which sums a
    single column pairwise."""
    if g.flags.c_contiguous and g.ndim > 1 and g.shape[-1] > 1:
        return np.einsum("ij->j", g.reshape(-1, g.shape[-1]), dtype=np.float64)
    return _reduce_sum(g, axis=tuple(range(g.ndim - 1)))


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    if g.ndim == 2 and shape == g.shape[1:]:
        return _column_sums(g).astype(g.dtype)
    extra = g.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        extra + i for i, s in enumerate(shape) if s == 1 and g.shape[extra + i] != 1)
    return _reduce_sum(g, axis=axes).reshape(shape).astype(g.dtype)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_var(a), as_var(b)
    sa, sb = _saved(a, a.shape), _saved(b, b.shape)

    def bwd(g):
        return (None if sa is None else _unbroadcast(g, sa),
                None if sb is None else _unbroadcast(g, sb))

    return _out(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = as_var(a), as_var(b)
    sa, sb = _saved(a, a.shape), _saved(b, b.shape)

    def bwd(g):
        return (None if sa is None else _unbroadcast(g, sa),
                None if sb is None else _unbroadcast(-g, sb))

    return _out(a.data - b.data, (a, b), bwd)


def neg(a):
    a = as_var(a)
    return _out(-a.data, (a,), lambda g: (-g,))


def mul(a, b):
    a, b = as_var(a), as_var(b)
    # each operand's grad reads the other operand
    ad, bd = _saved(b, a.data), _saved(a, b.data)
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return _out(a.data * b.data, (a, b), bwd)


def div(a, b):
    a, b = as_var(a), as_var(b)
    # both grads read the divisor; only the divisor's reads the dividend
    ad, bd, take_a = _saved(b, a.data), b.data, a.requires_grad
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g / bd, sa) if take_a else None,
                None if ad is None else _unbroadcast(-g * ad / (bd * bd), sb))

    return _out(a.data / b.data, (a, b), bwd)


def matmul(a, b):
    a, b = as_var(a), as_var(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise LidarMoeError(f"matmul {a.data.shape} @ {b.data.shape}")
    # each operand's grad reads the other operand
    ad, bd = _saved(b, a.data), _saved(a, b.data)

    def bwd(g):
        return (None if bd is None else g @ bd.T,
                None if ad is None else ad.T @ g)

    return _out(a.data @ b.data, (a, b), bwd)


def linear(x, w, b):
    """``x @ w + b`` for a bias ``b`` of one entry per column of ``w``, as
    one node with the bits of ``add(matmul(x, w), b)``: the bias is added
    into the product in place, out of place only when numpy's type
    promotion would widen the product. ``add`` passed its grad straight to
    ``matmul``, so the grads are matmul's two (in the product's dtype) and
    the bias grad, the column sums of the output grad."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise LidarMoeError(f"linear {x.data.shape} @ {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise LidarMoeError(f"linear bias shape {b.data.shape} != ({w.data.shape[1]},)")
    data = x.data @ w.data
    dtype = data.dtype
    if np.result_type(data, b.data) == dtype:
        data += b.data
    else:
        data = data + b.data
    # each operand's grad reads the other operand
    xd, wd, sb = _saved(w, x.data), _saved(x, w.data), _saved(b, b.shape)

    def bwd(g):
        gp = g.astype(dtype, copy=False)
        return (None if wd is None else gp @ wd.T,
                None if xd is None else xd.T @ gp,
                None if sb is None else _unbroadcast(g, sb))

    return _out(data, (x, w, b), bwd)


def relu(a):
    a = as_var(a)
    mask = a.data > 0 if a.requires_grad else None
    return _out(np.maximum(a.data, 0), (a,), lambda g: (g * mask,))


def softplus(a):
    """log(1 + e^x), computed stably; derivative is the logistic sigmoid."""
    a = as_var(a)
    x = a.data
    data = (np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))).astype(x.dtype)
    sig = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    return _out(data, (a,), lambda g: (g * sig,))


def sqrt(a):
    a = as_var(a)
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)
    return _out(data, (a,), lambda g: (g / (2.0 * data),))


def softmax_rows(a):
    """Row-wise softmax of a 2D array."""
    a = as_var(a)
    if a.data.ndim != 2:
        raise LidarMoeError("softmax_rows expects 2D input")
    x = a.data.astype(np.float64)
    e = np.exp(x - _row_max(x))
    y64 = e / _row_sums(e)
    return _out(y64.astype(a.data.dtype), (a,),
                lambda g: (y64 * (g - _row_sums(g * y64)),))


def log_softmax_rows(a):
    a = as_var(a)
    if a.data.ndim != 2:
        raise LidarMoeError("log_softmax_rows expects 2D input")
    # one float64 buffer shifted and normalised in place; the saved
    # softmax is computed into the exp buffer
    y64 = a.data.astype(np.float64)
    y64 -= _row_max(y64)
    sm = np.exp(y64)
    y64 -= np.log(_row_sums(sm))
    data = y64.astype(a.data.dtype)
    np.exp(y64, out=sm)

    def bwd(g):
        # rounded once to the graph dtype before any sum with other grads
        return ((g - sm * _row_sums(g)).astype(g.dtype),)

    return _out(data, (a,), bwd)


def logsumexp_rows(a):
    """Row-wise log-sum-exp, shape (N, 1)."""
    a = as_var(a)
    x = a.data.astype(np.float64)
    m = _row_max(x)
    lse64 = m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))
    sm = np.exp(x - lse64)
    return _out(lse64.astype(a.data.dtype), (a,), lambda g: (g * sm,))


def concat_cols(parts):
    parts = [as_var(p) for p in parts]
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1:
        raise LidarMoeError(f"concat_cols row mismatch: {sorted(rows)}")
    data = np.concatenate([p.data for p in parts], axis=1)
    widths = [(p.data.shape[1], p.requires_grad) for p in parts]

    def bwd(g):
        grads, j = [], 0
        for w, take in widths:
            grads.append(g[:, j:j + w] if take else None)
            j += w
        return tuple(grads)

    return _out(data, tuple(parts), bwd)


def gated_sum(gates, stacked):
    """The gate-weighted sum of column blocks: for (N, K) ``gates`` and
    (N, K * D) ``stacked``, the (N, D) sum over i of ``gates[:, i:i+1] *
    stacked[:, i*D:(i+1)*D]``, added in block order.

    One node with the bits of a graph of a column slice per operand, a
    product per block and an add per later block. Each block's grad, the
    output grad times its gate column, is written into one array, and
    each gate column's grad is the float64 row sum of the output grad
    times its block. The three zero-filled slice grads that such a graph
    summed into each operand's grad turned a -0.0 into +0.0, so the block
    grads get + 0.0; a row sum starts from +0.0, so it is never -0.0."""
    gates, stacked = as_var(gates), as_var(stacked)
    n, k = gates.data.shape
    if stacked.data.ndim != 2 or stacked.data.shape[0] != n or stacked.data.shape[1] % k:
        raise LidarMoeError(f"gated_sum: {stacked.data.shape} does not split into "
                            f"{k} column blocks of {n} rows")
    d = stacked.data.shape[1] // k
    blocks = [slice(i * d, (i + 1) * d) for i in range(k)]
    data = gates.data[:, :1] * stacked.data[:, blocks[0]]
    for i in range(1, k):
        data += gates.data[:, i:i + 1] * stacked.data[:, blocks[i]]
    # each operand's grad reads the other operand
    gd, sd = _saved(stacked, gates.data), _saved(gates, stacked.data)

    def bwd(g):
        g_gates = g_stacked = None
        if sd is not None:
            g_gates = np.empty((n, k), g.dtype)
            for i, cols in enumerate(blocks):
                g_gates[:, i] = _row_sums(g * sd[:, cols], np.float64)[:, 0]
        if gd is not None:
            g_stacked = np.empty((n, k * d), g.dtype)
            for i, cols in enumerate(blocks):
                np.multiply(g, gd[:, i:i + 1], out=g_stacked[:, cols])
            g_stacked += 0.0
        return g_gates, g_stacked

    return _out(data, (gates, stacked), bwd)


def reshape(a, shape):
    a = as_var(a)
    orig = a.data.shape
    return _out(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def transpose(a):
    a = as_var(a)
    if a.data.ndim != 2:
        raise LidarMoeError("transpose expects 2D input")
    return _out(np.ascontiguousarray(a.data.T), (a,),
                lambda g: (np.ascontiguousarray(g.T),))


def scatter_add_rows(idx, values, num_rows):
    """float64 sums of the rows of ``values`` into ``num_rows`` rows by
    non-negative target row ``idx``.

    ``np.bincount`` adds in input order, so each sum is bit for bit the
    one a row-by-row scatter-add gives.
    """
    values = np.asarray(values)
    tail = values.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    flat = (np.asarray(idx, np.int64)[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.reshape(-1), minlength=num_rows * width)
    # bincount returns int64 for empty weights
    return sums.astype(np.float64, copy=False).reshape((num_rows,) + tail)


def segment_means(seg, values, num_segments):
    """float64 means of the rows of ``values`` per non-negative segment id
    ``seg``, and the per-segment row counts floored at 1; an empty segment's
    mean is a zero row. The sums are ``scatter_add_rows``'."""
    counts = np.maximum(np.bincount(seg, minlength=num_segments).astype(np.float64), 1.0)
    return scatter_add_rows(seg, values, num_segments) / counts[:, None], counts


def gather_rows(a, idx):
    """Select rows by non-negative integer index; gradients scatter-add
    back."""
    a = as_var(a)
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]
    n = a.data.shape[0]
    return _out(data, (a,), lambda g: (scatter_add_rows(idx, g, n),))


def take_diag(a):
    """Diagonal of a square 2D array as an (N, 1) column."""
    a = as_var(a)
    n, m = a.data.shape
    if n != m:
        raise LidarMoeError("take_diag expects a square matrix")
    data = np.diagonal(a.data).reshape(n, 1).copy()

    def bwd(g):
        full = np.zeros((n, n), dtype=g.dtype)
        np.fill_diagonal(full, g[:, 0])
        return (full,)

    return _out(data, (a,), bwd)


def segment_mean(a, seg, num_segments):
    """Mean of rows of ``a`` per segment id; empty segments yield zero rows."""
    a = as_var(a)
    seg = np.asarray(seg, dtype=np.int64)
    n, d = a.data.shape
    if seg.shape != (n,):
        raise LidarMoeError("segment ids must be one per row")
    means, safe = segment_means(seg, a.data, num_segments)
    data = means.astype(a.data.dtype)

    def bwd(g):
        return ((g / safe[:, None].astype(g.dtype))[seg],)

    return _out(data, (a,), bwd)


def segment_max(a, k):
    """Column-wise max of each block of ``k`` consecutive rows, the layout
    of the point groups; the row count must be a multiple of ``k``.

    The max is one reduction over the blocks' middle axis, which gives the
    bits of a running ``np.maximum`` over each block's rows. Gradient flows
    to the first (lowest-row-index) attaining row of each (block, column)
    pair, the row ``argmax`` picks.
    """
    a = as_var(a)
    n, d = a.data.shape
    if k < 1 or n % k:
        raise LidarMoeError(f"segment_max: {n} rows do not split into blocks of {k}")
    blocks = a.data.reshape(n // k, k, d)
    winners = np.argmax(blocks, axis=1)[:, None] if a.requires_grad else None

    def bwd(g):
        full = np.zeros((n // k, k, d), dtype=g.dtype)
        np.put_along_axis(full, winners, g[:, None], axis=1)
        return (full.reshape(n, d),)

    return _out(blocks.max(axis=1), (a,), bwd)


def sum_all(a):
    a = as_var(a)
    data = np.asarray(_reduce_sum(a.data), dtype=a.data.dtype)
    shape = a.data.shape
    return _out(data, (a,), lambda g: (np.broadcast_to(g, shape),))


def mean_all(a):
    a = as_var(a)
    n = a.data.size
    data = np.asarray(_reduce_sum(a.data) / n, dtype=a.data.dtype)
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, float(g) / n, dtype=g.dtype),)

    return _out(data, (a,), bwd)


def sum_cols(a):
    """Row sums of a 2D array, shape (N, 1)."""
    a = as_var(a)
    data = _row_sums(a.data, np.float64).astype(a.data.dtype)
    d = a.data.shape[1]
    return _out(data, (a,), lambda g: (np.repeat(g, d, axis=1),))


def _jaccard_grads(fg):
    """Discrete gradient of the Jaccard-loss extension along each row of
    ``fg``, a class's foreground flags in its sorted error order: the first
    differences of the prefix Jaccard losses, in float64. The prefix counts
    are integers, so every sum of them is exact."""
    hits = np.cumsum(fg, axis=1, dtype=np.float64)
    gts = hits[:, -1:]
    misses = np.arange(1.0, fg.shape[1] + 1.0) - hits
    jaccard = 1.0 - (gts - hits) / (gts + misses)
    out = jaccard.copy()
    out[:, 1:] -= jaccard[:, :-1]
    return out


def _descending_order(errors):
    """Per row of the 2D ``errors``, the column order of
    ``np.argsort(-errors, axis=1, kind="stable")``: descending, ties to the
    lower column. A float32 row is sorted as one uint64 key per error, the
    error's order-preserving bits inverted above its column index (+ 0.0
    first, so -0.0 ties with +0.0). Keys are unique, so any sort gives the
    stable order, and ``np.sort`` of uint64 runs numpy's SIMD sort. A
    float64 error and an index do not fit in 64 bits, so float64 rows take
    the stable ``argsort``."""
    if errors.dtype != np.float32:
        return np.argsort(-errors, axis=1, kind="stable")
    bits = (errors + np.float32(0.0)).view(np.int32)
    # a non-negative error's bits flipped below the sign bit, a negative's
    # kept: the keys then ascend as the errors descend
    bits ^= ~(bits >> 31) & np.int32(0x7FFFFFFF)
    keys = bits.view(np.uint32).astype(np.uint64) << np.uint64(32)
    keys |= np.arange(errors.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    return (keys & np.uint64(0xFFFFFFFF)).astype(np.intp)


def lovasz_softmax(probs, labels):
    """Lovasz-softmax (Berman et al. 2018) of probability rows ``probs``
    against one integer label per row, a negative label marking a row that
    is left out: the mean, over the classes present among the labeled rows,
    of each class's errors (1 - p on its rows, p on the others) sorted
    descending and dotted with the Jaccard-extension gradient of that
    order. The order is a constant, so the grad flows through the errors.

    One node for all classes: the (classes, rows) error matrix is built
    once and one sort (:func:`_descending_order`) gives every class's
    order. It gives the bits of a graph of slice, sort-gather, product and
    sum nodes per class: float32 Jaccard weights, float64 sums rounded to
    the graph dtype, the class terms added in class order. Its grad has the
    same bits, signed zeros included: there the scatter-adds and grad sums
    turn a -0.0 grad into +0.0 unless one class is present and no row is
    left out.
    """
    a = as_var(probs)
    x = a.data
    if np.any(np.abs(_row_sums(x)[:, 0] - 1.0) > 1e-5):
        raise LidarMoeError("probability rows must sum to 1")
    labels = np.asarray(labels, np.int64)
    keep = np.flatnonzero(labels >= 0)
    present = np.unique(labels[keep])
    fg = (labels[keep] == present[:, None]).astype(np.float32)
    sign = 1.0 - 2.0 * fg
    errors = x.T[present[:, None], keep] * sign + fg
    order = _descending_order(errors)
    weights = _jaccard_grads(np.take_along_axis(fg, order, axis=1)).astype(np.float32)
    sums = np.sum(np.take_along_axis(errors, order, axis=1) * weights, axis=1,
                  dtype=np.float64).astype(x.dtype)
    inv = np.float32(1.0 / present.size)
    data = np.asarray(functools.reduce(np.add, sums) * inv)
    n, c = x.shape
    order, weights, sign = (_saved(a, v) for v in (order, weights, sign))

    def bwd(g):
        # each class term's grad times its weights, written back through
        # the order; + 0.0 makes a -0.0 grad +0.0, as a scatter-add does
        v = weights * np.asarray(g * inv, g.dtype)
        back = np.empty_like(v)
        np.put_along_axis(back, order, v + 0.0, axis=1)
        back *= sign
        if present.size > 1 or keep.size < n:
            back += 0.0
        full = np.zeros((n, c), dtype=g.dtype)
        full[keep[:, None], present] = back.T
        return (full,)

    return _out(data, (a,), bwd)


def _padded_rows(img, dtype):
    """An HWC image zero-padded by one pixel on each side and flattened to
    ((H + 2) * (W + 2) + 2, C) rows; the two extra zero rows let the last
    tap's row slice run to full length."""
    h, wd, c = img.shape
    flat = np.zeros(((h + 2) * (wd + 2) + 2, c), dtype=dtype)
    flat[:-2].reshape(h + 2, wd + 2, c)[1:-1, 1:-1] = img
    return flat


# rows per block of a nine-tap sum: enough that the sliced operand holds
# _TAP_BLOCK_ELEMS values, and at least _TAP_BLOCK_MIN_ROWS, so 3,276 rows
# at 5 channels and 512 at 32; a block's product and running sum stay in
# cache. Per call on a 64 x 512 image (medians of 30-40 interleaved rounds,
# one BLAS thread, 2-core x86_64 VM with 2 MiB of L2 a core): the forward at
# C_in 5 took 7.4-7.6 ms over the whole image, 2.5-2.6 at 3,276 rows,
# 2.6-2.8 at 2,048 and 4.8-5.1 at 8,192; at C_in 32 15.5-15.8 ms whole,
# 10.9 at 512 rows and 13.2-13.9 at 1,024-4,096; the image grad at C_in 32
# 13.5 ms whole, 8.7 at 512 rows and 10.0-10.8 at 1,024-2,048. Fewer rows
# cost more in per-call overhead (256 rows: 5.0-6.8 ms at C_in 5).
_TAP_BLOCK_ELEMS = 16384
_TAP_BLOCK_MIN_ROWS = 512


def _tap_block_rows(channels: int) -> int:
    """Rows per block of a nine-tap sum over an operand of ``channels``
    columns."""
    return max(_TAP_BLOCK_MIN_ROWS, _TAP_BLOCK_ELEMS // (channels or 1))


def _tap_sum(src, starts, taps, n, bias=None):
    """The (n, C_out) sum of ``src[s:s + n] @ tap`` over ``zip(starts,
    taps)``, in that order, plus ``bias`` last when given. It is summed one
    row block at a time into one preallocated output, through one
    block-sized buffer, so no tap makes an n-row temporary; each output
    row gets the same products added in the same order as a whole-image
    sum would give it."""
    step = _tap_block_rows(src.shape[1])
    out = np.empty((n, taps[0].shape[1]), src.dtype)
    part = np.empty((min(step, n), out.shape[1]), src.dtype)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        acc, buf = out[r0:r1], part[:r1 - r0]
        np.matmul(src[starts[0] + r0:starts[0] + r1], taps[0], out=acc)
        for s, tap in zip(starts[1:], taps[1:]):
            np.matmul(src[s + r0:s + r1], tap, out=buf)
            acc += buf
        if bias is not None:
            acc += bias
    return out


def conv2d3x3(x, w, b):
    """3x3 same-padding convolution on an HWC image.

    ``w`` has shape (9 * C_in, C_out) with taps ordered row-major over the
    3x3 window; ``b`` has shape (C_out,). Each tap is one matrix product
    over a row slice of the flattened zero-padded image (see
    :func:`_padded_rows`): tap (dy, dx) starts at row ``dy * (W + 2) + dx``
    and covers H * (W + 2) rows, so output pixel (i, j) is row
    ``i * (W + 2) + j`` of the nine-tap sum, and a view drops the two junk
    columns of each image row. The nine products are summed one row block
    at a time (:func:`_tap_sum`), so the sum stays in cache and no tap
    makes a full-image temporary. The backward runs the same way: the
    image grad sums nine products over slices of the zero-padded grad with
    the taps flipped, by the same blocked sum, and the weight grad of a tap
    is its slice transposed times the centre slice of that padded grad,
    over the whole image, since splitting its rows would split its sum
    over pixels.
    """
    x, w, b = as_var(x), as_var(w), as_var(b)
    if x.data.ndim != 3:
        raise LidarMoeError("conv2d3x3 expects an HWC image")
    h, wd, cin = x.data.shape
    if w.data.shape[0] != 9 * cin:
        raise LidarMoeError(f"conv2d3x3 weight rows {w.data.shape[0]} != 9*{cin}")
    cout = w.data.shape[1]
    if b.data.shape != (cout,):
        raise LidarMoeError(f"conv2d3x3 bias shape {b.data.shape} != ({cout},)")
    dtype = np.result_type(x.data, w.data, b.data)
    row = wd + 2
    n = h * row
    starts = [dy * row + dx for dy, dx in (divmod(t, 3) for t in range(9))]
    wmat = w.data.astype(dtype, copy=False)
    taps = [wmat[t * cin:(t + 1) * cin] for t in range(9)]

    xflat = _padded_rows(x.data, dtype)
    data = _tap_sum(xflat, starts, taps, n, b.data).reshape(h, row, cout)[:, :wd]
    # the image grad reads the taps, the weight grad the padded image
    taps, xflat, take_b = _saved(x, taps), _saved(w, xflat), b.requires_grad

    def bwd(g):
        gflat = _padded_rows(g, dtype)
        gx = gw = gb = None
        if taps is not None:
            # each tap.T copied to C order. With a strided 32 x 32 tap.T,
            # OpenBLAS rounds a product of at most 37 rows by another kernel,
            # so a short last block would change bytes; a C-order tap rounds
            # each row alike in any block, gives the strided tap.T's bytes at
            # C_in 32 on more rows, and is faster at 512 rows
            flipped = [np.ascontiguousarray(tap.T) for tap in taps]
            gx = _tap_sum(gflat, starts[::-1], flipped, n).reshape(h, row, cin)[:, :wd]
        if xflat is not None:
            centre = gflat[row + 1:row + 1 + n]
            gw = np.concatenate([xflat[s:s + n].T @ centre for s in starts])
        if take_b:
            gb = _column_sums(g)
        return gx, gw, gb

    return _out(data, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# graph execution
# ---------------------------------------------------------------------------

# builds and backprops: the finiteness checks name a non-finite node, so
# numpy's overflow, invalid and divide warnings would only repeat them
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _hash_tag(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


class GraphContext:
    """Execution context handed to a graph's build function.

    Exposes named inputs and parameters as :class:`Var` leaves, the
    train-mode flag, and a seeded noise source keyed by (seed, tag) so a
    given noise draw is a pure function of the run seed and its tag.
    """

    def __init__(self, inputs, params, train_mode, seed, dtype):
        self._inputs = inputs
        self._params = params
        self._vars = {}
        self.train_mode = train_mode
        self.seed = seed
        self.dtype = dtype

    def input(self, name) -> Var:
        key = ("in", name)
        if key not in self._vars:
            arr = np.asarray(self._inputs[name])
            if np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(self.dtype, copy=False)
            self._vars[key] = Var(_finite(arr, f"input {name}"))
        return self._vars[key]

    def param(self, name) -> Var:
        key = ("p", name)
        if key not in self._vars:
            value = self._params.get(name).astype(self.dtype)
            self._vars[key] = Var(_finite(value, f"parameter {name}"),
                                  requires_grad=self.train_mode)
        return self._vars[key]

    def param_vars(self):
        return {k[1]: v for k, v in self._vars.items() if k[0] == "p"}

    def randn(self, shape, tag: str) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, _hash_tag(tag)]))
        return rng.standard_normal(shape).astype(self.dtype)


class Graph:
    """A named differentiable computation over inputs and parameters.

    ``build`` is a callable ``(ctx: GraphContext) -> dict[str, Var]``
    applying the primitives above; the recorded tape is acyclic by
    construction and shapes are validated as each primitive is applied.
    """

    def __init__(self, build):
        self.build = build

    @_quiet
    def run(self, params, inputs, train_mode=False, seed=0, dtype=np.float32):
        global _check_nodes
        args = (inputs, params, train_mode, seed, dtype)
        checks, _check_nodes = _check_nodes, False
        try:
            ctx = GraphContext(*args)
            outputs = self.build(ctx)
        finally:
            _check_nodes = checks
        if not all(np.all(np.isfinite(v.data)) for v in outputs.values()):
            self.build(GraphContext(*args))  # checked: raises at the first bad node
        return ctx, outputs


def evaluate(graph, params, inputs):
    """Run a graph forward in eval mode; returns named output arrays."""
    _, outputs = graph.run(params, inputs)
    return {k: v.data for k, v in outputs.items()}


def _backprop(loss_var):
    """Accumulate the grads of the scalar ``loss_var`` into every entry it
    depends on. Once an entry's backward has run, its grad, closure and
    parent links are released, so each array a closure saved dies with the
    last closure that reads it; parameter leaves keep their grads."""
    root = loss_var.entry
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    root.grad = np.ones(loss_var.data.shape, dtype=loss_var.data.dtype)
    for node in reversed(topo):
        if node.bwd is not None and node.grad is not None:
            for parent, g in zip(node.parents, node.bwd(node.grad)):
                if parent.requires_grad:
                    parent.add_grad(g)
            g = None  # so the last grad is freed before the next backward runs
        if node.parents:
            node.grad, node.bwd, node.parents = None, None, ()


@_quiet
def _param_grads(graph, params, inputs, seed, dtype):
    """Backprop the scalar ``loss`` output of a train-mode forward; returns
    ``(outputs, grads)``, the grads checked finite."""
    ctx, outputs = graph.run(params, inputs, train_mode=True, seed=seed, dtype=dtype)
    loss_var = outputs["loss"]
    if loss_var.data.shape != ():
        raise LidarMoeError("loss node must be scalar")
    _backprop(loss_var)
    grads = {name: var.grad if var.grad is not None else np.zeros_like(var.data)
             for name, var in ctx.param_vars().items()}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            graph.build(GraphContext(inputs, params, True, seed, dtype))  # checked
            raise NonFiniteError(f"non-finite value in gradient of parameter {name}")
    return outputs, grads


def backward(graph, params, inputs, seed=0):
    """Reverse-mode gradients of the scalar ``loss`` output of a train-mode
    forward with noise seed ``seed`` w.r.t. the params the graph reads.

    Returns ``(outputs, grads)``; ``grads`` maps parameter name to a
    float32 array and has an entry for every parameter the graph reads
    (a used-but-unaffecting parameter gets a zero array).
    Grad arrays are not copied: two entries may share one array, and an
    entry may be a read-only view, so copy one before writing to it.
    A non-finite grad raises NonFiniteError naming the node that first went
    non-finite in a checked rebuild of the forward, else the parameter.
    """
    outputs, grads = _param_grads(graph, params, inputs, seed, np.float32)
    return {k: v.data for k, v in outputs.items()}, grads


def grad_check(graph, params, inputs, eps=1e-3, seed=0):
    """Max relative error of :func:`backward` vs. central finite differences.

    Both the analytic and numeric sides run the same train-mode graph with
    noise seed ``seed`` in float64, so the comparison measures the
    correctness of the backward formulas, not float32 rounding. Relative
    error per scalar is ``|a - n| / max(1e-8, |a| + |n|)``.
    """
    _, analytic = _param_grads(graph, params, inputs, seed, np.float64)
    # float64 copies of the params the graph reads, perturbed in place: a
    # graph reads its params through ``get`` alone
    values = {name: params.get(name).astype(np.float64) for name in analytic}

    def eval_loss():
        _, outs = graph.run(values, inputs, train_mode=True, seed=seed, dtype=np.float64)
        return float(outs["loss"].data)

    worst = 0.0
    for name in sorted(analytic):
        flat = values[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = eval_loss()
            flat[i] = orig - eps
            lm = eval_loss()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            a = analytic[name].ravel()[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
