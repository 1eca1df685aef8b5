"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately re-derive each quantity with scalar/set arithmetic so
they share no code path with the implementations they check. The
reference forms at the end are instead the code a faster form replaced,
kept to show that the new form gives the same bytes.
"""

import math

import numpy as np

from lidarmoe import autodiff as ad
from lidarmoe.errors import LidarMoeError
from lidarmoe.geometry import lexicographic_keys


def info_nce_bruteforce(k, q, tau, denominator="all"):
    """Double-loop contrastive loss over L2-normalized rows."""
    k = np.asarray(k, np.float64)
    q = np.asarray(q, np.float64)
    k = k / np.sqrt((k ** 2).sum(axis=1, keepdims=True) + 1e-12)
    q = q / np.sqrt((q ** 2).sum(axis=1, keepdims=True) + 1e-12)
    s = k.shape[0]
    total = 0.0
    for i in range(s):
        pos = np.exp(np.dot(k[i], q[i]) / tau)
        denom = 0.0
        for j in range(s):
            if denominator == "exclude_positive" and j == i:
                continue
            denom += np.exp(np.dot(k[i], q[j]) / tau)
        total += np.log(pos / denom)
    return -total / s


def lovasz_bruteforce(probs, labels):
    """Jaccard-extension evaluation over sorted prefixes with sets."""
    probs = np.asarray(probs, np.float64)
    labels = np.asarray(labels, np.int64)
    keep = labels >= 0
    probs, labels = probs[keep], labels[keep]
    present = sorted(set(labels.tolist()))
    losses = []
    for c in present:
        gt = {i for i in range(len(labels)) if labels[i] == c}
        m = np.array([1.0 - probs[i, c] if i in gt else probs[i, c]
                      for i in range(len(labels))])
        order = sorted(range(len(m)), key=lambda i: (-m[i], i))
        loss_c, prev_j = 0.0, 0.0
        prefix = set()
        for idx in order:
            prefix.add(idx)
            # prefix elements count as misclassified for class c
            pred = (gt - prefix) | (prefix - gt)
            jacc = 1.0 - len(pred & gt) / len(pred | gt) if (pred | gt) else 0.0
            loss_c += m[idx] * (jacc - prev_j)
            prev_j = jacc
        losses.append(loss_c)
    return float(np.mean(losses))


def confusion_bruteforce(preds, labels, num_classes):
    """Per-class TP/FP/FN by direct counting."""
    tp = [0] * num_classes
    fp = [0] * num_classes
    fn = [0] * num_classes
    for p, l in zip(preds, labels):
        if l < 0:
            continue
        if p == l:
            tp[l] += 1
        else:
            fp[p] += 1
            fn[l] += 1
    return tp, fp, fn


def range_uv_scalar(x, y, z, sensor):
    """Scalar-math spherical projection of one point."""
    d = math.sqrt(x * x + y * y + z * z)
    u = 0.5 * (1.0 - math.atan2(y, x) / math.pi) * sensor.range_w
    v = (1.0 - (math.asin(z / d) + sensor.fov_down_rad) / sensor.fov_total_rad) * sensor.range_h
    return u, v


def align_to_points(features, mapping):
    """Each point's row of per-cell (range image) or per-voxel (voxel
    grid) features, indexed point by point."""
    feats = np.asarray(features)
    if hasattr(mapping, "point_voxel"):
        rows = [int(m) for m in mapping.point_voxel]
    else:
        rows = [int(v) * mapping.width + int(u)
                for u, v in zip(mapping.pixel_u, mapping.pixel_v)]
    return feats[np.array(rows, np.int64).reshape(-1)]


def group_mean(features, partition):
    """Mean feature per superpoint over its assigned points, one group at a
    time; points with group -1 are excluded."""
    feats = np.asarray(features, np.float64)
    groups = partition.point_group.tolist()
    out = np.zeros((partition.count, feats.shape[1]))
    for g in range(partition.count):
        rows = [i for i, pg in enumerate(groups) if pg == g]
        if rows:
            out[g] = feats[rows].mean(axis=0)
    return out


# -- reference view geometry and scatter-add ----------------------------------
# The loop/dict/np.add.at forms the whole-array implementations in
# ``encoders``, ``geometry`` and ``autodiff`` replaced; the new code must
# return the same dtypes, shapes and values.

def farthest_point_sample_loop(xyz, count):
    """Greedy FPS from point 0 with ``np.linalg.norm`` distances."""
    n = xyz.shape[0]
    count = min(count, n)
    xyz = xyz.astype(np.float64)
    chosen = np.empty(count, np.int64)
    chosen[0] = 0
    dist = np.linalg.norm(xyz - xyz[0], axis=1)
    for i in range(1, count):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        dist = np.minimum(dist, np.linalg.norm(xyz - xyz[nxt], axis=1))
    return chosen


def point_grouping_loop(xyz, centroid_count, k):
    """(centroid_ids, member_rows, nearest_centroid) with one stable argsort
    of the squared distances per centroid; ``member_rows`` holds each
    centroid's k nearest in turn."""
    xyz = np.asarray(xyz).astype(np.float64)
    centroids = farthest_point_sample_loop(xyz, centroid_count)
    d2 = ((xyz[centroids][:, None, :] - xyz[None, :, :]) ** 2).sum(axis=2)
    k_eff = min(k, xyz.shape[0])
    member_rows = [np.argsort(d2[g], kind="stable")[:k_eff]
                   for g in range(centroids.shape[0])]
    nearest = np.argmin(d2, axis=0).astype(np.int64)
    return centroids, np.concatenate(member_rows), nearest


def voxelize_unique_rows(xyz, intensity, sizes):
    """(coords, point_voxel, features) via ``np.unique(axis=0)`` and
    ``np.add.at``."""
    xyz = np.asarray(xyz).astype(np.float64)
    idx = np.floor(xyz / np.array(sizes, np.float64)).astype(np.int64)
    coords, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.astype(np.int64).reshape(-1)
    m = coords.shape[0]
    feats = np.zeros((m, 4), np.float64)
    np.add.at(feats, inverse, np.concatenate(
        [xyz, np.asarray(intensity)[:, None].astype(np.float64)], axis=1))
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    if m:
        feats /= counts[:, None]
    return coords, inverse, feats


def voxel_neighbor_pairs_dict(coords):
    """(src, dst) 6-connected pairs (self included) by dict lookup, sorted
    by (dst, src)."""
    lookup = {tuple(c): i for i, c in enumerate(np.asarray(coords).tolist())}
    src, dst = [], []
    offsets = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
               (0, 0, 1), (0, 0, -1)]
    for i, c in enumerate(np.asarray(coords).tolist()):
        for off in offsets:
            j = lookup.get((c[0] + off[0], c[1] + off[1], c[2] + off[2]))
            if j is not None:
                dst.append(i)
                src.append(j)
    order = np.lexsort((np.asarray(src), np.asarray(dst)))
    return (np.asarray(src, np.int64)[order], np.asarray(dst, np.int64)[order])


def scatter_add_rows_at(idx, values, num_rows):
    """float64 (num_rows, ...) row sums by ``np.add.at``."""
    values = np.asarray(values)
    out = np.zeros((num_rows,) + values.shape[1:], np.float64)
    np.add.at(out, np.asarray(idx, np.int64), values)
    return out


def conv2d3x3_shifts(x, w, b, g):
    """float64 output and (x, w, b) grads of ``autodiff.conv2d3x3`` for
    upstream grad ``g``, as nine shifted (H*W, C_in) @ (C_in, C_out)
    products, one per tap of the row-major 3x3 window."""
    x, w, b, g = (np.asarray(a, np.float64) for a in (x, w, b, g))
    h, wd, cin = x.shape
    cout = w.shape[1]
    xp = np.zeros((h + 2, wd + 2, cin))
    xp[1:-1, 1:-1] = x
    gf = g.reshape(h * wd, cout)
    out = np.zeros((h * wd, cout))
    gxp = np.zeros((h + 2, wd + 2, cin))
    gw = np.zeros((9 * cin, cout))
    for t in range(9):
        dy, dx = divmod(t, 3)
        shift = xp[dy:dy + h, dx:dx + wd].reshape(h * wd, cin)
        blk = w[t * cin:(t + 1) * cin]
        out += shift @ blk
        gxp[dy:dy + h, dx:dx + wd] += (gf @ blk.T).reshape(h, wd, cin)
        gw[t * cin:(t + 1) * cin] = shift.T @ gf
    return (out + b).reshape(h, wd, cout), gxp[1:-1, 1:-1], gw, gf.sum(axis=0)


# -- reference forms of the bulk kernels and writers ---------------------------
# The per-element forms that ``autodiff.relu``, ``cli._prediction_rows`` and
# ``moe.write_gate_csv`` replaced, and the whole-image tap sum of
# ``autodiff.conv2d3x3``; the new code must give the same bytes.

def relu_where(x):
    """``np.where`` relu: positive entries kept, every other entry (NaN
    included) a zero of ``x``'s dtype."""
    x = np.asarray(x)
    return np.where(x > 0, x, 0).astype(x.dtype, copy=False)


def prediction_rows_fstring(scan, preds, labels):
    """``scan,point_id,prediction,label`` rows, one f-string per point."""
    return "".join(f"{scan},{i},{p},{l}\n" for i, (p, l) in
                   enumerate(zip(np.asarray(preds).tolist(), np.asarray(labels).tolist())))


def gate_csv_fstring(gates):
    """A gate CSV's text, one f-string per point, each weight to 9
    significant digits."""
    return "point_id,alpha,beta,gamma\n" + "".join(
        f"{i},{a:.9g},{b:.9g},{g:.9g}\n"
        for i, (a, b, g) in enumerate(np.asarray(gates).tolist()))


def conv2d3x3_whole_image(x, w, b, g):
    """Output and image grad of ``autodiff.conv2d3x3`` for upstream grad
    ``g``, each of the nine taps one whole-image product added into one
    whole-image sum, the bias last: the form the row-blocked tap sum
    replaced. The image grad runs the taps flipped, as ``tap.T``."""
    x, w, b, g = (np.asarray(a) for a in (x, w, b, g))
    h, wd, cin = x.shape
    cout, row = w.shape[1], wd + 2
    n = h * row
    starts = [dy * row + dx for dy, dx in (divmod(t, 3) for t in range(9))]
    taps = [w[t * cin:(t + 1) * cin] for t in range(9)]

    def padded(img):
        flat = np.zeros(((h + 2) * row + 2, img.shape[2]), img.dtype)
        flat[:-2].reshape(h + 2, row, img.shape[2])[1:-1, 1:-1] = img
        return flat

    xflat, gflat = padded(x), padded(g)
    acc = xflat[:n] @ taps[0]
    for s, tap in zip(starts[1:], taps[1:]):
        acc += xflat[s:s + n] @ tap
    acc += b
    gacc = gflat[starts[8]:starts[8] + n] @ taps[0].T
    for s, tap in zip(starts[7::-1], taps[1:]):
        gacc += gflat[s:s + n] @ tap.T
    return acc.reshape(h, row, cout)[:, :wd], gacc.reshape(h, row, cin)[:, :wd]


# -- reference forms of the row primitives and superpoint pooling --------------
# The ``max(axis=1)`` row shift that ``autodiff.softmax_rows``,
# ``log_softmax_rows`` and ``logsumexp_rows`` used, and the two-gather
# pooling that ``ReprView.pooled`` replaced; the new code must give the
# same bytes.

def softmax_rows_max(x, g):
    """Forward output and backward grad of the ``max(axis=1)`` softmax for
    input ``x`` and upstream grad ``g``."""
    x64 = np.asarray(x).astype(np.float64)
    x64 = x64 - x64.max(axis=1, keepdims=True)
    e = np.exp(x64)
    y64 = e / e.sum(axis=1, keepdims=True)
    return y64.astype(x.dtype), y64 * (g - np.sum(g * y64, axis=1, keepdims=True))


def log_softmax_rows_max(x, g):
    """Forward output and backward grad of the ``max(axis=1)`` log-softmax."""
    x64 = np.asarray(x).astype(np.float64)
    shifted = x64 - x64.max(axis=1, keepdims=True)
    y64 = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    grad = g - np.exp(y64) * np.sum(g, axis=1, keepdims=True)
    return y64.astype(x.dtype), grad.astype(g.dtype)


def logsumexp_rows_max(x, g):
    """Forward output and backward grad of the ``max(axis=1)`` log-sum-exp."""
    x64 = np.asarray(x).astype(np.float64)
    m = x64.max(axis=1, keepdims=True)
    lse64 = m + np.log(np.sum(np.exp(x64 - m), axis=1, keepdims=True))
    return lse64.astype(x.dtype), g * np.exp(x64 - lse64)


def pooled_two_gathers(view, ctx, partition):
    """Per-superpoint mean of a view's encoder output as two gathers: rows
    to points (``view.align``), then points to the assigned points."""
    keep = np.flatnonzero(partition.point_group >= 0)
    per_point = view.align(view.output(ctx))
    return ad.segment_mean(ad.gather_rows(per_point, keep),
                           partition.point_group[keep].astype(np.int64), partition.count)


# -- reference forms of the supervised loss kernels ------------------------------
# The per-class Lovasz-softmax graph that ``autodiff.lovasz_softmax``
# replaced, and the ``np.maximum.at`` segment max that the block form of
# ``autodiff.segment_max`` replaced; the new code must give the same bytes.

def jaccard_extension_grad(fg_sorted):
    """Discrete gradient of the Jaccard-loss extension along a sorted
    error prefix (first differences of the prefix Jaccard losses)."""
    fg = fg_sorted.astype(np.float64)
    gts = fg.sum()
    intersection = gts - np.cumsum(fg)
    union = gts + np.cumsum(1.0 - fg)
    jaccard = 1.0 - intersection / union
    out = jaccard.copy()
    out[1:] = jaccard[1:] - jaccard[:-1]
    return out


def lovasz_softmax_per_class(probs_var, labels):
    """The Lovasz-softmax as a graph of about seven nodes per present class:
    the labeled rows gathered (when some row has none), then per class a
    column slice, its errors, a gather by their sort order, a product with
    the Jaccard weights and a sum, the class terms added in class order and
    scaled by one over the class count."""
    labels = np.asarray(labels, np.int64).reshape(-1)
    keep = np.flatnonzero(labels >= 0)
    probs_kept = probs_var if keep.size == labels.size else ad.gather_rows(probs_var, keep)
    kept_labels = labels[keep]
    present = np.unique(kept_labels)
    terms = None
    for c in present.tolist():
        p_c = slice_cols(probs_kept, c, c + 1)
        fg = (kept_labels == c).astype(np.float32)[:, None]
        errors = ad.add(ad.mul(p_c, ad.as_var(1.0 - 2.0 * fg)), ad.as_var(fg))
        order = np.argsort(-errors.data[:, 0], kind="stable")
        grad = jaccard_extension_grad(fg[order, 0]).astype(np.float32)[:, None]
        term = ad.sum_all(ad.mul(ad.gather_rows(errors, order), ad.as_var(grad)))
        terms = term if terms is None else ad.add(terms, term)
    return ad.mul(terms, ad.as_var(np.float32(1.0 / present.size)))


def segment_max_at(x, seg, num_segments, g):
    """Forward output and backward grad of the per-segment column max by
    ``np.maximum.at``, the grad routed to the first attaining row by
    ``np.minimum.at`` over row numbers."""
    n, d = x.shape
    data = np.full((num_segments, d), -np.inf, dtype=x.dtype)
    np.maximum.at(data, seg, x)
    winners = np.full((num_segments, d), n, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)[:, None]
    np.minimum.at(winners, seg, np.where(x == data[seg], rows, n))
    full = np.zeros((n, d), dtype=g.dtype)
    full[winners, np.arange(d)] = g
    return data, full


# -- reference forms of the layer nodes ------------------------------------------
# The column-slice primitive, the ``add(matmul(x, w), b)`` pair that
# ``autodiff.linear`` replaced, the slice/mul/add graph that
# ``autodiff.gated_sum`` replaced, the contrastive-loss graph that
# ``autodiff.info_nce`` replaced, with the six primitives only it used, and
# the cross-entropy graph that ``autodiff.nll`` replaced, with the three
# primitives only the two loss graphs used; the new nodes must give the
# same bytes.

def slice_cols(a, j0, j1):
    """Columns ``j0:j1`` of a 2D value as a graph node; its grad is the
    output grad written into zeros of the operand's shape."""
    a = ad.as_var(a)
    shape = a.data.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[:, j0:j1] = g
        return (full,)

    return ad._out(a.data[:, j0:j1], (a,), bwd)


def neg(a):
    a = ad.as_var(a)
    return ad._out(-a.data, (a,), lambda g: (-g,))


def mean_all(a):
    a = ad.as_var(a)
    n = a.data.size
    data = np.asarray(ad._reduce_sum(a.data) / n, dtype=a.data.dtype)
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, float(g) / n, dtype=g.dtype),)

    return ad._out(data, (a,), bwd)


def sum_cols(a):
    """Row sums of a 2D array, shape (N, 1)."""
    a = ad.as_var(a)
    data = ad._row_sums(a.data, np.float64).astype(a.data.dtype)
    d = a.data.shape[1]
    return ad._out(data, (a,), lambda g: (np.repeat(g, d, axis=1),))


def sub(a, b):
    a, b = ad.as_var(a), ad.as_var(b)
    sa, sb = ad._saved(a, a.shape), ad._saved(b, b.shape)

    def bwd(g):
        return (None if sa is None else ad._unbroadcast(g, sa),
                None if sb is None else ad._unbroadcast(-g, sb))

    return ad._out(a.data - b.data, (a, b), bwd)


def div(a, b):
    a, b = ad.as_var(a), ad.as_var(b)
    # both grads read the divisor; only the divisor's reads the dividend
    ad_, bd, take_a = ad._saved(b, a.data), b.data, a.requires_grad
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (ad._unbroadcast(g / bd, sa) if take_a else None,
                None if ad_ is None else ad._unbroadcast(-g * ad_ / (bd * bd), sb))

    return ad._out(a.data / b.data, (a, b), bwd)


def sqrt(a):
    a = ad.as_var(a)
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)
    return ad._out(data, (a,), lambda g: (g / (2.0 * data),))


def logsumexp_rows(a):
    """Row-wise log-sum-exp, shape (N, 1)."""
    a = ad.as_var(a)
    x = a.data.astype(np.float64)
    m = ad._row_max(x)
    lse64 = m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))
    sm = np.exp(x - lse64)
    return ad._out(lse64.astype(a.data.dtype), (a,), lambda g: (g * sm,))


def transpose(a):
    a = ad.as_var(a)
    if a.data.ndim != 2:
        raise LidarMoeError("transpose expects 2D input")
    return ad._out(np.ascontiguousarray(a.data.T), (a,),
                   lambda g: (np.ascontiguousarray(g.T),))


def take_diag(a):
    """Diagonal of a square 2D array as an (N, 1) column."""
    a = ad.as_var(a)
    n, m = a.data.shape
    if n != m:
        raise LidarMoeError("take_diag expects a square matrix")
    data = np.diagonal(a.data).reshape(n, 1).copy()

    def bwd(g):
        full = np.zeros((n, n), dtype=g.dtype)
        np.fill_diagonal(full, g[:, 0])
        return (full,)

    return ad._out(data, (a,), bwd)


def _normalize_rows(x):
    sq = sum_cols(ad.mul(x, x))
    inv = div(ad.as_var(np.float32(1.0)), sqrt(ad.add(sq, ad.as_var(np.float32(1e-12)))))
    return ad.mul(x, inv)


def info_nce_graph(k_var, q_var, temperature, denominator="all"):
    """The contrastive loss as a graph of row-norm, matmul, transpose,
    diagonal, log-sum-exp, subtract and mean nodes. The mask adds float32's
    most negative value to the diagonal, whose softmax is then 0 at any
    temperature, as ``-inf`` makes it in ``autodiff.info_nce``."""
    s = k_var.shape[0]
    if s < 2:
        raise LidarMoeError("contrastive loss needs at least 2 rows")
    if q_var.shape != k_var.shape:
        raise LidarMoeError("embedding shapes disagree")
    kn = _normalize_rows(k_var)
    qn = _normalize_rows(q_var)
    scaled = ad.mul(ad.matmul(kn, transpose(qn)),
                    ad.as_var(np.float32(1.0 / temperature)))
    pos = take_diag(scaled)
    if denominator == "all":
        lse = logsumexp_rows(scaled)
    else:
        mask = np.zeros((s, s), np.float32)
        np.fill_diagonal(mask, np.finfo(np.float32).min)
        lse = logsumexp_rows(ad.add(scaled, ad.as_var(mask)))
    return neg(mean_all(sub(pos, lse)))


def cross_entropy_graph(logits_var, labels):
    """Mean negative log-likelihood over labeled rows (label >= 0) as a
    graph: the labeled rows gathered (when some row has none), their
    log-softmax, a product with a one-hot constant, row sums, a mean and a
    negation."""
    labels = np.asarray(labels, np.int64).reshape(-1)
    keep = np.flatnonzero(labels >= 0)
    if keep.size < labels.size:
        logits_var, labels = ad.gather_rows(logits_var, keep), labels[keep]
    logp = ad.log_softmax_rows(logits_var)
    onehot = np.zeros(logp.shape, np.float32)
    onehot[np.arange(labels.size), labels] = 1.0
    picked = sum_cols(ad.mul(logp, ad.as_var(onehot)))
    return neg(mean_all(picked))


def linear_add_matmul(x, w, b):
    """``x @ w + b`` as a ``matmul`` node and an ``add`` node."""
    return ad.add(ad.matmul(x, w), b)


def gated_sum_slices(gates, stacked):
    """The gate-weighted sum of ``stacked``'s column blocks as a graph: per
    block, a slice of each operand and their product, the products added
    in block order."""
    k = gates.data.shape[1]
    d = stacked.data.shape[1] // k

    def term(i):
        return ad.mul(slice_cols(gates, i, i + 1), slice_cols(stacked, i * d, (i + 1) * d))

    fused = term(0)
    for i in range(1, k):
        fused = ad.add(fused, term(i))
    return fused


# -- reference forms of the view kernels -----------------------------------------
# The forms that ``encoders.point_grouping``, ``geometry.project_to_range``,
# ``geometry.voxelize``, ``encoders.voxel_neighbor_pairs`` and the narrow path
# of ``autodiff.scatter_add_rows`` replaced: full passes over the points, a
# two-key ``lexsort`` and a flat ``row * width + col`` index. The new forms
# must give the same bytes.

def point_grouping_full_pass(xyz, centroid_count, k):
    """(centroid_ids, member_rows, nearest_centroid), updating every point's
    running minima for every centroid."""
    n = xyz.shape[0]
    count, k_eff = min(centroid_count, n), min(k, n)
    x, y, z = (xyz[:, j].astype(np.float64) for j in range(3))
    centroids = np.zeros(count, np.int64)
    members = np.empty((count, k_eff), np.int64)
    nearest = np.zeros(n, np.int64)
    dist, best = np.full(n, np.inf), np.full(n, np.inf)
    for i in range(count):
        c = centroids[i] = np.argmax(dist)
        dx, dy, dz = x - x[c], y - y[c], z - z[c]
        row = dx * dx
        row += dy * dy
        row += dz * dz
        np.minimum(dist, np.sqrt(row), out=dist)
        nearest[row < best] = i
        np.minimum(best, row, out=best)
        kth = np.partition(row, k_eff - 1)[k_eff - 1]
        near = np.flatnonzero(row <= kth)
        members[i] = near[np.lexsort((near, row[near]))[:k_eff]]
    return centroids, members.ravel(), nearest


def project_to_range_lexsort(cloud, sensor):
    """(features, kept_index, pixel_u, pixel_v) from a ``lexsort`` of
    (depth, id) and a 2D boolean-mask fill of ``np.linalg.norm`` depths."""
    h, w = sensor.range_h, sensor.range_w
    xyz = cloud.xyz.astype(np.float64)
    d = np.linalg.norm(xyz, axis=1)
    u = 0.5 * (1.0 - np.arctan2(xyz[:, 1], xyz[:, 0]) / np.pi) * sensor.range_w
    v = (1.0 - (np.arcsin(xyz[:, 2] / d) + sensor.fov_down_rad)
         / sensor.fov_total_rad) * sensor.range_h
    uc = np.clip(np.floor(u).astype(np.int64), 0, w - 1)
    vc = np.clip(np.floor(v).astype(np.int64), 0, h - 1)
    cell = vc * w + uc
    order = np.lexsort((np.arange(cloud.count), d))
    flat = np.full(h * w, -1, np.int64)
    flat[cell[order[::-1]]] = order[::-1]
    kept = flat.reshape(h, w)
    features = np.zeros((h, w, 5), np.float32)
    have = kept >= 0
    src = kept[have]
    features[have] = np.concatenate([
        cloud.xyz[src], cloud.intensity[src, None],
        d[src, None].astype(np.float32)], axis=1)
    return features, kept.astype(np.int32), uc.astype(np.int32), vc.astype(np.int32)


def voxelize_full_divide(cloud, sizes):
    """(coords, point_voxel, features) from one (N, 3) divide and a 2D
    scatter of every point's coordinates."""
    idx = np.floor(cloud.xyz.astype(np.float64) / np.array(sizes)).astype(np.int64)
    uniq, inverse = np.unique(lexicographic_keys(idx)[0], return_inverse=True)
    m, inverse = uniq.shape[0], inverse.astype(np.int64)
    coords = np.empty((m, 3), np.int64)
    coords[inverse] = idx
    feats, _ = ad.segment_means(inverse, cloud.features(), m)
    return coords, inverse, feats


def voxel_neighbor_pairs_lexsort(coords):
    """(src, dst) pairs from offset-major lookups and a ``lexsort`` by
    (dst, src)."""
    offsets = np.array([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                        (0, -1, 0), (0, 0, 1), (0, 0, -1)], np.int64)
    count = coords.shape[0]
    keys, steps = lexicographic_keys(coords, pad=1)
    dst = np.tile(np.arange(count, dtype=np.int64), len(offsets))
    wanted = (keys[None, :] + (offsets @ np.array(steps))[:, None]).ravel()
    src = np.minimum(np.searchsorted(keys, wanted), count - 1)
    hit = keys[src] == wanted
    src, dst = src[hit].astype(np.int64), dst[hit]
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def scatter_add_rows_flat(idx, values, num_rows):
    """float64 row sums from one ``np.bincount`` of the flat
    ``row * width + col`` index."""
    values = np.asarray(values)
    tail = values.shape[1:]
    width = int(np.prod(tail, dtype=np.int64))
    flat = (np.asarray(idx, np.int64)[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.reshape(-1), minlength=num_rows * width)
    return sums.astype(np.float64, copy=False).reshape((num_rows,) + tail)
