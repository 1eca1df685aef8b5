"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately re-derive each quantity with scalar/set arithmetic so
they share no code path with the implementations they check.
"""

import math

import numpy as np


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
    v = (1.0 - (math.asin(z / d) + sensor.fov_down) / sensor.fov_total) * sensor.range_h
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
