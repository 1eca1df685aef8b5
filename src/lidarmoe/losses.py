"""Training objectives: grouped contrastive loss, cross-entropy,
Lovasz-softmax, and the supervised multi-representation composite.

The contrastive loss L2-normalizes both embedding matrices, scores every
pair by dot product over a temperature, and averages the negative log of
the matched pair's softmax probability. By default the denominator runs
over all columns including the match; ``denominator="exclude_positive"``
drops the matched column instead.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import LidarMoeError


# (representation, term, weight) of the supervised composite, in summation order
SMS_TERMS = (("fused", "ce", 1.0), ("range", "ce", 1.0), ("range", "lovasz", 2.0),
             ("voxel", "ce", 1.0), ("voxel", "lovasz", 2.0), ("point", "ce", 1.0))


def _normalize_rows(x):
    sq = ad.sum_cols(ad.mul(x, x))
    inv = ad.div(ad.as_var(np.float32(1.0)), ad.sqrt(ad.add(sq, ad.as_var(np.float32(1e-12)))))
    return ad.mul(x, inv)


def build_info_nce(k_var, q_var, temperature, denominator="all"):
    """Composable contrastive loss over matched embedding rows."""
    s = k_var.shape[0]
    if s < 2:
        raise LidarMoeError("contrastive loss needs at least 2 rows")
    if q_var.shape != k_var.shape:
        raise LidarMoeError("embedding shapes disagree")
    kn = _normalize_rows(k_var)
    qn = _normalize_rows(q_var)
    scaled = ad.mul(ad.matmul(kn, ad.transpose(qn)),
                    ad.as_var(np.float32(1.0 / temperature)))
    pos = ad.take_diag(scaled)
    if denominator == "all":
        lse = ad.logsumexp_rows(scaled)
    else:
        mask = np.zeros((s, s), np.float32)
        np.fill_diagonal(mask, -1e4)
        lse = ad.logsumexp_rows(ad.add(scaled, ad.as_var(mask)))
    return ad.neg(ad.mean_all(ad.sub(pos, lse)))


def _labeled_rows(rows_var, labels, what):
    """The rows of ``rows_var`` (named ``what``) with a label >= 0, gathered
    only when some row has none, and their labels; raises LidarMoeError when
    the row counts disagree or no row is labeled."""
    labels = np.asarray(labels, np.int64).reshape(-1)
    if labels.shape[0] != rows_var.shape[0]:
        raise LidarMoeError(f"labels and {what} row counts disagree")
    keep = np.flatnonzero(labels >= 0)
    if keep.size == 0:
        raise LidarMoeError("all labels are ignored")
    if keep.size == labels.size:
        return rows_var, labels
    return ad.gather_rows(rows_var, keep), labels[keep]


def build_cross_entropy(logits_var, labels):
    """Mean negative log-likelihood over labeled rows (label >= 0)."""
    kept, labels = _labeled_rows(logits_var, labels, "logits")
    logp = ad.log_softmax_rows(kept)
    onehot = np.zeros(kept.shape, np.float32)
    onehot[np.arange(labels.size), labels] = 1.0
    picked = ad.sum_cols(ad.mul(logp, ad.as_var(onehot)))
    return ad.neg(ad.mean_all(picked))


def jaccard_extension_grad(fg_sorted: np.ndarray) -> np.ndarray:
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


def build_lovasz_softmax(probs_var, labels):
    """Composable Lovasz-softmax over probability rows.

    For every class present in the labels, the per-point errors
    (1 - p for the class's points, p elsewhere) are sorted descending and
    dotted with the Jaccard-extension gradient; the result is averaged
    over present classes. The sort order is treated as constant, so
    gradients flow through the error values.
    """
    probs_kept, kept_labels = _labeled_rows(probs_var, labels, "probability")
    sums = probs_var.data.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        raise LidarMoeError("probability rows must sum to 1")
    present = np.unique(kept_labels)
    terms = None
    for c in present.tolist():
        p_c = ad.slice_cols(probs_kept, c, c + 1)
        fg = (kept_labels == c).astype(np.float32)[:, None]
        errors = ad.add(ad.mul(p_c, ad.as_var(1.0 - 2.0 * fg)), ad.as_var(fg))
        order = np.argsort(-errors.data[:, 0], kind="stable")
        grad = jaccard_extension_grad(fg[order, 0]).astype(np.float32)[:, None]
        term = ad.sum_all(ad.mul(ad.gather_rows(errors, order), ad.as_var(grad)))
        terms = term if terms is None else ad.add(terms, term)
    return ad.mul(terms, ad.as_var(np.float32(1.0 / present.size)))


def build_sms_total(logits_by_rep: dict, labels_by_rep: dict):
    """Composable supervised composite: the weighted sum of the
    ``SMS_TERMS`` rows; returns (total Var, {"<rep>_<term>": weighted term Var}).

    ``logits_by_rep`` maps {fused, range, voxel, point} to logit Vars;
    ``labels_by_rep`` maps the same keys to integer label vectors in the
    matching row space.
    """
    total = None
    breakdown = {}
    for rep, term, weight in SMS_TERMS:
        logits, labels = logits_by_rep[rep], labels_by_rep[rep]
        if term == "ce":
            value = build_cross_entropy(logits, labels)
        else:
            value = build_lovasz_softmax(ad.softmax_rows(logits), labels)
        value = ad.mul(value, ad.as_var(np.float32(weight)))
        breakdown[f"{rep}_{term}"] = value
        total = value if total is None else ad.add(total, value)
    return total, breakdown
