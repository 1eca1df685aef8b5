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


def _checked_labels(rows_var, labels, what):
    """``labels`` as an int64 vector, one per row of ``rows_var`` (named
    ``what``); raises LidarMoeError when the row counts disagree or no
    label is >= 0 (labeled)."""
    labels = np.asarray(labels, np.int64).reshape(-1)
    if labels.shape[0] != rows_var.shape[0]:
        raise LidarMoeError(f"labels and {what} row counts disagree")
    if not np.any(labels >= 0):
        raise LidarMoeError("all labels are ignored")
    return labels


def build_cross_entropy(logits_var, labels):
    """Mean negative log-likelihood over labeled rows (label >= 0); the
    labeled rows are gathered only when some row has no label."""
    labels = _checked_labels(logits_var, labels, "logits")
    keep = np.flatnonzero(labels >= 0)
    if keep.size < labels.size:
        logits_var, labels = ad.gather_rows(logits_var, keep), labels[keep]
    logp = ad.log_softmax_rows(logits_var)
    onehot = np.zeros(logp.shape, np.float32)
    onehot[np.arange(labels.size), labels] = 1.0
    picked = ad.sum_cols(ad.mul(logp, ad.as_var(onehot)))
    return ad.neg(ad.mean_all(picked))


def build_lovasz_softmax(probs_var, labels):
    """Composable Lovasz-softmax over probability rows and their labels
    (label >= 0 labeled): one ``autodiff.lovasz_softmax`` node."""
    return ad.lovasz_softmax(probs_var, _checked_labels(probs_var, labels, "probability"))


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
