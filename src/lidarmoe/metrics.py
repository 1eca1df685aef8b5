"""Segmentation and robustness metrics.

Per-class IoU is TP / (TP + FP + FN); mIoU averages over classes that
occur in predictions or labels (a class absent from both is excluded).
Corruption Error and Resilience Rate for one corruption type over three
severities are

    CE = sum(1 - IoU_i) / sum(1 - IoU_i_baseline)
    RR = sum(IoU_i) / (3 * IoU_clean)

reported in percent, with means over corruption types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LidarMoeError
from .sensors import FIELD_TYPES


@dataclass
class MetricReport:
    """Per-class confusion counts and IoU percentages."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    iou: np.ndarray          # percent; NaN for classes absent everywhere
    miou: float              # percent


def compute_miou(predictions, labels, num_classes: int) -> MetricReport:
    """Confusion-count IoU over paired prediction/label vectors.

    Ignore-labeled points (label < 0) are excluded entirely; any other
    class id outside [0, num_classes) raises LidarMoeError.
    """
    predictions = np.asarray(predictions, np.int64).reshape(-1)
    labels = np.asarray(labels, np.int64).reshape(-1)
    if predictions.shape != labels.shape:
        raise LidarMoeError("predictions and labels lengths disagree")
    if predictions.size == 0:
        raise LidarMoeError("empty input")
    keep = labels >= 0
    predictions, labels = predictions[keep], labels[keep]
    if predictions.size == 0:
        raise LidarMoeError("all labels ignored")
    bad = (predictions < 0) | (predictions >= num_classes) | (labels >= num_classes)
    if np.any(bad):
        raise LidarMoeError(f"class ids must be in [0, num_classes={num_classes}), got "
                            f"prediction {predictions[bad][0]} for label {labels[bad][0]}")
    # confusion[label, prediction] counts the points of each pair
    confusion = np.bincount(labels * num_classes + predictions,
                            minlength=num_classes * num_classes).reshape(num_classes, -1)
    tp = np.diagonal(confusion).copy()
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.full(num_classes, np.nan)
    present = denom > 0
    iou[present] = 100.0 * tp[present] / denom[present]
    miou = float(np.mean(iou[present])) if np.any(present) else float("nan")
    return MetricReport(tp, fp, fn, iou, miou)


def compute_mce_mrr(model_ious: dict, baseline_ious: dict, clean_iou: float):
    """Robustness aggregates from per-corruption severity-1..3 IoUs.

    ``model_ious`` and ``baseline_ious`` map corruption name to three IoU
    percentages; returns (mCE, mRR, per-corruption dict), all percent.
    """
    if clean_iou <= 0:
        raise LidarMoeError("clean_iou must be positive")
    if set(model_ious) != set(baseline_ious):
        raise LidarMoeError("model and baseline corruption sets disagree")
    per = {}
    ces, rrs = [], []
    for name in sorted(model_ious):
        rows = [model_ious[name], baseline_ious[name]]
        if not (FIELD_TYPES["matrix"](rows) and all(len(r) == 3 for r in rows)):
            raise LidarMoeError(f"corruption {name} needs exactly three severity IoUs")
        m, b = np.asarray(rows, np.float64) / 100.0
        base_err = np.sum(1.0 - b)
        if base_err == 0:
            raise LidarMoeError(f"baseline corruption error is zero for {name}")
        ce = 100.0 * float(np.sum(1.0 - m) / base_err)
        rr = 100.0 * float(np.sum(m) / (3.0 * clean_iou / 100.0))
        per[name] = {"ce": ce, "rr": rr}
        ces.append(ce)
        rrs.append(rr)
    return float(np.mean(ces)), float(np.mean(rrs)), per
