"""Evaluation math: IoU/DIoU and their losses, scale-invariant depth
error, per-class average precision, mAP, and confusion matrices.

Matching is greedy in score order against the unmatched ground truth with
the highest overlap, which keeps every result deterministic and lets the
whole report be reproduced from the raw boxes.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .core import DomainError, ShapeError, ValidationError

__all__ = [
    "Interpolation",
    "MatchPolicy",
    "EvalItem",
    "EvalReport",
    "iou",
    "loss_iou",
    "diou",
    "loss_diou",
    "scale_invariant_error",
    "average_precision",
    "average_precision_frames",
    "mean_average_precision",
    "confusion_matrix",
    "confusion_matrix_frames",
    "evaluate",
]


class Interpolation(Enum):
    ALL_POINT = "all_point"
    ELEVEN_POINT = "eleven_point"


@dataclass(frozen=True)
class MatchPolicy:
    """Detection-to-truth matching rules; scores always rank descending."""

    iou_threshold: float = 0.5
    interpolation: Interpolation = Interpolation.ALL_POINT

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise DomainError(
                f"iou_threshold must lie in (0, 1], got {self.iou_threshold}"
            )
        if not isinstance(self.interpolation, Interpolation):
            object.__setattr__(self, "interpolation", Interpolation(self.interpolation))


def iou(a, b):
    """Intersection over union; 0 by convention when the union has no area."""
    inter_w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    inter_h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, inter_w) * max(0.0, inter_h)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def loss_iou(a, b):
    """1 - IoU, in [0, 1]."""
    return 1.0 - iou(a, b)


def diou(a, b):
    """IoU minus the squared center distance over the squared diagonal of
    the smallest box enclosing both; equals IoU when centers coincide."""
    base = iou(a, b)
    acx, acy = a.center
    bcx, bcy = b.center
    rho_sq = (acx - bcx) ** 2 + (acy - bcy) ** 2
    enclose_w = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    enclose_h = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    diag_sq = enclose_w**2 + enclose_h**2
    if diag_sq == 0.0:
        return base
    return base - rho_sq / diag_sq


def loss_diou(a, b):
    """1 - DIoU, in [0, 2)."""
    return 1.0 - diou(a, b)


def scale_invariant_error(truth, pred):
    """Log-space depth error with the mean log-ratio removed.

    mean_i (log d_i - log p_i - mean_j (log d_j - log p_j))^2, which makes
    the metric exactly invariant under any global scaling of the
    predictions.
    """
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.ndim != 1 or p.shape != t.shape:
        raise ShapeError(f"depth vectors must match, got shapes {t.shape} and {p.shape}")
    if t.size == 0:
        raise ShapeError("need at least one depth")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise DomainError("depths must be finite")
    if np.any(t <= 0.0) or np.any(p <= 0.0):
        raise DomainError("depths must be strictly positive")
    residual = np.log(t) - np.log(p)
    centered = residual - residual.mean()
    return float(np.mean(centered**2))


def _greedy_match(dets, truths, threshold):
    """Match score-ordered detections to unmatched truths by highest IoU.

    `dets` is a sequence of (box, score); returns (pairs, tp_flags) where
    pairs holds (det_index, truth_index) in match order and tp_flags is a
    per-detection hit list in descending-score order alongside that order.
    """
    order = sorted(range(len(dets)), key=lambda k: -dets[k][1])
    matched = [False] * len(truths)
    pairs = []
    flags = []
    for k in order:
        box = dets[k][0]
        best_iou = 0.0
        best_j = -1
        for j, truth in enumerate(truths):
            if matched[j]:
                continue
            overlap = iou(box, truth)
            if overlap >= threshold and overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            pairs.append((k, best_j))
            flags.append(True)
        else:
            flags.append(False)
    return order, pairs, flags


def _integrate_all_point(recalls, precisions):
    n = len(recalls)
    envelope = list(precisions)
    for k in range(n - 2, -1, -1):
        envelope[k] = max(envelope[k], envelope[k + 1])
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        if recalls[k] > prev_recall:
            ap += (recalls[k] - prev_recall) * envelope[k]
            prev_recall = recalls[k]
    return ap


def _integrate_eleven_point(recalls, precisions):
    total = 0.0
    for step in range(11):
        level = step / 10.0
        best = 0.0
        for r, p in zip(recalls, precisions):
            if r >= level and p > best:
                best = p
        total += best
    return total / 11.0


def average_precision_frames(dets_by_frame, truths_by_frame, policy=None):
    """Single-class AP where matching is confined to each frame.

    Detections are pooled across frames and ranked by score; each one may
    only consume a truth from its own frame. Returns None when there are
    no detections and no truths (AP undefined).
    """
    policy = policy or MatchPolicy()
    frame_ids = sorted(set(dets_by_frame) | set(truths_by_frame))
    all_dets = []  # (score, pool order, frame, box)
    n_truth = 0
    matched_by_frame = {}
    truths = {fid: list(truths_by_frame.get(fid, ())) for fid in frame_ids}
    for fid in frame_ids:
        n_truth += len(truths[fid])
        matched_by_frame[fid] = [False] * len(truths[fid])
        for box, score in dets_by_frame.get(fid, ()):
            all_dets.append((score, len(all_dets), fid, box))

    if not all_dets and n_truth == 0:
        return None
    if not all_dets or n_truth == 0:
        return 0.0

    all_dets.sort(key=lambda item: (-item[0], item[1]))
    recalls = []
    precisions = []
    tp = 0
    for rank, (_, _, fid, box) in enumerate(all_dets, start=1):
        frame_truths = truths[fid]
        matched = matched_by_frame[fid]
        best_iou = 0.0
        best_j = -1
        for j, truth in enumerate(frame_truths):
            if matched[j]:
                continue
            overlap = iou(box, truth)
            if overlap >= policy.iou_threshold and overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            tp += 1
        recalls.append(tp / n_truth)
        precisions.append(tp / rank)

    if policy.interpolation is Interpolation.ELEVEN_POINT:
        return _integrate_eleven_point(recalls, precisions)
    return _integrate_all_point(recalls, precisions)


def average_precision(dets, truths, policy=None):
    """Single-class AP over one pool of (box, score) detections and truths."""
    return average_precision_frames({"_": list(dets)}, {"_": list(truths)}, policy)


def mean_average_precision(per_class):
    """Arithmetic mean of the per-class AP values present."""
    values = list(dict(per_class).values())
    if not values:
        raise DomainError("mean average precision needs at least one class AP")
    return sum(values) / len(values)


def confusion_matrix_frames(dets_by_frame, truths_by_frame, policy=None, n_classes=None):
    """(C+1)x(C+1) counts; the last row/col is background.

    Matching is class-agnostic (greedy by score against the highest-IoU
    unmatched truth of the same frame), so cross-class confusions land at
    (truth_class, det_class). Unmatched truths count against the
    background column, unmatched detections against the background row.
    `dets_by_frame` holds (box, score) pairs; box classes come from the
    boxes themselves.
    """
    policy = policy or MatchPolicy()
    frame_ids = sorted(set(dets_by_frame) | set(truths_by_frame))
    if n_classes is None:
        n_classes = 0
        for fid in frame_ids:
            for box, _ in dets_by_frame.get(fid, ()):
                n_classes = max(n_classes, box.class_id + 1)
            for box in truths_by_frame.get(fid, ()):
                n_classes = max(n_classes, box.class_id + 1)
    counts = np.zeros((n_classes + 1, n_classes + 1), dtype=np.int64)
    background = n_classes
    for fid in frame_ids:
        dets = list(dets_by_frame.get(fid, ()))
        truths = list(truths_by_frame.get(fid, ()))
        order, pairs, _ = _greedy_match(dets, truths, policy.iou_threshold)
        matched_dets = {k for k, _ in pairs}
        matched_truths = {j for _, j in pairs}
        for k, j in pairs:
            counts[truths[j].class_id, dets[k][0].class_id] += 1
        for j, truth in enumerate(truths):
            if j not in matched_truths:
                counts[truth.class_id, background] += 1
        for k, (box, _) in enumerate(dets):
            if k not in matched_dets:
                counts[background, box.class_id] += 1
    return counts


def confusion_matrix(dets, truths, policy=None, n_classes=None):
    """Single-frame confusion matrix; see :func:`confusion_matrix_frames`."""
    return confusion_matrix_frames({"_": list(dets)}, {"_": list(truths)}, policy, n_classes)


@dataclass(frozen=True, slots=True)
class EvalItem:
    """One labeled box in an evaluation file: class label, 2D box (with
    score), and optionally the 3D center depth in metres."""

    label: str
    box: object
    depth: Optional[float] = None

    @property
    def score(self):
        return self.box.score


@dataclass(frozen=True)
class EvalReport:
    """Aggregate evaluation result for one dataset run."""

    per_class_ap: Mapping[str, float]
    map: float
    confusion_labels: tuple
    confusion: object  # (C+1, C+1) int array, background last
    sie: Optional[float]
    mean_diou_loss: Optional[float]
    per_super_map: Optional[Mapping[str, float]] = None

    def to_dict(self):
        out = {
            "per_class_ap": dict(self.per_class_ap),
            "map": self.map,
            "confusion": {
                "labels": list(self.confusion_labels) + ["background"],
                "counts": np.asarray(self.confusion).tolist(),
            },
            "sie": self.sie,
            "mean_diou_loss": self.mean_diou_loss,
        }
        if self.per_super_map is not None:
            out["per_super_map"] = dict(self.per_super_map)
        return out


def evaluate(preds_by_frame, truths_by_frame, policy=None, super_map=None):
    """Build the full report from per-frame EvalItem lists.

    Frame id sets must match exactly; SIE and the mean DIoU loss aggregate
    over the class-agnostic matched pairs (SIE only over pairs where both
    sides carry a depth).
    """
    policy = policy or MatchPolicy()
    missing_in_pred = sorted(set(truths_by_frame) - set(preds_by_frame))
    missing_in_truth = sorted(set(preds_by_frame) - set(truths_by_frame))
    if missing_in_pred or missing_in_truth:
        raise ValidationError(
            "frame ids do not match: "
            f"missing from predictions {missing_in_pred}, "
            f"missing from truths {missing_in_truth}"
        )
    frame_ids = sorted(truths_by_frame)

    labels = sorted(
        {item.label for frame in truths_by_frame.values() for item in frame}
        | {item.label for frame in preds_by_frame.values() for item in frame}
    )
    label_index = {label: i for i, label in enumerate(labels)}

    def relabeled(item):
        box = item.box
        if box.class_id != label_index[item.label]:
            box = replace(box, class_id=label_index[item.label])
        return box

    per_class_ap = {}
    for label in labels:
        dets = {
            fid: [(item.box, item.score) for item in preds_by_frame[fid] if item.label == label]
            for fid in frame_ids
        }
        truths = {
            fid: [item.box for item in truths_by_frame[fid] if item.label == label]
            for fid in frame_ids
        }
        ap = average_precision_frames(dets, truths, policy)
        if ap is not None:
            per_class_ap[label] = ap

    map_value = mean_average_precision(per_class_ap) if per_class_ap else 0.0

    dets_frames = {}
    truth_frames = {}
    pred_items = {}
    truth_items = {}
    for fid in frame_ids:
        pred_items[fid] = list(preds_by_frame[fid])
        truth_items[fid] = list(truths_by_frame[fid])
        dets_frames[fid] = [(relabeled(item), item.score) for item in pred_items[fid]]
        truth_frames[fid] = [relabeled(item) for item in truth_items[fid]]
    confusion = confusion_matrix_frames(
        dets_frames, truth_frames, policy, n_classes=len(labels)
    )

    diou_losses = []
    truth_depths = []
    pred_depths = []
    for fid in frame_ids:
        dets = dets_frames[fid]
        truths = truth_frames[fid]
        _, pairs, _ = _greedy_match(dets, truths, policy.iou_threshold)
        for k, j in pairs:
            diou_losses.append(loss_diou(dets[k][0], truths[j]))
            t_depth = truth_items[fid][j].depth
            p_depth = pred_items[fid][k].depth
            if t_depth is not None and p_depth is not None:
                truth_depths.append(t_depth)
                pred_depths.append(p_depth)

    mean_diou = sum(diou_losses) / len(diou_losses) if diou_losses else None
    sie_value = (
        scale_invariant_error(truth_depths, pred_depths) if truth_depths else None
    )

    per_super = None
    if super_map is not None:
        groups = {}
        for label, ap in per_class_ap.items():
            super_name = super_map.get(label)
            if super_name is not None:
                groups.setdefault(str(super_name), []).append(ap)
        if groups:
            per_super = {name: sum(v) / len(v) for name, v in sorted(groups.items())}

    return EvalReport(
        per_class_ap=per_class_ap,
        map=map_value,
        confusion_labels=tuple(labels),
        confusion=confusion,
        sie=sie_value,
        mean_diou_loss=mean_diou,
        per_super_map=per_super,
    )
