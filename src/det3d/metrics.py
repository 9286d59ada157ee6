"""Evaluation math: IoU, DIoU and the DIoU loss, scale-invariant depth
error, per-class average precision, mAP, and confusion matrices.

Matching is greedy in score order against the unmatched ground truth with
the highest overlap, which keeps every result deterministic and lets the
whole report be reproduced from the raw boxes. Every report, AP and
confusion matrix comes from one frame-at-a-time `Evaluator`.
"""

import numbers
from array import array
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .core import DomainError, ShapeError, ValidationError, check_number

__all__ = [
    "Interpolation",
    "MatchPolicy",
    "EvalItem",
    "EvalReport",
    "Evaluator",
    "iou",
    "iou_matrix",
    "match_frame",
    "diou",
    "loss_diou",
    "scale_invariant_error",
    "average_precision",
    "average_precision_frames",
    "mean_average_precision",
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
        check_number(self, "iou_threshold", numbers.Real, "a real number")
        if not 0.0 < self.iou_threshold <= 1.0:
            raise DomainError(
                f"iou_threshold must lie in (0, 1], got {self.iou_threshold}"
            )
        try:
            object.__setattr__(self, "interpolation", Interpolation(self.interpolation))
        except ValueError:
            valid = [mode.value for mode in Interpolation]
            raise DomainError(
                f"interpolation must be one of {valid}, got {self.interpolation!r}"
            ) from None


def iou(a, b):
    """Intersection over union; 0 by convention when the union has no area."""
    inter_w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    inter_h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, inter_w) * max(0.0, inter_h)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


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


def iou_matrix(a, b):
    """(n, m) IoU of each row of `a` against each row of `b`, both (n, 4)
    arrays of (x_min, y_min, x_max, y_max).

    The float64 steps are those of :func:`iou`, so every entry equals the
    scalar IoU of the two boxes bit for bit (0 where the union has no area).
    """
    ax0, ay0, ax1, ay1 = np.asarray(a, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    bx0, by0, bx1, by1 = np.asarray(b, dtype=np.float64).reshape(-1, 4).T
    inter_w = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    inter_h = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.maximum(0.0, inter_w) * np.maximum(0.0, inter_h)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=~(union <= 0.0))


def match_frame(iou, scores, threshold):
    """Greedy matching of one frame's detections (rows of `iou`, ranked by
    `scores`) to its truths (columns).

    Detections go in stable descending-score order, so tied scores go by
    index. Each takes the unmatched truth of highest IoU, provided that IoU
    is at least `threshold` and above 0; among tied IoUs the lowest truth
    index wins. Returns the matched detection and truth indices as two int
    arrays, in match order.
    """
    iou = np.asarray(iou, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    dets, truths = np.nonzero((iou >= threshold) & (iou > 0.0))
    # Candidates by (-score, detection index, -IoU, truth index): the first
    # free truth in a detection's run is the one the greedy rule gives it.
    by_rule = np.lexsort((truths, -iou[dets, truths], dets, -scores[dets]))
    return _greedy_walk(dets[by_rule], truths[by_rule])


def _greedy_walk(rows, cols):
    """Walk (row, col) candidates in the given order and take each one
    whose row and column are both still free. Returns the taken rows and
    columns as two intp arrays, in the order taken. Shared by matching and
    by `decode.group_corners`, which order their candidates differently."""
    taken, used_cols = {}, set()  # taken: row -> its column, in the order taken
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i not in taken and j not in used_cols:
            taken[i] = j
            used_cols.add(j)
    n = len(taken)
    return np.fromiter(taken, np.intp, n), np.fromiter(taken.values(), np.intp, n)


def _coords(boxes):
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=np.float64)


def _integrate_all_point(recalls, precisions):
    """Sum over the ranks where recall rises of the rise times the
    precision envelope there, from arrays. Recall never falls, so each
    rise is from the previous rank's recall; `add.accumulate` adds the
    terms one by one in rank order, as a loop would."""
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    rises = np.diff(recalls, prepend=0.0)
    rising = rises > 0.0
    terms = rises[rising] * envelope[rising]
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


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


def _pooled_ap(scores, hits, n_truth, interpolation):
    """AP of detections pooled across frames: `hits[k]` says whether
    detection k matched in its own frame; ranks go by (-score, pool
    order)."""
    if not scores or n_truth == 0:
        return 0.0
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    tp = np.cumsum(np.asarray(hits, dtype=bool)[order])
    recalls = tp / n_truth
    precisions = tp / np.arange(1, tp.size + 1)
    if interpolation is Interpolation.ELEVEN_POINT:
        return _integrate_eleven_point(recalls.tolist(), precisions.tolist())
    return _integrate_all_point(recalls, precisions)


# A (box, score) detection read as an EvalItem that ranks by the pair's score.
_Ranked = namedtuple("_Ranked", "label box score depth", defaults=(None,))


def _report_pairs(dets_by_frame, truths_by_frame, policy, label):
    """The report of (box, score) detections and truth boxes, each labelled
    `label(box)`, over the frame ids of either side (empty on the other)."""
    evaluator = Evaluator(policy)
    for fid in sorted(set(dets_by_frame) | set(truths_by_frame)):
        dets = [_Ranked(label(box), box, score) for box, score in dets_by_frame.get(fid, ())]
        evaluator.add(fid, dets, [EvalItem(label(b), b) for b in truths_by_frame.get(fid, ())])
    return evaluator.report()


def average_precision_frames(dets_by_frame, truths_by_frame, policy=None):
    """Single-class AP where matching is confined to each frame.

    Detections are pooled across frames and ranked by score; each one may
    only consume a truth from its own frame, so each frame is matched on
    its own first. Returns None when there are no detections and no truths
    (AP undefined).
    """
    return _report_pairs(dets_by_frame, truths_by_frame, policy, lambda box: 0).per_class_ap.get(0)


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
    boxes themselves, and `n_classes` defaults to the largest one + 1.
    """
    report = _report_pairs(dets_by_frame, truths_by_frame, policy, lambda box: box.class_id)
    seen = list(report.confusion_labels)
    if n_classes is None:
        n_classes = seen[-1] + 1 if seen else 0
    index = seen + [n_classes]
    counts = np.zeros((n_classes + 1, n_classes + 1), dtype=np.int64)
    np.add.at(counts, np.ix_(index, index), report.confusion)
    return counts


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


class Evaluator:
    """Frame-at-a-time evaluation: `add` matches one frame and folds it
    into running totals, and `report` builds the EvalReport of the frames
    added so far. Frame ids must be added in strictly increasing order,
    which fixes each class's detection pool, the DIoU sum and the SIE
    inputs to sorted-id order: a report equals :func:`evaluate` of the
    same frames."""

    def __init__(self, policy=None):
        self.policy = policy or MatchPolicy()
        self._last = None  # the last frame id added
        self._codes = {}  # label -> integer code, in first-seen order
        self._pooled = defaultdict(lambda: ([], []))  # code -> scores and hits, in pool order
        self._n_truths = Counter()  # code -> truths
        self._confusion = Counter()  # (matched truth's code or -1, detection's code) -> count
        # Losses are new floats, so they are held unboxed; the depths are
        # the items' own.
        self._diou_losses, self._truth_depths, self._pred_depths = array("d"), [], []

    def add(self, frame_id, preds, truths):
        """Match one frame's predicted and true EvalItems and add them to
        the totals; ValidationError unless `frame_id` is above every id
        added before."""
        if self._last is not None and frame_id <= self._last:
            raise ValidationError(f"frame ids must increase: got {frame_id!r} after {self._last!r}")
        self._last = frame_id
        preds, truths, codes = list(preds), list(truths), self._codes
        pred_cls = [codes.setdefault(item.label, len(codes)) for item in preds]
        truth_cls = [codes.setdefault(item.label, len(codes)) for item in truths]
        scores = [item.score for item in preds]
        overlaps = iou_matrix(_coords(p.box for p in preds), _coords(t.box for t in truths))

        # Class-agnostic pass: cross-class matches are confusions. Missed
        # truths are counted at report time, from the truth counts.
        det_idx, truth_idx = match_frame(overlaps, scores, self.policy.iou_threshold)
        rows = [-1] * len(preds)
        for k, j in zip(det_idx.tolist(), truth_idx.tolist()):
            rows[k] = truth_cls[j]
            self._diou_losses.append(loss_diou(preds[k].box, truths[j].box))
            if truths[j].depth is not None and preds[k].depth is not None:
                self._truth_depths.append(truths[j].depth)
                self._pred_depths.append(preds[k].depth)
        self._confusion.update(zip(rows, pred_cls))

        # Per-class pass: with cross-class overlaps zeroed no detection can
        # take another class's truth, so one pass matches every class.
        overlaps = np.where(np.equal.outer(pred_cls, truth_cls), overlaps, 0.0)
        hits = np.zeros(len(preds), dtype=bool)
        hits[match_frame(overlaps, scores, self.policy.iou_threshold)[0]] = True
        for c, score, hit in zip(pred_cls, scores, hits.tolist()):
            pool = self._pooled[c]
            pool[0].append(score)
            pool[1].append(hit)
        self._n_truths.update(truth_cls)

    def report(self, super_map=None):
        """The EvalReport of every frame added so far. SIE and the mean
        DIoU loss aggregate over the class-agnostic matched pairs (SIE only
        over pairs where both sides carry a depth)."""
        labels = sorted(self._codes)
        order = [self._codes[label] for label in labels]
        per_class_ap = {
            label: _pooled_ap(*self._pooled[c], self._n_truths[c], self.policy.interpolation)
            for label, c in zip(labels, order)
        }
        # Label order, background last; a truth class's misses are its
        # truths less its matched ones.
        position = {c: i for i, c in enumerate(order + [-1])}
        confusion = np.zeros((len(position), len(position)), dtype=np.int64)
        for (row, col), n in self._confusion.items():
            confusion[position[row], position[col]] = n
        confusion[:-1, -1] = [self._n_truths[c] for c in order] - confusion[:-1].sum(axis=1)

        per_super = None
        if super_map is not None:
            groups = {}
            for label, ap in per_class_ap.items():
                if super_map.get(label) is not None:
                    groups.setdefault(str(super_map[label]), []).append(ap)
            per_super = {name: sum(v) / len(v) for name, v in sorted(groups.items())} or None
        losses, truth_depths = self._diou_losses, self._truth_depths
        return EvalReport(
            per_class_ap=per_class_ap,
            map=mean_average_precision(per_class_ap) if per_class_ap else 0.0,
            confusion_labels=tuple(labels),
            confusion=confusion,
            sie=scale_invariant_error(truth_depths, self._pred_depths) if truth_depths else None,
            mean_diou_loss=sum(losses) / len(losses) if losses else None,
            per_super_map=per_super,
        )


def evaluate(preds_by_frame, truths_by_frame, policy=None, super_map=None):
    """The report of per-frame EvalItem lists whose frame id sets match
    exactly: an :class:`Evaluator` fed every frame in sorted id order."""
    pred_ids, truth_ids = set(preds_by_frame), set(truths_by_frame)
    if pred_ids != truth_ids:
        raise ValidationError(
            f"frame ids do not match: missing from predictions {sorted(truth_ids - pred_ids)}, "
            f"missing from truths {sorted(pred_ids - truth_ids)}"
        )
    evaluator = Evaluator(policy)
    for fid in sorted(truths_by_frame):
        evaluator.add(fid, preds_by_frame[fid], truths_by_frame[fid])
    return evaluator.report(super_map)
