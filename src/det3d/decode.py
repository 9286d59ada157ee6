"""Anchor-free inference: heatmaps + embeddings + offsets -> detections.

The pipeline is peak extraction, tag attachment, greedy corner grouping by
tag distance, sub-cell offset refinement, and center-validated box
assembly. Every step is deterministic: all orderings use total sort keys
(score descending, then row, then col). Keypoints travel between the
stages as columns (`Keypoints`, `CornerPairs`); `Keypoint` objects are
built only for the detections returned.
"""

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    Box2D,
    ConfigurationError,
    Detection,
    DomainError,
    Keypoint,
    KeypointKind,
    check_number,
)
from . import geometry3d
from .metrics import _greedy_walk

__all__ = [
    "PeakExtractionConfig",
    "GroupingConfig",
    "Keypoints",
    "CornerPairs",
    "extract_peaks",
    "attach_tags",
    "group_corners",
    "assemble_boxes",
    "decode_frame",
    "decode_frame_3d",
]


@dataclass(frozen=True)
class PeakExtractionConfig:
    score_threshold: float = 0.3
    nms_window: int = 3
    top_k: int = 100

    def __post_init__(self):
        for name in ("nms_window", "top_k"):
            check_number(self, name, numbers.Integral, "an integer")
        check_number(self, "score_threshold", numbers.Real, "a real number")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise DomainError(f"score_threshold must lie in [0, 1], got {self.score_threshold}")
        if self.nms_window < 1 or self.nms_window % 2 == 0:
            raise DomainError(f"nms_window must be an odd integer >= 1, got {self.nms_window}")
        if self.top_k < 1:
            raise DomainError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class GroupingConfig:
    theta: float = 0.5
    geometric_gate: bool = True

    def __post_init__(self):
        check_number(self, "theta", numbers.Real, "a real number")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise DomainError(f"theta must be finite and positive, got {self.theta}")
        if not isinstance(self.geometric_gate, bool):
            raise DomainError(f"geometric_gate must be a bool, got {self.geometric_gate!r}")


class _ItemSequence(Sequence):
    """An immutable sequence whose items `at(indices)` builds, a list at a
    time; it compares equal to a list of the same items."""

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.at(range(len(self))[index])
        return self.at([range(len(self))[index]])[0]

    def __iter__(self):
        return iter(self.at(range(len(self))))

    def __eq__(self, other):
        if isinstance(other, (_ItemSequence, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({list(self)!r})"


class Keypoints(_ItemSequence):
    """Keypoints held as columns, one entry per keypoint: `kinds` (a
    tuple), integer `class_ids`, `rows` and `cols`, and float64 `scores`
    and `tags`.

    The decode stages read and test the columns. Indexing and iteration
    yield `Keypoint`s, each built on first access and then kept, so only
    the keypoints a caller reads become objects. `Keypoints.of` takes
    plain `Keypoint` lists too, and keeps their objects as the items.
    """

    __slots__ = ("kinds", "class_ids", "rows", "cols", "scores", "tags", "_built")

    def __init__(self, kinds, class_ids, rows, cols, scores, tags, built=None):
        self.kinds = kinds
        self.class_ids = class_ids
        self.rows = rows
        self.cols = cols
        self.scores = scores
        self.tags = tags
        self._built = [None] * len(kinds) if built is None else built

    @classmethod
    def of(cls, keypoints):
        """The keypoints as a Keypoints: itself, or the columns of a sequence of `Keypoint`s."""
        if isinstance(keypoints, Keypoints):
            return keypoints
        items = list(keypoints)

        def column(name, dtype):
            return np.array([getattr(kp, name) for kp in items], dtype=dtype)

        return cls(
            tuple(kp.kind for kp in items),
            column("class_id", np.int64),
            column("row", np.intp),
            column("col", np.intp),
            column("score", np.float64),
            column("tag", np.float64),
            items,
        )

    def __len__(self):
        return len(self.kinds)

    def at(self, indices):
        """The `Keypoint`s at the indices, as a list."""
        built = self._built
        indices = list(indices)
        missing = [k for k in indices if built[k] is None]
        if missing:
            columns = (self.class_ids, self.rows, self.cols, self.scores, self.tags)
            for k, *fields in zip(missing, *(column[missing].tolist() for column in columns)):
                built[k] = Keypoint(self.kinds[k], *fields)
        return [built[k] for k in indices]


class CornerPairs(_ItemSequence):
    """Grouped corners: keypoint `tl_index[p]` of `top_lefts` with keypoint
    `br_index[p]` of `bottom_rights`. Items are (top-left, bottom-right)
    `Keypoint` tuples."""

    __slots__ = ("top_lefts", "bottom_rights", "tl_index", "br_index")

    def __init__(self, top_lefts, bottom_rights, tl_index, br_index):
        self.top_lefts = top_lefts
        self.bottom_rights = bottom_rights
        self.tl_index = tl_index
        self.br_index = br_index

    @classmethod
    def of(cls, pairs):
        """The pairs as CornerPairs: itself, or the columns of a sequence of `(Keypoint, Keypoint)`."""
        if isinstance(pairs, CornerPairs):
            return pairs
        pairs = list(pairs)
        index = np.arange(len(pairs))
        return cls(
            Keypoints.of([tl for tl, _ in pairs]), Keypoints.of([br for _, br in pairs]), index, index
        )

    def __len__(self):
        return self.tl_index.size

    def at(self, indices):
        """The (top-left, bottom-right) `Keypoint` pairs at the indices, as a list."""
        indices = list(indices)
        return list(
            zip(
                self.top_lefts.at(self.tl_index[indices].tolist()),
                self.bottom_rights.at(self.br_index[indices].tolist()),
            )
        )


def extract_peaks(heatmap, cfg, kind):
    """Windowed non-maximum suppression over every channel of a heatmap.

    A cell is a peak iff all three hold, with its nms_window x nms_window
    window clipped to the map:

    - it equals the maximum of its window;
    - it is strictly greater than every window neighbour that comes before
      it in (row, col) order: the window rows above it, and the cells to
      its left in its own row (so a plateau keeps only its first cell);
    - it is at or above score_threshold.

    Each channel keeps its first `top_k` peaks by (-score, row, col), and
    the result is sorted by (-score, row, col, channel).

    A cell-stored heatmap is searched among its stored values wherever
    `_cell_peaks` can; any other is scanned whole. Both kernels find the
    same peaks.
    """
    found = None if heatmap.cell_table is None else _cell_peaks(heatmap, cfg)
    if found is None:
        found = _dense_peaks(heatmap.data, cfg)
    return _ranked_keypoints(kind, heatmap, cfg.top_k, *found)


def _check_range(lo, hi):
    if lo < 0.0 or hi > 1.0:
        raise DomainError(f"peak extraction needs values in [0, 1], got [{lo:g}, {hi:g}]")


def _dense_peaks(data, cfg):
    """(cells, channels, scores) of every peak of an (H, W, C) array."""
    _check_range(float(data.min()), float(data.max()))
    margin = (cfg.nms_window - 1) // 2
    n_channels = data.shape[2]

    # The window max is separable: each cell's row max over its window
    # columns, then those row maxima compared down the window rows. Each
    # comparison narrows one mask in place, so the row max is the only
    # full-size float temporary. More of them outgrow glibc's heap trim
    # threshold, and every call then page-faults them back in.
    row_max = data.copy()
    for k in range(1, margin + 1):
        np.maximum(row_max[:, k:], data[:, :-k], out=row_max[:, k:])
        np.maximum(row_max[:, :-k], data[:, k:], out=row_max[:, :-k])
    keep = data >= cfg.score_threshold
    keep &= data >= row_max
    for k in range(1, margin + 1):
        keep[:, k:] &= data[:, k:] > data[:, :-k]
        keep[k:] &= data[k:] > row_max[:-k]
        keep[:-k] &= data[:-k] >= row_max[k:]
    del row_max

    flat = np.flatnonzero(keep)
    cells, channels = np.divmod(flat, n_channels)
    return cells, channels, data.reshape(-1)[flat]


def _cell_peaks(heatmap, cfg):
    """(cells, channels, scores) of every peak of a cell-stored heatmap, or
    None where the dense kernel must run: at threshold 0, where an unstored
    cell (it reads 0.0) can be a peak too, or where the candidates'
    neighbour table would hold more entries than the map holds values.
    """
    if cfg.score_threshold <= 0.0:
        return None
    cells, values = heatmap.cell_table
    height, width, n_channels = heatmap.shape
    n_stored = cells.size
    lo, hi = (float(values.min()), float(values.max())) if n_stored else (0.0, 0.0)
    if n_stored < height * width:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    _check_range(lo, hi)
    window = cfg.nms_window
    margin = (window - 1) // 2

    flat_values = values.reshape(-1)
    flat = np.flatnonzero(flat_values >= cfg.score_threshold)
    index, channels = np.divmod(flat, n_channels)
    cand_cells = cells[index]
    scores = flat_values[flat]
    if margin:
        # A candidate that loses to the cell beside it in its row, where
        # the table stores that cell next to it, cannot be a peak. Dropping
        # those first leaves about one candidate per row of a bump for the
        # full window test.
        cols = cand_cells % width
        left = np.maximum(index - 1, 0)
        right = np.minimum(index + 1, n_stored - 1)
        has_left = (cols > 0) & (cells[left] == cand_cells - 1)
        has_right = (cols < width - 1) & (cells[right] == cand_cells + 1)
        lose = has_left & (scores <= values[left, channels])
        lose |= has_right & (scores < values[right, channels])
        channels, cand_cells, scores = channels[~lose], cand_cells[~lose], scores[~lose]
    if cand_cells.size * (window * window - 1) > height * width * n_channels:
        return None

    # Each candidate against its whole window at once: one row of
    # neighbours per candidate in (row, col) order, so the first half
    # come before it. A neighbour is read from the table by binary
    # search; an unstored one reads 0.0, and one off the map -inf, so
    # that it never blocks.
    offsets = np.arange(window * window)
    half = offsets.size // 2
    offsets = np.delete(offsets, half)
    n_rows = (cand_cells // width)[:, None] + (offsets // window - margin)
    n_cols = (cand_cells % width)[:, None] + (offsets % window - margin)
    on_map = (n_rows >= 0) & (n_rows < height) & (n_cols >= 0) & (n_cols < width)
    flat = n_rows * width + n_cols
    pos = np.minimum(np.searchsorted(cells, flat), n_stored - 1)
    stored = on_map & (cells[pos] == flat)
    neighbour = np.where(on_map, np.float32(0.0), np.float32(-np.inf))
    neighbour = np.where(stored, values[pos, channels[:, None]], neighbour)
    score = scores[:, None]
    peak = (score > neighbour[:, :half]).all(axis=1) & (score >= neighbour[:, half:]).all(axis=1)
    return cand_cells[peak], channels[peak], scores[peak]


def _ranked_keypoints(kind, heatmap, top_k, cells, channels, scores):
    """Each channel's first `top_k` peaks by (-score, row, col), as
    keypoints sorted by (-score, row, col, channel)."""
    n_channels = heatmap.channels
    # A peak below its channel's top_k-th best score can never be kept, so
    # it is dropped before any ranking; ties at that score all stay.
    cutoff = np.zeros(n_channels, dtype=scores.dtype)
    for ch in range(n_channels):
        ranked = scores[channels == ch]
        if ranked.size > top_k:
            cutoff[ch] = np.partition(ranked, -top_k)[-top_k]
    survive = scores >= cutoff[channels]
    cells, channels, scores = cells[survive], channels[survive], scores[survive]
    # Flat cell indices run in (row, col) order within a channel. Rank the
    # peaks within their channel and keep the first top_k of each.
    order = np.lexsort((cells, -scores, channels))
    channel_start = np.searchsorted(channels[order], channels[order])
    order = order[np.arange(order.size) - channel_start < top_k]
    order = order[np.lexsort((channels[order], cells[order], -scores[order]))]
    rows, cols = np.divmod(cells[order], heatmap.width)
    return Keypoints(
        (kind,) * order.size,
        channels[order],
        rows,
        cols,
        scores[order].astype(np.float64),
        np.zeros(order.size),
    )


def attach_tags(keypoints, embedding):
    """Return the keypoints tagged from a 1-channel embedding map."""
    if embedding.channels != 1:
        raise ConfigurationError(
            f"embedding map must have 1 channel, got {embedding.channels}"
        )
    kps = Keypoints.of(keypoints)
    tags = embedding.take(kps.rows, kps.cols)[:, 0].astype(np.float64)
    return Keypoints(kps.kinds, kps.class_ids, kps.rows, kps.cols, kps.scores, tags)


def group_corners(top_lefts, bottom_rights, cfg):
    """Greedy best-first corner pairing by ascending tag distance.

    A (top-left i, bottom-right j) candidate is admissible iff both have
    the same class, |tag_i - tag_j| < theta, and, when the geometric gate
    is on, tl.row <= br.row and tl.col <= br.col. Candidates are visited
    in ascending (distance, i, j) order and a candidate is taken iff
    neither of its corners was taken before. Unmatched keypoints are
    dropped.
    """
    tls, brs = Keypoints.of(top_lefts), Keypoints.of(bottom_rights)
    distance = np.abs(tls.tags[:, None] - brs.tags)
    admissible = (tls.class_ids[:, None] == brs.class_ids) & (distance < cfg.theta)
    if cfg.geometric_gate:
        admissible &= tls.rows[:, None] <= brs.rows
        admissible &= tls.cols[:, None] <= brs.cols
    # nonzero is row-major, so a stable sort on distance alone breaks
    # ties by (i, j).
    tl_idx, br_idx = np.nonzero(admissible)
    order = np.argsort(distance[tl_idx, br_idx], kind="stable")
    return CornerPairs(tls, brs, *_greedy_walk(tl_idx[order], br_idx[order]))


def _refined(rows, cols, offsets, stride):
    """Image-pixel (x, y) arrays: ((col + o_x) * stride, (row + o_y) * stride)."""
    if offsets.channels != 2:
        raise ConfigurationError(
            f"offset map must have exactly 2 channels (o_x, o_y), got {offsets.channels}"
        )
    if int(stride) != stride or stride < 1:
        raise DomainError(f"stride must be a positive integer, got {stride!r}")
    o = offsets.take(rows, cols).astype(np.float64)
    return (cols + o[:, 0]) * stride, (rows + o[:, 1]) * stride


def assemble_boxes(pairs, centers, offsets, stride):
    """Build center-validated boxes from grouped corner pairs.

    A pair survives iff a same-class center keypoint, refined by its
    offsets, lands inside the middle third of the candidate box; the
    highest-scoring such center (ties: smallest row, col) is attached.
    Pairs whose refined corners cross are dropped. The box score is the
    mean of the three keypoint scores.

    The tests run on columns; a `Keypoint` is read only for the three
    keypoints of each detection returned.
    """
    # Each kind's offset map is read (and checked) only when keypoints of
    # that kind exist, so empty inputs never touch a missing or bad map.
    # Centers go in (-score, row, col) order: the first inside a box is its best.
    centers = Keypoints.of(centers)
    rank = np.lexsort((centers.cols, centers.rows, -centers.scores))
    if rank.size:
        cx, cy = _refined(
            centers.rows[rank], centers.cols[rank], offsets[KeypointKind.CENTER], stride
        )
    pairs = CornerPairs.of(pairs)
    if not pairs:
        return []
    tls, brs = pairs.top_lefts, pairs.bottom_rights
    i, j = pairs.tl_index, pairs.br_index
    x1, y1 = _refined(tls.rows[i], tls.cols[i], offsets[KeypointKind.TOP_LEFT], stride)
    x2, y2 = _refined(brs.rows[j], brs.cols[j], offsets[KeypointKind.BOTTOM_RIGHT], stride)
    if not rank.size:
        return []
    third_w = (x2 - x1) / 3.0
    third_h = (y2 - y1) / 3.0
    inside = (
        (tls.class_ids[i][:, None] == centers.class_ids[rank])
        & ((x1 + third_w)[:, None] <= cx)
        & (cx <= (x2 - third_w)[:, None])
        & ((y1 + third_h)[:, None] <= cy)
        & (cy <= (y2 - third_h)[:, None])
    )
    kept = np.flatnonzero(inside.any(axis=1) & (x1 <= x2) & (y1 <= y2))
    best = rank[inside[kept].argmax(axis=1)]

    detections = []
    kept = kept.tolist()
    for p, (tl, br), center in zip(kept, pairs.at(kept), centers.at(best.tolist())):
        score = (tl.score + br.score + center.score) / 3.0
        box = Box2D(x1[p], y1[p], x2[p], y2[p], class_id=tl.class_id, score=score)
        detections.append(
            Detection(
                box=box,
                top_left=tl,
                bottom_right=br,
                center=center,
                tag=0.5 * (tl.tag + br.tag),
            )
        )
    detections.sort(
        key=lambda d: (
            -d.score,
            d.top_left.row,
            d.top_left.col,
            d.bottom_right.row,
            d.bottom_right.col,
            d.class_id,
        )
    )
    return detections


def decode_frame(bundle, peak_cfg=None, group_cfg=None, stride=1, taxonomy=None):
    """Full 2D decode of one frame bundle."""
    peak_cfg = peak_cfg or PeakExtractionConfig()
    group_cfg = group_cfg or GroupingConfig()
    if taxonomy is not None and bundle.num_classes != len(taxonomy):
        raise ConfigurationError(
            f"bundle has {bundle.num_classes} heatmap channels but the taxonomy "
            f"declares {len(taxonomy)} classes"
        )

    top_lefts = extract_peaks(
        bundle.heatmaps[KeypointKind.TOP_LEFT], peak_cfg, KeypointKind.TOP_LEFT
    )
    bottom_rights = extract_peaks(
        bundle.heatmaps[KeypointKind.BOTTOM_RIGHT], peak_cfg, KeypointKind.BOTTOM_RIGHT
    )
    centers = extract_peaks(
        bundle.heatmaps[KeypointKind.CENTER], peak_cfg, KeypointKind.CENTER
    )

    top_lefts = attach_tags(top_lefts, bundle.embeddings[KeypointKind.TOP_LEFT])
    bottom_rights = attach_tags(
        bottom_rights, bundle.embeddings[KeypointKind.BOTTOM_RIGHT]
    )

    pairs = group_corners(top_lefts, bottom_rights, group_cfg)
    return assemble_boxes(pairs, centers, bundle.offsets, stride)


def decode_frame_3d(bundle, camera, peak_cfg=None, group_cfg=None, stride=1, taxonomy=None):
    """2D decode plus the 3D lift; yields (detection, box3d-or-None) pairs.

    The 3D box is None when the bundle carries no 3D head maps.
    """
    detections = decode_frame(bundle, peak_cfg, group_cfg, stride, taxonomy)
    if not bundle.has_aux or camera is None:
        return [(det, None) for det in detections]
    return list(zip(detections, geometry3d.lift_detections(detections, bundle, camera)))
