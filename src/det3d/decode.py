"""Anchor-free inference: heatmaps + embeddings + offsets -> detections.

The pipeline is peak extraction, tag attachment, greedy corner grouping by
tag distance, sub-cell offset refinement, center-validated box assembly,
and the 3D lift. It runs on a batch of frames at once (`decode_frames`),
as "Objects as Points" (Zhou et al. 2019) decodes a (B, C, H, W) batch:
each stage takes one map, or one offset mapping, per frame of its batch,
so its fixed cost is paid once per group of frames; `decode_frame` and
`decode_frame_3d` run the same stages on a batch of one. Every step is
deterministic: all orderings use total sort keys (frame, then score
descending, then row, then col). Keypoints travel between the stages as
column tables (`Keypoints`, `CornerPairs`) that carry each keypoint's
frame: each stage takes the table the stage before it returned, and no
stage compares keypoints of two frames. `Keypoint` objects are built only
for the detections returned.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    Box2D,
    CameraIntrinsics,
    ConfigurationError,
    Det3DError,
    Detection,
    DomainError,
    Keypoint,
    KeypointKind,
    MapRole,
    _batch_shape,
    _joined_cell_tables,
    check_number,
    take_frames,
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
    "Detections",
    "decode_frame",
    "decode_frame_3d",
    "decode_frames",
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

    def __post_init__(self):
        check_number(self, "theta", numbers.Real, "a real number")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise DomainError(f"theta must be finite and positive, got {self.theta}")


class Keypoints:
    """Keypoints of one `kind` held as columns, one entry per keypoint:
    integer `frames` (the keypoint's frame within its batch), `class_ids`,
    `rows` and `cols`, and float64 `scores` and `tags`. Keypoints run in
    frame order, so each frame's are one run.

    Each decode stage takes the columns the stage before it returned and
    reads and tests them as arrays; `at(indices)` builds `Keypoint`s for
    the entries a caller reads.
    """

    __slots__ = ("kind", "frames", "class_ids", "rows", "cols", "scores", "tags")

    def __init__(self, kind, frames, class_ids, rows, cols, scores, tags):
        self.kind = kind
        self.frames = frames
        self.class_ids = class_ids
        self.rows = rows
        self.cols = cols
        self.scores = scores
        self.tags = tags

    def __len__(self):
        return self.frames.size

    def at(self, indices):
        """The `Keypoint`s at the indices, as a list, built from the columns."""
        indices = np.asarray(indices, dtype=np.intp)
        columns = (self.class_ids, self.rows, self.cols, self.scores, self.tags)
        fields = zip(*(column[indices].tolist() for column in columns))
        return [Keypoint(self.kind, *entry) for entry in fields]


class CornerPairs:
    """Grouped corners as columns: keypoint `tl_index[p]` of `top_lefts`
    with keypoint `br_index[p]` of `bottom_rights`, both of one frame.
    `at(indices)` builds the pairs a caller reads."""

    __slots__ = ("top_lefts", "bottom_rights", "tl_index", "br_index")

    def __init__(self, top_lefts, bottom_rights, tl_index, br_index):
        self.top_lefts = top_lefts
        self.bottom_rights = bottom_rights
        self.tl_index = tl_index
        self.br_index = br_index

    def __len__(self):
        return self.tl_index.size

    def at(self, indices):
        """The (top-left, bottom-right) `Keypoint` pairs at the indices, as a list."""
        indices = np.asarray(indices, dtype=np.intp)
        return list(
            zip(self.top_lefts.at(self.tl_index[indices]), self.bottom_rights.at(self.br_index[indices]))
        )


class Detections(list):
    """The detections of a batch, as `assemble_boxes` returns them: a list
    sorted by frame, where `frames[k]` is the frame of detection k."""

    __slots__ = ("frames",)

    def __init__(self, detections=(), frames=()):
        super().__init__(detections)
        self.frames = np.asarray(frames, dtype=np.intp)


def _slots(frames):
    """Each entry's position among the entries of its frame; `frames`
    must be sorted."""
    return np.arange(frames.size) - np.searchsorted(frames, frames)


def _blocks(frames, n_frames, *columns):
    """Per-frame blocks of columns sorted by frame: each column as an
    (n_frames, most entries of a frame) array, entry k at [frames[k], its
    slot], and NaN (or -1 in an integer column) where a frame has fewer."""
    if n_frames == 1:
        return [column[None] for column in columns]
    slots = _slots(frames)
    width = int(slots.max()) + 1 if slots.size else 0
    blocks = []
    for column in columns:
        fill = np.nan if column.dtype.kind == "f" else -1
        block = np.full((n_frames, width), fill, dtype=column.dtype)
        block[frames, slots] = column
        blocks.append(block)
    return blocks


def extract_peaks(heatmaps, cfg, kind):
    """Windowed non-maximum suppression over every channel of a batch of
    heatmaps of one shape, one per frame.

    A cell is a peak iff all three hold, with its nms_window x nms_window
    window clipped to its frame's map:

    - it equals the maximum of its window;
    - it is strictly greater than every window neighbour that comes before
      it in (row, col) order: the window rows above it, and the cells to
      its left in its own row (so a plateau keeps only its first cell);
    - it is at or above score_threshold.

    Each keypoint records its frame (its index in `heatmaps`). Each
    (frame, channel) keeps its first `top_k` peaks by (-score, row, col),
    and the result is sorted by (frame, -score, row, col, channel).

    Each frame takes one of two kernels, which find the same peaks, by a
    rule that reads no other frame: `_cell_peaks` iff the threshold is
    positive, its heatmap is cell-stored, and its own candidates'
    neighbour table fits in H * W * C entries, else `_dense_peaks`. Maps
    must be of the heatmap role, whose values `FeatureMap` keeps in
    [0, 1]; any other role raises ConfigurationError.
    """
    height, width, n_channels = shape = _batch_shape(heatmaps)
    for fmap in heatmaps:
        if fmap.role is not MapRole.HEATMAP:
            raise ConfigurationError(f"peak extraction needs heatmap-role maps, got role {fmap.role.name}")
    tables = [fmap.cell_table if cfg.score_threshold > 0.0 else None for fmap in heatmaps]
    found, dense = [], [f for f, table in enumerate(tables) if table is None]
    if len(dense) < len(heatmaps):
        peaks, too_large = _cell_peaks(*_joined_cell_tables(tables, height * width), shape, cfg)
        found.append(peaks)
        dense += too_large
    for f in dense:
        cells, channels, scores = _dense_peaks(heatmaps[f].data, cfg)
        found.append((np.full(cells.size, f, dtype=np.intp), cells, channels, scores))
    columns = found[0] if len(found) == 1 else [np.concatenate(column) for column in zip(*found)]
    return _ranked_keypoints(kind, width, n_channels, cfg.top_k, *columns)


def _dense_peaks(data, cfg):
    """(cells, channels, scores) of the peaks of a heatmap's (H, W, C)
    array, leaving out only peaks that rank below `top_k` in their
    channel."""
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
    scores = data.reshape(-1)[flat]
    # A peak below its channel's top_k-th best score can never be kept, so
    # it is dropped before any ranking; ties at that score all stay.
    cutoff = np.zeros(n_channels, dtype=scores.dtype)
    for ch in range(n_channels):
        ranked = scores[channels == ch]
        if ranked.size > cfg.top_k:
            cutoff[ch] = np.partition(ranked, -cfg.top_k)[-cfg.top_k]
    survive = scores >= cutoff[channels]
    return cells[survive], channels[survive], scores[survive]


def _cell_peaks(cells, values, shape, cfg):
    """((frames, cells, channels, scores) of the peaks, the frames that
    must go dense) of cell-stored heatmaps of one (H, W, C) shape, given
    as one table: frame f's cells offset by f * H * W. A frame goes dense
    where its candidates' neighbour table would outgrow one map's H * W * C
    values. The rest are tested in blocks of at most H * W * C neighbour
    entries, so memory stays bounded by one map whatever the batch size.
    """
    height, width, n_channels = shape
    plane = height * width
    window = cfg.nms_window

    flat_values = values.reshape(-1)
    flat = np.flatnonzero(flat_values >= cfg.score_threshold)
    index, channels = np.divmod(flat, n_channels)
    cand_cells = cells[index]
    scores = flat_values[flat]
    if window > 1:
        # A candidate that loses to the cell beside it in its row, where
        # the table stores that cell next to it, cannot be a peak. Dropping
        # those first leaves about one candidate per row of a bump for the
        # full window test. A frame's plane is whole rows, so the column
        # test keeps both cells in one frame.
        cols = cand_cells % width
        left = np.maximum(index - 1, 0)
        right = np.minimum(index + 1, cells.size - 1)
        has_left = (cols > 0) & (cells[left] == cand_cells - 1)
        has_right = (cols < width - 1) & (cells[right] == cand_cells + 1)
        lose = has_left & (scores <= values[left, channels])
        lose |= has_right & (scores < values[right, channels])
        channels, cand_cells, scores = channels[~lose], cand_cells[~lose], scores[~lose]
    block = plane * n_channels // max(window * window - 1, 1)  # candidates a block
    too_large = []
    if cand_cells.size > block:  # else every frame's candidates fit
        fits = np.bincount(cand_cells // plane) <= block
        too_large, keep = np.flatnonzero(~fits).tolist(), fits[cand_cells // plane]
        channels, cand_cells, scores = channels[keep], cand_cells[keep], scores[keep]
    peak = np.zeros(cand_cells.size, dtype=bool)
    for start in range(0, cand_cells.size, max(block, 1)):
        k = slice(start, start + block)
        peak[k] = _window_peaks(cells, values, shape, window, cand_cells[k], channels[k], scores[k])
    frames, cand_cells = np.divmod(cand_cells[peak], plane)
    return (frames, cand_cells, channels[peak], scores[peak]), too_large


def _window_peaks(cells, values, shape, window, cand_cells, channels, scores):
    """Which candidates of a joined cell table are peaks, each tested
    against its whole window at once: one row of neighbours per candidate
    in (row, col) order, so the first half come before it."""
    height, width, _ = shape
    margin = (window - 1) // 2
    # A neighbour is read from the table by binary search; an unstored
    # one reads 0.0, and one off its frame's map -inf, so that it never
    # blocks. The on-map mask is built from per-row and per-column tests,
    # so the largest temporaries are the three int64 neighbour tables.
    offsets = np.delete(np.arange(window * window), window * window // 2)
    half = offsets.size // 2
    d_rows, d_cols = np.divmod(offsets, window)
    steps = np.arange(-margin, margin + 1)
    rows, cols = np.divmod(cand_cells % (height * width), width)
    n_rows, n_cols = rows[:, None] + steps, cols[:, None] + steps
    on_map = ((n_rows >= 0) & (n_rows < height))[:, d_rows]
    on_map &= ((n_cols >= 0) & (n_cols < width))[:, d_cols]
    flat = cand_cells[:, None] + ((d_rows - margin) * width + d_cols - margin)
    pos = np.minimum(np.searchsorted(cells, flat), cells.size - 1)
    stored = cells[pos] == flat
    neighbour = values[pos, channels[:, None]]
    np.copyto(neighbour, np.float32(0.0), where=~stored)
    np.copyto(neighbour, np.float32(-np.inf), where=~on_map)
    score = scores[:, None]
    return (score > neighbour[:, :half]).all(axis=1) & (score >= neighbour[:, half:]).all(axis=1)


def _ranked_keypoints(kind, width, n_channels, top_k, frames, cells, channels, scores):
    """Each (frame, channel)'s first `top_k` peaks by (-score, row, col),
    as keypoints sorted by (frame, -score, row, col, channel)."""
    # Flat cell indices run in (row, col) order within a channel. Rank the
    # peaks within their (frame, channel) group and keep the first top_k
    # of each.
    group = frames * n_channels + channels
    order = np.lexsort((cells, -scores, group))
    group_start = np.searchsorted(group[order], group[order])
    order = order[np.arange(order.size) - group_start < top_k]
    order = order[np.lexsort((channels[order], cells[order], -scores[order], frames[order]))]
    rows, cols = np.divmod(cells[order], width)
    return Keypoints(
        kind,
        frames[order],
        channels[order],
        rows,
        cols,
        scores[order].astype(np.float64),
        np.zeros(order.size),
    )


def attach_tags(keypoints, embeddings):
    """Return the `Keypoints` tagged from 1-channel embedding maps, one per
    frame of the keypoints' batch."""
    for fmap in embeddings:
        if fmap.channels != 1:
            raise ConfigurationError(f"embedding map must have 1 channel, got {fmap.channels}")
    frames, rows, cols = keypoints.frames, keypoints.rows, keypoints.cols
    tags = take_frames(embeddings, frames, rows, cols)[:, 0].astype(np.float64)
    return Keypoints(keypoints.kind, frames, keypoints.class_ids, rows, cols, keypoints.scores, tags)


def group_corners(tls, brs, cfg):
    """Greedy best-first corner pairing by ascending tag distance.

    A (top-left i, bottom-right j) candidate is admissible iff both are of
    one frame and one class, |tag_i - tag_j| < theta, tl.row <= br.row
    and tl.col <= br.col. Candidates are visited in ascending (distance,
    i, j) order and a candidate is taken iff neither of its corners was
    taken before. Unmatched keypoints are dropped. Keypoints of two frames
    never meet, so each frame is paired as it would be alone. Takes two
    `Keypoints` and returns `CornerPairs` into them.
    """
    # Candidates are tested in per-frame blocks, (frame, top-left slot,
    # bottom-right slot), so no temporary holds pairs of two frames.
    n_frames = 1 + max([int(kps.frames[-1]) for kps in (tls, brs) if len(kps)], default=0)
    tl = _blocks(tls.frames, n_frames, tls.tags, tls.class_ids, tls.rows, tls.cols)
    br = _blocks(brs.frames, n_frames, brs.tags, brs.class_ids, brs.rows, brs.cols)
    tl_tags, tl_classes, tl_rows, tl_cols = (block[:, :, None] for block in tl)
    br_tags, br_classes, br_rows, br_cols = (block[:, None, :] for block in br)
    # A padded slot's tag is NaN, so no distance to it is below theta.
    distance = np.abs(tl_tags - br_tags)
    admissible = (tl_classes == br_classes) & (distance < cfg.theta)
    admissible &= tl_rows <= br_rows
    admissible &= tl_cols <= br_cols
    # flatnonzero is row-major and frames are sorted, so the candidates
    # run in (i, j) order, and a stable sort on distance alone breaks ties
    # by (i, j).
    _, tl_width, br_width = admissible.shape
    flat = np.flatnonzero(admissible)
    order = np.argsort(distance.reshape(-1)[flat], kind="stable")
    tl_idx, br_idx = np.divmod(flat[order], br_width)  # slots; indices in one frame
    if n_frames > 1:
        frame = tl_idx // tl_width
        frame_ids = np.arange(n_frames)
        tl_idx += (np.searchsorted(tls.frames, frame_ids) - frame_ids * tl_width)[frame]
        br_idx += np.searchsorted(brs.frames, frame_ids)[frame]
    return CornerPairs(tls, brs, *_greedy_walk(tl_idx, br_idx))


def _refined(rows, cols, offsets, stride, frames):
    """Image-pixel (x, y) arrays: ((col + o_x) * stride, (row + o_y) * stride),
    with entry k's o read from `offsets[frames[k]]`, of 2-channel offset
    maps one per frame."""
    for fmap in offsets:
        if fmap.channels != 2:
            raise ConfigurationError(
                f"offset map must have exactly 2 channels (o_x, o_y), got {fmap.channels}"
            )
    o = take_frames(offsets, frames, rows, cols).astype(np.float64)
    return (cols + o[:, 0]) * stride, (rows + o[:, 1]) * stride


def _check_stride(stride):
    if (
        isinstance(stride, bool)
        or not isinstance(stride, numbers.Real)
        or not math.isfinite(stride)
        or int(stride) != stride
        or stride < 1
    ):
        raise DomainError(f"stride must be a positive integer, got {stride!r}")


def assemble_boxes(pairs, centers, offsets, stride):
    """Build center-validated boxes from grouped corner pairs.

    A pair survives iff a same-class center keypoint of its frame, refined
    by its offsets, lands inside the middle third of the candidate box;
    the highest-scoring such center (ties: smallest row, col) is attached.
    Pairs whose refined corners cross are dropped. The box score is the
    mean of the three keypoint scores.

    `offsets` holds one mapping per frame of the keypoints' batch, from
    each keypoint kind to its offset map. `pairs` is `CornerPairs` and
    `centers` is `Keypoints`. Returns `Detections`, sorted by (frame,
    -score, top-left row and col, bottom-right row and col, class). The
    tests run on columns; a `Keypoint` is built only for the three
    keypoints of each detection returned.
    """
    _check_stride(stride)

    def refined(kps, index, kind):
        maps = [frame_offsets[kind] for frame_offsets in offsets]
        return _refined(kps.rows[index], kps.cols[index], maps, stride, kps.frames[index])

    # Each kind's offset map is read (and checked) only when keypoints of
    # that kind exist, so empty inputs never touch a missing or bad map.
    # Centers go in (frame, -score, row, col) order: the first of its
    # frame inside a box is its best.
    rank = np.lexsort((centers.cols, centers.rows, -centers.scores, centers.frames))
    if rank.size:
        cx, cy = refined(centers, rank, KeypointKind.CENTER)
    if not pairs:
        return Detections()
    tls, brs = pairs.top_lefts, pairs.bottom_rights
    # Pairs in frame order, so that each frame's pairs are one block.
    by_frame = np.argsort(tls.frames[pairs.tl_index], kind="stable")
    pairs = CornerPairs(tls, brs, pairs.tl_index[by_frame], pairs.br_index[by_frame])
    i, j = pairs.tl_index, pairs.br_index
    x1, y1 = refined(tls, i, KeypointKind.TOP_LEFT)
    x2, y2 = refined(brs, j, KeypointKind.BOTTOM_RIGHT)
    if not rank.size:
        return Detections()
    third_w = (x2 - x1) / 3.0
    third_h = (y2 - y1) / 3.0
    # Pairs against the centers of their frame, in per-frame blocks
    # (frame, pair slot, center slot); padded slots hold NaN and never
    # test inside.
    frames = tls.frames[i]
    n_frames = max(int(frames[-1]), int(centers.frames[rank[-1]])) + 1
    pair_blocks = _blocks(
        frames, n_frames,
        tls.class_ids[i], x1 + third_w, x2 - third_w, y1 + third_h, y2 - third_h,
    )
    classes, left, right, top, bottom = (block[:, :, None] for block in pair_blocks)
    center_blocks = _blocks(centers.frames[rank], n_frames, centers.class_ids[rank], cx, cy)
    center_classes, cx, cy = (block[:, None, :] for block in center_blocks)
    inside = (classes == center_classes) & (left <= cx) & (cx <= right) & (top <= cy) & (cy <= bottom)
    # Back to one row per pair.
    inside = inside[0] if n_frames == 1 else inside[frames, _slots(frames)]
    kept = np.flatnonzero(inside.any(axis=1) & (x1 <= x2) & (y1 <= y2))
    best = rank[np.searchsorted(centers.frames[rank], frames[kept]) + inside[kept].argmax(axis=1)]

    tl_kept, br_kept = i[kept], j[kept]
    scores = (tls.scores[tl_kept] + brs.scores[br_kept] + centers.scores[best]) / 3.0
    order = np.lexsort((
        tls.class_ids[tl_kept], brs.cols[br_kept], brs.rows[br_kept],
        tls.cols[tl_kept], tls.rows[tl_kept], -scores, frames[kept],
    ))
    kept, best = kept[order].tolist(), best[order].tolist()
    detections = []
    for p, (tl, br), center, score in zip(kept, pairs.at(kept), centers.at(best), scores[order].tolist()):
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
    return Detections(detections, frames[kept])


def _checked(peak_cfg, group_cfg, stride, cameras):
    """The decode configs, defaulted, once stride and cameras pass."""
    _check_stride(stride)
    for camera in cameras:
        if camera is not None and not isinstance(camera, CameraIntrinsics):
            raise DomainError(f"camera must be a CameraIntrinsics or None, got {camera!r}")
    return peak_cfg or PeakExtractionConfig(), group_cfg or GroupingConfig()


def _decode_2d(bundles, peak_cfg, group_cfg, stride):
    """The 2D decode of a batch of frame bundles of one map shape."""

    def maps(field, kind):
        return [getattr(bundle, field)[kind] for bundle in bundles]

    TL, BR, CENTER = KeypointKind.TOP_LEFT, KeypointKind.BOTTOM_RIGHT, KeypointKind.CENTER
    top_lefts = extract_peaks(maps("heatmaps", TL), peak_cfg, TL)
    bottom_rights = extract_peaks(maps("heatmaps", BR), peak_cfg, BR)
    centers = extract_peaks(maps("heatmaps", CENTER), peak_cfg, CENTER)

    top_lefts = attach_tags(top_lefts, maps("embeddings", TL))
    bottom_rights = attach_tags(bottom_rights, maps("embeddings", BR))

    pairs = group_corners(top_lefts, bottom_rights, group_cfg)
    return assemble_boxes(pairs, centers, [bundle.offsets for bundle in bundles], stride)


def decode_frame(bundle, peak_cfg=None, group_cfg=None, stride=1, taxonomy=None):
    """Full 2D decode of one frame bundle: `decode_frames` on a batch of
    one without a camera. Raises the frame's error."""
    outcomes = decode_frames([bundle], [None], peak_cfg, group_cfg, stride, taxonomy)
    if isinstance(outcomes[0], Det3DError):
        raise outcomes.pop()
    return [det for det, _ in outcomes[0]]


def decode_frame_3d(bundle, camera, peak_cfg=None, group_cfg=None, stride=1, taxonomy=None):
    """2D decode plus the 3D lift of one frame; yields (detection,
    box3d-or-None) pairs, as `decode_frames` gives a batch of one.

    The 3D box is None when the bundle carries no 3D head maps or the
    camera is None. The frame's first error is raised.
    """
    peak_cfg, group_cfg = _checked(peak_cfg, group_cfg, stride, (camera,))
    detections = decode_frame(bundle, peak_cfg, group_cfg, stride, taxonomy)
    if camera is None or not bundle.has_aux:
        return [(det, None) for det in detections]
    return list(zip(detections, geometry3d.lift_detections(detections, bundle, camera)))


def decode_frames(bundles, cameras, peak_cfg=None, group_cfg=None, stride=1, taxonomy=None):
    """Decode a batch of frames: 2D detections plus the 3D lift, with
    `cameras[f]` the camera of `bundles[f]` (None for no lift).

    Returns one entry per frame, in order: the frame's list of
    (detection, box3d-or-None) pairs, equal to what `decode_frame_3d`
    gives for that frame alone, or the Det3DError that call raises.

    Each frame is decoded once. The frames are grouped by whether they
    lift (they have a camera and 3D head maps) and by the shapes of all
    their maps, and each group decodes together: each stage runs once on
    all of its frames (`extract_peaks` once per keypoint kind, one
    grouping, one assembly), so a stage's fixed cost is paid once per
    group. A lifting group then goes to `geometry3d.lift_frames` whole,
    with one camera row per detection; a 2D group never enters the lift.
    A frame whose heatmap channels do not match the taxonomy's classes,
    or whose lift fails, gets its error as its outcome, and the other
    frames of its group keep theirs. The stride and the cameras are
    checked first, whatever the frames hold.
    """
    bundles, cameras = list(bundles), list(cameras)
    peak_cfg, group_cfg = _checked(peak_cfg, group_cfg, stride, cameras)
    if len(cameras) != len(bundles):
        raise ConfigurationError(f"{len(cameras)} cameras for {len(bundles)} bundles")
    outcomes, groups = [[] for _ in bundles], {}
    for f, bundle in enumerate(bundles):
        if taxonomy is not None and bundle.num_classes != len(taxonomy):
            outcomes[f] = ConfigurationError(
                f"bundle has {bundle.num_classes} heatmap channels but the taxonomy "
                f"declares {len(taxonomy)} classes"
            )
        else:
            lifts = cameras[f] is not None and bundle.has_aux
            groups.setdefault((lifts, tuple(fmap.shape for fmap in bundle.maps())), []).append(f)
    for (lifts, _), group in groups.items():
        members = [bundles[f] for f in group]
        detections = _decode_2d(members, peak_cfg, group_cfg, stride)
        boxes, errors = [None] * len(detections), {}
        if lifts:
            boxes, errors = geometry3d.lift_frames(
                detections, detections.frames, members, [cameras[f] for f in group]
            )
        for g, det, box in zip(detections.frames.tolist(), detections, boxes):
            outcomes[group[g]].append((det, box))
        for g, error in errors.items():
            outcomes[group[g]] = error
    return outcomes
