"""Independent reference implementations used to cross-check the library.

These stay deliberately naive (per-cell ray walks, O(n^2) envelope scans)
so they share no code path with the implementations they verify.
"""

import numpy as np

from det3d.pooling import Axis, PoolingDirection, Sense


def ray_max_oracle(plane, direction):
    """O(H*W*max(H,W)) per-cell directional ray walk."""
    h, w = plane.shape
    out = np.empty_like(plane)
    dr, dc = {
        (Axis.HORIZONTAL, Sense.TOWARD_INCREASING): (0, 1),
        (Axis.HORIZONTAL, Sense.TOWARD_DECREASING): (0, -1),
        (Axis.VERTICAL, Sense.TOWARD_INCREASING): (1, 0),
        (Axis.VERTICAL, Sense.TOWARD_DECREASING): (-1, 0),
    }[(direction.axis, direction.sense)]
    for r in range(h):
        for c in range(w):
            best = plane[r, c]
            rr, cc = r + dr, c + dc
            while 0 <= rr < h and 0 <= cc < w:
                if plane[rr, cc] > best:
                    best = plane[rr, cc]
                rr += dr
                cc += dc
            out[r, c] = best
    return out


def center_pool_oracle(plane):
    h, w = plane.shape
    out = np.empty_like(plane)
    for r in range(h):
        for c in range(w):
            out[r, c] = max(plane[r, :]) + max(plane[:, c])
    return out


def cascade_oracle(plane, toward_increasing):
    sense = Sense.TOWARD_INCREASING if toward_increasing else Sense.TOWARD_DECREASING
    horizontal = ray_max_oracle(plane, PoolingDirection(Axis.HORIZONTAL, sense))
    vertical = ray_max_oracle(horizontal, PoolingDirection(Axis.VERTICAL, sense))
    return vertical + horizontal


def iou_bruteforce(a, b):
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    union = (a.x_max - a.x_min) * (a.y_max - a.y_min) + (b.x_max - b.x_min) * (
        b.y_max - b.y_min
    ) - inter
    return 0.0 if union <= 0.0 else inter / union


def ap_bruteforce(dets, truths, threshold):
    """Reference AP: naive greedy matching plus per-step envelope scans."""
    if not dets and not truths:
        return None
    if not dets or not truths:
        return 0.0
    order = sorted(range(len(dets)), key=lambda k: -dets[k][1])
    remaining = list(range(len(truths)))
    hits = []
    for k in order:
        candidate = None
        candidate_iou = 0.0
        for j in remaining:
            overlap = iou_bruteforce(dets[k][0], truths[j])
            if overlap >= threshold and overlap > candidate_iou:
                candidate, candidate_iou = j, overlap
        if candidate is not None:
            remaining.remove(candidate)
            hits.append(1)
        else:
            hits.append(0)
    points = []
    tp = 0
    for rank, hit in enumerate(hits, start=1):
        tp += hit
        points.append((tp / len(truths), tp / rank))
    ap = 0.0
    prev = 0.0
    for i, (recall, _) in enumerate(points):
        if recall > prev:
            envelope = max(p for _, p in points[i:])
            ap += (recall - prev) * envelope
            prev = recall
    return ap


def peaks_oracle(data, threshold, window, top_k):
    """Per-cell brute-force windowed NMS over an (H, W, C) heatmap array.

    A cell is a peak iff it is at or above the threshold and is the first
    maximum, in (row, col) order, of its window clipped to the map. Each
    channel keeps its `top_k` best peaks by (-score, row, col). Returns
    (row, col, channel, score) tuples sorted by (-score, row, col, channel).
    """
    h, w, channels = data.shape
    margin = (window - 1) // 2
    found = []
    for ch in range(channels):
        kept = []
        for r in range(h):
            for c in range(w):
                value = data[r, c, ch]
                if value < threshold:
                    continue
                first_max = True
                for rr in range(max(0, r - margin), min(h, r + margin + 1)):
                    for cc in range(max(0, c - margin), min(w, c + margin + 1)):
                        other = data[rr, cc, ch]
                        if other > value or (other == value and (rr, cc) < (r, c)):
                            first_max = False
                if first_max:
                    kept.append((-float(value), r, c))
        kept.sort()
        found.extend((neg, r, c, ch) for neg, r, c in kept[:top_k])
    found.sort()
    return [(r, c, ch, -neg) for neg, r, c, ch in found]


def grouping_oracle(top_lefts, bottom_rights, theta, geometric_gate):
    """Naive greedy pairing: repeatedly take the admissible unused pair with
    the smallest (tag distance, tl index, br index) until none is left.

    Returns (tl index, br index) pairs in the order they were taken.
    """
    used_tl = set()
    used_br = set()
    pairs = []
    while True:
        best = None
        for i, tl in enumerate(top_lefts):
            if i in used_tl:
                continue
            for j, br in enumerate(bottom_rights):
                if j in used_br or tl.class_id != br.class_id:
                    continue
                if geometric_gate and (tl.row > br.row or tl.col > br.col):
                    continue
                distance = abs(tl.tag - br.tag)
                if distance < theta and (best is None or (distance, i, j) < best):
                    best = (distance, i, j)
        if best is None:
            return pairs
        used_tl.add(best[1])
        used_br.add(best[2])
        pairs.append((best[1], best[2]))
