"""Independent reference implementations used to cross-check the library.

These stay deliberately naive (per-cell ray walks, O(n^2) envelope scans)
so they share no code path with the implementations they verify.
"""

import math
from dataclasses import replace

import numpy as np

from det3d.core import (
    BehindCameraError,
    Box2D,
    Box3D,
    ConfigurationError,
    DegenerateProjectionError,
    RangeError,
    normalize_angle,
)
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


def lift_oracle(detections, bundle, camera):
    """Per-detection 3D lift, one box at a time with its own 3x3 and 8x4
    matmuls: bounds-checked head reads, exp log-depth, the first
    highest-confidence multibin bin plus its atan2 residual, the box-center
    ray at that depth, and one image-plane correction of the projected hull.

    Returns one Box3D per detection; raises the first detection's error.
    """
    return [_lift_one(det, bundle, camera) for det in detections]


def _lift_one(det, bundle, camera):
    if not bundle.has_aux:
        raise ConfigurationError("bundle carries no 3D head maps")
    row, col = det.center.row, det.center.col
    raw = bundle.aux_depth.get(row, col, 0)
    try:
        z = math.exp(raw)
    except OverflowError:
        raise RangeError(f"depth overflows for raw value {raw}") from None
    if not math.isfinite(z) or z <= 0.0:
        raise RangeError(f"decoded depth {z} is not a positive finite value")
    dims = tuple(bundle.aux_dims.get(row, col, i) for i in range(3))

    n_bins = bundle.aux_orientation.channels // 9
    step = 360.0 / n_bins
    centers = [-180.0 + (i + 0.5) * step for i in range(n_bins)]
    angles = []
    for angle_idx in range(3):
        values = [
            [bundle.aux_orientation.get(row, col, angle_idx * 3 * n_bins + 3 * i + j) for j in range(3)]
            for i in range(n_bins)
        ]
        best = int(np.argmax(np.array([v[0] for v in values])))
        _, cos_delta, sin_delta = values[best]
        angles.append(
            normalize_angle(centers[best] + math.degrees(math.atan2(sin_delta, cos_delta)))
        )

    u_c, v_c = det.box.center
    p = camera.p
    a00 = p[0, 0] - u_c * p[2, 0]
    a01 = p[0, 1] - u_c * p[2, 1]
    a10 = p[1, 0] - v_c * p[2, 0]
    a11 = p[1, 1] - v_c * p[2, 1]
    b0 = u_c * (p[2, 2] * z + p[2, 3]) - (p[0, 2] * z + p[0, 3])
    b1 = v_c * (p[2, 2] * z + p[2, 3]) - (p[1, 2] * z + p[1, 3])
    det_a = a00 * a11 - a01 * a10
    if det_a == 0.0:
        raise DegenerateProjectionError("projection matrix is rank-deficient in (x, y)")
    x = (b0 * a11 - b1 * a01) / det_a
    y = (a00 * b1 - a10 * b0) / det_a
    box = Box3D(
        center=(x, y, z), dims=dims, orientation=tuple(angles),
        class_id=det.box.class_id, score=det.box.score,
    )

    w, h, l = box.dims
    signs = np.array([[1.0 if k & m else -1.0 for m in (4, 2, 1)] for k in range(8)])
    local = signs * (0.5 * np.array([w, h, l]))
    azimuth, elevation, roll = (math.radians(a) for a in box.orientation)
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    ce, se = math.cos(elevation), math.sin(elevation)
    cr, sr = math.cos(roll), math.sin(roll)
    ry = np.array([[ca, 0.0, sa], [0.0, 1.0, 0.0], [-sa, 0.0, ca]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ce, -se], [0.0, se, ce]])
    rz = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    corners = local @ (rz @ rx @ ry).T + np.asarray(box.center)
    if np.any(corners[:, 2] <= 0.0):
        raise BehindCameraError(
            f"box at {box.center} has corners behind the camera (min z = {corners[:, 2].min():g})"
        )
    hom = np.column_stack([corners, np.ones(8)]) @ p.T
    if np.any(hom[:, 2] == 0.0):
        raise DegenerateProjectionError("a corner projected to zero homogeneous scale")
    u = hom[:, 0] / hom[:, 2]
    v = hom[:, 1] / hom[:, 2]
    hull = Box2D(
        float(u.min()), float(v.min()), float(u.max()), float(v.max()),
        class_id=box.class_id, score=box.score,
    )
    u_h, v_h = hull.center
    dx = (u_c - u_h) * z / camera.fx
    dy = (v_c - v_h) * z / camera.fy
    return replace(box, center=(x + dx, y + dy, z))
