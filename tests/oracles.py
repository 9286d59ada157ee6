"""Independent reference implementations used to cross-check the library.

These stay deliberately naive (per-cell ray walks, O(n^2) envelope scans)
so they share no code path with the implementations they verify.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from det3d.core import (
    BehindCameraError,
    Box2D,
    Box3D,
    CameraIntrinsics,
    ClassTaxonomy,
    ConfigurationError,
    DegenerateProjectionError,
    Detection,
    GenerationError,
    KeypointKind,
    RangeError,
    normalize_angle,
)
from det3d.pooling import Axis, PoolingDirection, Sense
from det3d.synthgen import DIMENSION_PRIORS


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


def assembly_oracle(pairs, centers, offsets, stride):
    """The seed's scalar box assembly, one pair and one center at a time.

    Each keypoint is refined to ((col + o_x) * stride, (row + o_y) * stride)
    from its kind's offset map. A pair whose refined corners cross is
    dropped; otherwise the same-class center with the smallest
    (-score, row, col), first in input order on a tie, among those inside
    the box's middle third is attached, and a pair with no such center is
    dropped. Detections are sorted by (-score, tl row, tl col, br row,
    br col, class).
    """

    def refine(keypoint):
        plane = offsets[keypoint.kind]
        o_x = plane.get(keypoint.row, keypoint.col, 0)
        o_y = plane.get(keypoint.row, keypoint.col, 1)
        return (keypoint.col + o_x) * stride, (keypoint.row + o_y) * stride

    refined_centers = [(center, refine(center)) for center in centers]
    detections = []
    for tl, br in pairs:
        x1, y1 = refine(tl)
        x2, y2 = refine(br)
        if x1 > x2 or y1 > y2:
            continue
        third_w = (x2 - x1) / 3.0
        third_h = (y2 - y1) / 3.0
        best = None
        for center, (cx, cy) in refined_centers:
            if center.class_id != tl.class_id:
                continue
            if not (x1 + third_w <= cx <= x2 - third_w and y1 + third_h <= cy <= y2 - third_h):
                continue
            key = (-center.score, center.row, center.col)
            if best is None or key < (-best.score, best.row, best.col):
                best = center
        if best is None:
            continue
        score = (tl.score + br.score + best.score) / 3.0
        box = Box2D(x1, y1, x2, y2, class_id=tl.class_id, score=score)
        detections.append(
            Detection(box=box, top_left=tl, bottom_right=br, center=best, tag=0.5 * (tl.tag + br.tag))
        )
    detections.sort(
        key=lambda d: (
            -d.box.score,
            d.top_left.row,
            d.top_left.col,
            d.bottom_right.row,
            d.bottom_right.col,
            d.box.class_id,
        )
    )
    return detections


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
    # Python floats: the same IEEE operations as numpy scalars, but an
    # overflow gives inf without a RuntimeWarning.
    p = camera.p.tolist()
    a00 = p[0][0] - u_c * p[2][0]
    a01 = p[0][1] - u_c * p[2][1]
    a10 = p[1][0] - v_c * p[2][0]
    a11 = p[1][1] - v_c * p[2][1]
    b0 = u_c * (p[2][2] * z + p[2][3]) - (p[0][2] * z + p[0][3])
    b1 = v_c * (p[2][2] * z + p[2][3]) - (p[1][2] * z + p[1][3])
    det_a = a00 * a11 - a01 * a10
    if det_a == 0.0:
        raise DegenerateProjectionError("projection matrix is rank-deficient in (x, y)")
    x = (b0 * a11 - b1 * a01) / det_a
    y = (a00 * b1 - a10 * b0) / det_a
    box = Box3D(
        center=(x, y, z), dims=dims, orientation=tuple(angles),
        class_id=det.box.class_id, score=det.box.score,
    )
    u_h, v_h = hull_oracle(camera, box).center
    dx = (u_c - u_h) * z / camera.fx
    dy = (v_c - v_h) * z / camera.fy
    return replace(box, center=(x + dx, y + dy, z))


def hull_oracle(camera, box):
    """The 2D hull of one box's 8 corners, from its own 3x3 rotation and
    8x4 projection matmuls; raises on a corner behind the camera or at
    zero homogeneous scale."""
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
    hom = np.column_stack([corners, np.ones(8)]) @ camera.p.T
    if np.any(hom[:, 2] == 0.0):
        raise DegenerateProjectionError("a corner projected to zero homogeneous scale")
    u = hom[:, 0] / hom[:, 2]
    v = hom[:, 1] / hom[:, 2]
    return Box2D(
        float(u.min()), float(v.min()), float(u.max()), float(v.max()),
        class_id=box.class_id, score=box.score,
    )


def scene_oracle(point, rng_seed, n_objects=1, image_size=(320, 240), focal=260.0,
                 max_attempts=200, variant=0):
    """The seed's sequential placement with the default taxonomy: per
    attempt, scalar draws of z, dims and the three angles, then x and y
    unless the near face or the x/y reach rules the attempt out; the
    candidate's hull from `hull_oracle`; and `iou_bruteforce` against every
    placed hull.

    Returns (objects, boxes2d, rejections), where `rejections` counts the
    attempts ruled out for each reason ("near", "reach", "image",
    "overlap"). Raises the GenerationError `generate_scene` gives.
    """
    taxonomy = ClassTaxonomy.default()
    width, height = image_size
    camera = CameraIntrinsics.simple(focal, width / 2.0, height / 2.0)
    rng = np.random.default_rng([int(rng_seed), point.index, int(variant)])
    class_id = next(
        i for i, name in enumerate(taxonomy.names)
        if taxonomy.supercategory(name) is point.super_category
    )
    prior = np.asarray(DIMENSION_PRIORS[point.super_category])
    objects, boxes2d = [], []
    rejections = Counter()
    for index in range(n_objects):
        for _ in range(max_attempts):
            z = point.camera_distance * float(rng.uniform(0.9, 1.1))
            dims = prior * rng.uniform(0.85, 1.15, size=3)
            angles = tuple(float(rng.uniform(-a, a)) for a in (180.0, 15.0, 10.0))
            half_diag = 0.5 * float(np.linalg.norm(dims))
            near = z - half_diag
            if near <= 0.1:
                rejections["near"] += 1
                continue
            x_reach = (width / 2.0 - 2.0) * near / focal - half_diag
            y_reach = (height / 2.0 - 2.0) * near / focal - half_diag
            if x_reach <= 0.0 or y_reach <= 0.0:
                rejections["reach"] += 1
                continue
            x = float(rng.uniform(-x_reach, x_reach))
            y = float(rng.uniform(-y_reach, y_reach))
            box = Box3D(center=(x, y, z), dims=tuple(float(d) for d in dims),
                        orientation=angles, class_id=class_id, score=1.0)
            hull = hull_oracle(camera, box)
            if hull.x_min < 0 or hull.y_min < 0 or hull.x_max > width - 1 or hull.y_max > height - 1:
                rejections["image"] += 1
            elif any(iou_bruteforce(hull, other) >= 0.1 for other in boxes2d):
                rejections["overlap"] += 1
            else:
                objects.append(box)
                boxes2d.append(hull)
                break
        else:
            raise GenerationError(
                f"could not place object {index} after {max_attempts} attempts "
                f"at sweep point {point.index} "
                f"({point.category.value}/{point.super_category.value}, "
                f"distance {point.camera_distance:g} m)"
            )
    return tuple(objects), tuple(boxes2d), rejections


def heatmap_oracle(sample, stride=1, sigma=1.5):
    """The seed's heatmaps of a scene: for each object's TL, BR and center
    keypoint, a float64 gaussian bump of `sigma` cells at every cell within
    max(1, ceil(3 sigma)) of the keypoint's cell, one np.exp per cell,
    max-combined into a float32 (H, W, classes) plane per kind."""
    img_w, img_h = sample.image_size
    height = math.ceil(img_h / stride)
    width = math.ceil(img_w / stride)
    radius = max(1, math.ceil(3.0 * sigma))
    heat = {kind: np.zeros((height, width, len(sample.taxonomy)), np.float32) for kind in KeypointKind}
    for box3d, box2d in zip(sample.objects, sample.boxes2d):
        anchors = (
            (KeypointKind.TOP_LEFT, box2d.x_min, box2d.y_min),
            (KeypointKind.BOTTOM_RIGHT, box2d.x_max, box2d.y_max),
            (
                KeypointKind.CENTER,
                0.5 * (box2d.x_min + box2d.x_max),
                0.5 * (box2d.y_min + box2d.y_max),
            ),
        )
        for kind, px, py in anchors:
            row, col = math.floor(py / stride), math.floor(px / stride)
            plane = heat[kind]
            for r in range(max(0, row - radius), min(height, row + radius + 1)):
                for c in range(max(0, col - radius), min(width, col + radius + 1)):
                    bump = np.exp(-((r - row) ** 2 + (c - col) ** 2) / (2.0 * sigma * sigma))
                    plane[r, c, box3d.class_id] = max(float(plane[r, c, box3d.class_id]), bump)
    return heat


_MASK64 = (1 << 64) - 1


def keyed_uniforms_oracle(key, index):
    """(u1, u2) of value `index` under `key`, in pure Python ints: outputs
    2i and 2i+1 of the splitmix64 stream seeded with `key` (output n mixes
    key + (n + 1) * 0x9E3779B97F4A7C15), each cut to its top 53 bits;
    u1 = (bits + 1) / 2**53 and u2 = bits / 2**53."""
    key, index = int(key), int(index)

    def output(n):
        z = (key + (n + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    return ((output(2 * index) >> 11) + 1) / 2**53, (output(2 * index + 1) >> 11) / 2**53


def keyed_normal_oracle(key, index):
    """Box-Muller on `keyed_uniforms_oracle`, through `math`."""
    u1, u2 = keyed_uniforms_oracle(key, index)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def corrupt_oracle(bundle, noise_level, rng_seed, cells):
    """The noise of `corrupt_maps`. Heatmaps: each map's dense values in
    float64 plus one `normal(0, noise_level)` draw of the map's full
    shape, kinds in enum order, clipped to [0, 1]. Then one uint64 key per
    embedding map (tl, br) and offset map (tl, br, center), drawn by one
    `integers` call of the same generator. The value at (row, col,
    channel) of such a map is its base value plus sigma times the keyed
    normal of index (row * W + col) * C + channel, rounded to float32;
    embeddings take sigma = noise_level / 10, offsets noise_level.
    Returns {"heatmaps": {kind: (H, W, C) float32 array}, "embeddings":
    {kind: (n, C) float32 values at `cells`}, "offsets": likewise}, where
    `cells` lists (row, col) pairs."""
    rng = np.random.default_rng(rng_seed)
    out = {"heatmaps": {}, "embeddings": {}, "offsets": {}}
    for kind in KeypointKind:
        fmap = bundle.heatmaps[kind]
        data = fmap.data.astype(np.float64) + rng.normal(0.0, noise_level, size=fmap.shape)
        out["heatmaps"][kind] = np.clip(data, 0.0, 1.0).astype(np.float32)
    noised = [
        (group, kind, sigma)
        for group, sigma in (("embeddings", noise_level / 10.0), ("offsets", noise_level))
        for kind in KeypointKind
        if kind in getattr(bundle, group)
    ]
    keys = rng.integers(2**64 - 1, size=len(noised), dtype=np.uint64, endpoint=True)
    for (group, kind, sigma), key in zip(noised, keys):
        fmap = getattr(bundle, group)[kind]
        base, width, channels = fmap.data, fmap.width, fmap.channels
        out[group][kind] = np.array([
            [
                float(base[row, col, ch])
                + sigma * keyed_normal_oracle(int(key), (row * width + col) * channels + ch)
                for ch in range(channels)
            ]
            for row, col in cells
        ], dtype=np.float32).reshape(len(cells), channels)
    return out


def _multibin_oracle(angle, n_bins):
    """(confidence, cos, sin) per bin, flattened: confidence 1 at the first
    circularly nearest of n evenly spaced bin centers, 0 elsewhere; every
    bin stores the cos and sin of its own residual."""
    step = 360.0 / n_bins
    centers = [-180.0 + (i + 0.5) * step for i in range(n_bins)]
    best, best_gap = 0, math.inf
    for i, center in enumerate(centers):
        gap = abs(normalize_angle(angle - center))
        if gap < best_gap:
            best, best_gap = i, gap
    out = []
    for i, center in enumerate(centers):
        delta = math.radians(angle - center)
        out += [1.0 if i == best else 0.0, math.cos(delta), math.sin(delta)]
    return out


def render_oracle(sample, stride=1, orientation_bins=4):
    """The seed's dense offset, embedding and 3D head maps of a scene,
    filled cell by cell in object order (a later object overwrites an
    earlier one's cell). Returns {"offsets": {kind: array}, "embeddings":
    {kind: array}, "aux_depth": array, "aux_dims": array,
    "aux_orientation": array}, every array (H, W, C) float32."""
    img_w, img_h = sample.image_size
    height = math.ceil(img_h / stride)
    width = math.ceil(img_w / stride)
    offsets = {kind: np.zeros((height, width, 2), np.float32) for kind in KeypointKind}
    embeddings = {
        kind: np.zeros((height, width, 1), np.float32)
        for kind in (KeypointKind.TOP_LEFT, KeypointKind.BOTTOM_RIGHT)
    }
    depth = np.zeros((height, width, 1), np.float32)
    dims = np.zeros((height, width, 3), np.float32)
    orientation = np.zeros((height, width, 9 * orientation_bins), np.float32)
    for index, (box3d, box2d) in enumerate(zip(sample.objects, sample.boxes2d)):
        anchors = (
            (KeypointKind.TOP_LEFT, box2d.x_min, box2d.y_min),
            (KeypointKind.BOTTOM_RIGHT, box2d.x_max, box2d.y_max),
            (
                KeypointKind.CENTER,
                0.5 * (box2d.x_min + box2d.x_max),
                0.5 * (box2d.y_min + box2d.y_max),
            ),
        )
        for kind, px, py in anchors:
            col = math.floor(px / stride)
            row = math.floor(py / stride)
            offsets[kind][row, col, 0] = px / stride - col
            offsets[kind][row, col, 1] = py / stride - row
            if kind in embeddings:
                embeddings[kind][row, col, 0] = index + 1
                continue
            depth[row, col, 0] = math.log(box3d.center[2])
            for channel, value in enumerate(box3d.dims):
                dims[row, col, channel] = value
            values = [
                v for angle in box3d.orientation for v in _multibin_oracle(angle, orientation_bins)
            ]
            for channel, value in enumerate(values):
                orientation[row, col, channel] = value
    return {
        "offsets": offsets,
        "embeddings": embeddings,
        "aux_depth": depth,
        "aux_dims": dims,
        "aux_orientation": orientation,
    }


def _greedy_pairs_oracle(dets, truths, threshold):
    """Seed greedy matcher: detections in stable descending-score order,
    each taking the first unmatched truth of highest IoU >= threshold.
    `dets` holds (box, score); returns (det, truth) pairs in match order."""
    order = sorted(range(len(dets)), key=lambda k: -dets[k][1])
    matched = [False] * len(truths)
    pairs = []
    for k in order:
        best_iou, best_j = 0.0, -1
        for j, truth in enumerate(truths):
            if matched[j]:
                continue
            overlap = iou_bruteforce(dets[k][0], truth)
            if overlap >= threshold and overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_j >= 0:
            matched[best_j] = True
            pairs.append((k, best_j))
    return pairs


def _diou_loss_oracle(a, b):
    acx, acy = 0.5 * (a.x_min + a.x_max), 0.5 * (a.y_min + a.y_max)
    bcx, bcy = 0.5 * (b.x_min + b.x_max), 0.5 * (b.y_min + b.y_max)
    rho_sq = (acx - bcx) ** 2 + (acy - bcy) ** 2
    enclose_w = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    enclose_h = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    diag_sq = enclose_w**2 + enclose_h**2
    base = iou_bruteforce(a, b)
    return 1.0 - (base if diag_sq == 0.0 else base - rho_sq / diag_sq)


def _integrate_oracle(recalls, precisions, eleven_point):
    if eleven_point:
        total = 0.0
        for step in range(11):
            level = step / 10.0
            total += max([p for r, p in zip(recalls, precisions) if r >= level], default=0.0)
        return total / 11.0
    ap = 0.0
    prev = 0.0
    for i, recall in enumerate(recalls):
        if recall > prev:
            ap += (recall - prev) * max(precisions[i:])
            prev = recall
    return ap


def evaluate_oracle(preds_by_frame, truths_by_frame, threshold, eleven_point=False, super_map=None):
    """The seed's report assembly over its scalar greedy matcher, as the
    dict `EvalReport.to_dict()` gives: per-class AP from detections pooled
    across frames in (-score, pool order) rank, each matching only in its
    own frame; a class-agnostic confusion matrix; the mean DIoU loss and
    the scale-invariant depth error over the class-agnostic pairs."""
    frame_ids = sorted(truths_by_frame)
    labels = sorted(
        {item.label for frame in truths_by_frame.values() for item in frame}
        | {item.label for frame in preds_by_frame.values() for item in frame}
    )

    per_class_ap = {}
    for label in labels:
        pool = []  # (score, pool order, frame, box)
        truths = {}
        for fid in frame_ids:
            truths[fid] = [item.box for item in truths_by_frame[fid] if item.label == label]
            for item in preds_by_frame[fid]:
                if item.label == label:
                    pool.append((item.box.score, len(pool), fid, item.box))
        n_truth = sum(len(boxes) for boxes in truths.values())
        if not pool and n_truth == 0:
            continue
        if not pool or n_truth == 0:
            per_class_ap[label] = 0.0
            continue
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        matched = {fid: [False] * len(truths[fid]) for fid in frame_ids}
        recalls, precisions, tp = [], [], 0
        for rank, (_, _, fid, det_box) in enumerate(pool, start=1):
            best_iou, best_j = 0.0, -1
            for j, truth in enumerate(truths[fid]):
                if not matched[fid][j]:
                    overlap = iou_bruteforce(det_box, truth)
                    if overlap >= threshold and overlap > best_iou:
                        best_iou, best_j = overlap, j
            if best_j >= 0:
                matched[fid][best_j] = True
                tp += 1
            recalls.append(tp / n_truth)
            precisions.append(tp / rank)
        per_class_ap[label] = _integrate_oracle(recalls, precisions, eleven_point)

    index = {label: i for i, label in enumerate(labels)}
    background = len(labels)
    counts = [[0] * (background + 1) for _ in range(background + 1)]
    losses, truth_depths, pred_depths = [], [], []
    for fid in frame_ids:
        preds = list(preds_by_frame[fid])
        truths = list(truths_by_frame[fid])
        pairs = _greedy_pairs_oracle(
            [(item.box, item.box.score) for item in preds], [item.box for item in truths], threshold
        )
        for k, j in pairs:
            counts[index[truths[j].label]][index[preds[k].label]] += 1
            losses.append(_diou_loss_oracle(preds[k].box, truths[j].box))
            if truths[j].depth is not None and preds[k].depth is not None:
                truth_depths.append(truths[j].depth)
                pred_depths.append(preds[k].depth)
        for j in set(range(len(truths))) - {j for _, j in pairs}:
            counts[index[truths[j].label]][background] += 1
        for k in set(range(len(preds))) - {k for k, _ in pairs}:
            counts[background][index[preds[k].label]] += 1

    sie = None
    if truth_depths:
        residual = np.log(np.array(truth_depths)) - np.log(np.array(pred_depths))
        sie = float(np.mean((residual - residual.mean()) ** 2))
    values = list(per_class_ap.values())
    out = {
        "per_class_ap": per_class_ap,
        "map": sum(values) / len(values) if values else 0.0,
        "confusion": {"labels": labels + ["background"], "counts": counts},
        "sie": sie,
        "mean_diou_loss": sum(losses) / len(losses) if losses else None,
    }
    if super_map is not None:
        groups = {}
        for label, ap in per_class_ap.items():
            if super_map.get(label) is not None:
                groups.setdefault(str(super_map[label]), []).append(ap)
        if groups:
            out["per_super_map"] = {name: sum(v) / len(v) for name, v in sorted(groups.items())}
    return out
