"""Lifting validated 2D detections to full 3D boxes.

Covers log-depth decoding, multibin orientation decoding, pinhole
projection/back-projection, 3D box corner generation, and recovery of
the 3D center constrained by the 2D box.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BehindCameraError,
    Box2D,
    Box3D,
    ConfigurationError,
    DegenerateProjectionError,
    Det3DError,
    DomainError,
    RangeError,
    ShapeError,
    normalize_angle,
    take_frames,
)

__all__ = [
    "MultiBinOutput",
    "uniform_bin_centers",
    "encode_multibin",
    "decode_multibin",
    "decode_depth",
    "project_point",
    "back_project_point",
    "project_box3d",
    "fit_center_from_2d",
    "lift_detection",
    "lift_detections",
    "lift_frames",
]


@dataclass(frozen=True)
class MultiBinOutput:
    """Per-angle network head: N bins of (confidence, cos delta, sin delta)
    plus the fixed bin-center angles in degrees."""

    bins: tuple
    bin_centers: tuple

    def __post_init__(self):
        bins = tuple((float(c), float(cd), float(sd)) for c, cd, sd in self.bins)
        centers = tuple(float(a) for a in self.bin_centers)
        if len(bins) < 1 or len(bins) != len(centers):
            raise ShapeError(
                f"need N >= 1 bins with matching centers, got {len(bins)} and {len(centers)}"
            )
        for angle in centers:
            if not -180.0 <= angle < 180.0:
                raise DomainError(f"bin center {angle} outside [-180, 180)")
        if any(b >= a for a, b in zip(centers[1:], centers)):
            raise DomainError(f"bin centers must be strictly increasing, got {centers}")
        for _, cd, sd in bins:
            if not (math.isfinite(cd) and math.isfinite(sd)):
                raise DomainError("cos/sin residuals must be finite")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "bin_centers", centers)

    def __len__(self):
        return len(self.bins)


def uniform_bin_centers(n):
    """N evenly spaced bin centers: -180 + (i + 0.5) * 360 / N."""
    if n < 1:
        raise DomainError(f"need at least one bin, got {n}")
    step = 360.0 / n
    return tuple(-180.0 + (i + 0.5) * step for i in range(n))


def encode_multibin(angle_deg, bin_centers):
    """Encode an angle as an ideal multibin head output.

    The circularly nearest bin (ties: smallest index) gets confidence 1,
    the rest 0; every bin stores the cos/sin of its own residual.
    """
    centers = tuple(float(a) for a in bin_centers)
    return MultiBinOutput(bins=_multibin_bins(angle_deg, centers), bin_centers=centers)


def _multibin_bins(angle_deg, bin_centers):
    """The (confidence, cos delta, sin delta) float tuple of each bin of
    :func:`encode_multibin`, without building or checking the output."""
    best, best_gap = 0, math.inf
    for i, center in enumerate(bin_centers):
        gap = abs(normalize_angle(angle_deg - center))
        if gap < best_gap:
            best, best_gap = i, gap
    bins = []
    for i, center in enumerate(bin_centers):
        delta = math.radians(angle_deg - center)
        bins.append((1.0 if i == best else 0.0, math.cos(delta), math.sin(delta)))
    return tuple(bins)


def _bin_angles(heads, bin_centers):
    """The angle of each row of (n, N, 3) multibin heads: its first bin of
    highest confidence's center plus the atan2 of that bin's (cos, sin)
    residual, wrapped to [-180, 180)."""
    best = heads[:, :, 0].argmax(axis=1)
    _, cos_delta, sin_delta = heads[np.arange(len(heads)), best].T.tolist()
    return [
        normalize_angle(bin_centers[i] + math.degrees(math.atan2(s, c)))
        for i, c, s in zip(best.tolist(), cos_delta, sin_delta)
    ]


def decode_multibin(out):
    """Recover the angle: argmax-confidence bin center plus its atan2 residual.

    Ties on confidence pick the smallest bin index; non-finite confidences
    never win. Invariant to any uniform positive scaling of the confidences.
    """
    heads = np.array([out.bins])
    conf = heads[:, :, 0]
    finite = np.isfinite(conf)
    if not finite.any():
        raise DomainError("all bin confidences are non-finite")
    conf[~finite] = -np.inf
    return _bin_angles(heads, out.bin_centers)[0]


def decode_depth(raw):
    """Map the raw log-space regression value to metres: depth = exp(raw)."""
    raw = float(raw)
    if not math.isfinite(raw):
        raise DomainError(f"raw depth must be finite, got {raw!r}")
    try:
        depth = math.exp(raw)
    except OverflowError:
        raise RangeError(f"depth overflows for raw value {raw}") from None
    if not math.isfinite(depth) or depth <= 0.0:
        raise RangeError(f"decoded depth {depth} is not a positive finite value")
    return depth


def _rotations(orientations):
    """Stacked (n, 3, 3) camera-frame rotations Rz(roll) @ Rx(elevation) @
    Ry(azimuth) of an (n, 3) array of (azimuth, elevation, roll) degrees."""
    radians = [math.radians(a) for a in orientations.ravel().tolist()]
    ca, ce, cr = np.array([math.cos(r) for r in radians]).reshape(-1, 3).T
    sa, se, sr = np.array([math.sin(r) for r in radians]).reshape(-1, 3).T
    zero, one = np.zeros(len(ca)), np.ones(len(ca))
    rz = np.stack([cr, -sr, zero, sr, cr, zero, zero, zero, one], axis=1)
    rx = np.stack([one, zero, zero, zero, ce, -se, zero, se, ce], axis=1)
    ry = np.stack([ca, zero, sa, zero, one, zero, -sa, zero, ca], axis=1)
    return rz.reshape(-1, 3, 3) @ rx.reshape(-1, 3, 3) @ ry.reshape(-1, 3, 3)


# Corner sign pattern: index bit 2 -> +w/2 when set, bit 1 -> +h/2,
# bit 0 -> +l/2. Corner 0 is (-w/2, -h/2, -l/2), corner 7 is (+,+,+).
_CORNER_SIGNS = np.array(
    [
        [1.0 if k & 4 else -1.0, 1.0 if k & 2 else -1.0, 1.0 if k & 1 else -1.0]
        for k in range(8)
    ]
)


def _columns(boxes):
    """(dims, centers, orientations) of Box3Ds, each an (n, 3) float64 array."""
    table = np.array([box.dims + box.center + box.orientation for box in boxes])
    return table[:, :3], table[:, 3:6], table[:, 6:]


def _corners(dims, centers, orientations):
    """Stacked (n, 8, 3) corners of boxes given as (n, 3) columns.

    numpy's matmul runs each stacked 8x3 @ 3x3 slice through the same
    kernel as a single-box product, so a box's corners are the same bits
    whatever batch it is in.
    """
    local = _CORNER_SIGNS * (0.5 * dims[:, None, :])
    return local @ _rotations(orientations).transpose(0, 2, 1) + centers[:, None, :]


def project_point(camera, point):
    """Project a camera-frame point to pixels: (u, v) = dehomogenized K @ [x y z 1]."""
    x, y, z = (float(v) for v in point)
    if not all(math.isfinite(v) for v in (x, y, z)):
        raise DomainError(f"point must be finite, got {point!r}")
    if z <= 0.0:
        raise BehindCameraError(f"point has nonpositive depth z={z}")
    u, v, w = camera.p @ (x, y, z, 1.0)
    if w == 0.0:
        raise DegenerateProjectionError("homogeneous scale w' is zero")
    return (u / w, v / w)


def _back_project(p, u, v, z):
    """(x, y, det) of pixels (u, v) back-projected at depths z, as floats
    or elementwise over arrays, through a 3x4 matrix p or an (n, 3, 4)
    stack of them; x and y are meaningless where the 2x2 determinant det
    is 0. Overflow gives inf or nan without a warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a00 = p[..., 0, 0] - u * p[..., 2, 0]
        a01 = p[..., 0, 1] - u * p[..., 2, 1]
        a10 = p[..., 1, 0] - v * p[..., 2, 0]
        a11 = p[..., 1, 1] - v * p[..., 2, 1]
        b0 = u * (p[..., 2, 2] * z + p[..., 2, 3]) - (p[..., 0, 2] * z + p[..., 0, 3])
        b1 = v * (p[..., 2, 2] * z + p[..., 2, 3]) - (p[..., 1, 2] * z + p[..., 1, 3])
        det = a00 * a11 - a01 * a10
        x = (b0 * a11 - b1 * a01) / det
        y = (a00 * b1 - a10 * b0) / det
    return x, y, det


def back_project_point(camera, pixel, depth):
    """Invert :func:`project_point` at a known depth.

    Solves the 2x2 linear system the projection induces in (x, y) once z
    is fixed, so it is exact for any 3x4 matrix, including calibrations
    with nonzero translation columns.
    """
    u, v = (float(c) for c in pixel)
    z = float(depth)
    if z <= 0.0:
        raise DomainError(f"depth must be positive, got {z}")
    x, y, det = _back_project(camera.p, u, v, z)
    if det == 0.0:
        raise DegenerateProjectionError("projection matrix is rank-deficient in (x, y)")
    return (float(x), float(y), z)


def _project(p, dims, centers, orientations):
    """Project boxes given as (n, 3) columns through a 3x4 matrix p, or
    an (n, 3, 4) stack of one matrix per box: the (n, 8) corner depths,
    the (n, 8) homogeneous scales and the (n, 4) hulls (x_min, y_min,
    x_max, y_max). Overflow gives inf or nan without a warning. As in
    `_corners`, each stacked product runs through the single-box kernel,
    so a box's values do not depend on its batch."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        corners = _corners(dims, centers, orientations)
        hom = np.ones((len(corners), 8, 4))
        hom[:, :, :3] = corners
        hom = hom @ np.swapaxes(p, -1, -2)
        uv = hom[:, :, :2] / hom[:, :, 2:]
    return corners[:, :, 2], hom[:, :, 2], np.concatenate([uv.min(axis=1), uv.max(axis=1)], axis=1)


def project_box3d(camera, box):
    """Tight axis-aligned 2D hull of the 8 projected box corners."""
    depths, scales, hulls = _project(camera.p, *_columns([box]))
    if (depths <= 0.0).any():
        raise BehindCameraError(
            f"box at {box.center} has corners behind the camera (min z = {depths.min():g})"
        )
    if (scales == 0.0).any():
        raise DegenerateProjectionError("a corner projected to zero homogeneous scale")
    return Box2D(*hulls[0].tolist(), class_id=box.class_id, score=box.score)


def _fit_centers(p, pixels, dims, centers, orientations):
    """(fitted, ok) of boxes given as (n, 3) columns, seen through p as
    `_project` takes it: the (n, 3) centers `fit_center_from_2d` shifts
    them to under the (n, 2) 2D box centers `pixels`, and an (n,) mask of
    the boxes whose projection passes and whose shifted center is finite.
    A box that fails Box3D's checks gives meaningless values, without a
    warning."""
    depths, scales, hulls = _project(p, dims, centers, orientations)
    z = centers[:, 2:]
    focal = np.stack([p[..., 0, 0], p[..., 1, 1]], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = ~((depths <= 0.0).any(axis=1) | (scales == 0.0).any(axis=1))
        shift = (pixels - 0.5 * (hulls[:, :2] + hulls[:, 2:])) * z / focal
        fitted = np.concatenate([centers[:, :2] + shift, z], axis=1)
    return fitted, ok & np.isfinite(fitted).all(axis=1)


def fit_center_from_2d(camera, box2d, dims, orientation, depth):
    """Recover a 3D box whose projected hull is centered on a 2D box.

    Back-projects the 2D box center ray at the given depth, then applies
    one image-plane correction so the re-projected hull center lands on
    the 2D center. The residual after the single correction shrinks with
    (box extent / depth)^2; for vehicle-scale boxes at driving distances
    it stays well under a pixel.
    """
    center = back_project_point(camera, box2d.center, depth)
    box = Box3D(center, dims, orientation, box2d.class_id, box2d.score)
    fitted, ok = _fit_centers(camera.p, np.array([box2d.center]), *_columns([box]))
    if not ok[0]:
        project_box3d(camera, box)  # raises the error of its projection
    return Box3D(fitted[0], box.dims, box.orientation, box.class_id, box.score)


def lift_detections(detections, bundle, camera):
    """Lift one frame's decoded 2D detections to 3D with `lift_frames`, as
    frame 0: one Box3D per detection, in order, or the frame's error raised."""
    boxes, errors = lift_frames(detections, np.zeros(len(detections), np.intp), [bundle], [camera])
    if errors:
        raise errors.pop(0)
    return boxes


def lift_frames(detections, frames, bundles, cameras):
    """Lift the decoded 2D detections of a batch of frames to 3D.

    Detection k is of frame `frames[k]`: its heads are read from
    `bundles[frames[k]]` and it is seen by `cameras[frames[k]]`, one
    camera matrix row per detection. The bundles share one map shape.
    Reads the log-depth, dims, and multibin orientation channels at each
    detection's center cell, decodes them, and fits each 3D center under
    its 2D box constraint. Returns (boxes, errors): one Box3D per
    detection, in order, or None for each detection of a frame whose lift
    fails, and a dict from each such frame to its error.

    The batch is staged as float64 columns, with one read per head map.
    The back-projection and the hull-center shift are numpy arithmetic in
    the scalar formulas' order, so every value has the same bits, in any
    batch; exp, atan2, degrees, radians, cos and sin stay scalar `math`
    calls. One mask marks the detections whose lift fails: a center off
    the map, a depth `decode_depth` rejects, a zero 2x2 determinant, a
    non-finite center, nonpositive dims, then a failed projection or a
    non-finite fitted center. Every detection is projected, and one that
    failed an earlier check stays failed whatever its projection gives.
    Each frame is cut once, at its first failing detection. A frame's
    error is the one `lift_detection` raises on its first failing
    detection alone, as a one-at-a-time lift of the frame would.
    """
    if not detections:
        return [], {}
    for bundle in bundles:
        if not bundle.has_aux:
            raise ConfigurationError("bundle carries no 3D head maps")
    first = bundles[0]
    rows, cols = np.array([(det.center.row, det.center.col) for det in detections]).T
    ok = (rows >= 0) & (rows < first.height) & (cols >= 0) & (cols < first.width)
    rows, cols = rows * ok, cols * ok  # off-map centers read cell (0, 0)

    def read(name):
        maps = [getattr(bundle, name) for bundle in bundles]
        return take_frames(maps, frames, rows, cols).astype(np.float64)

    raw = read("aux_depth")[:, 0]
    dims = read("aux_dims")
    n_bins = first.aux_orientation.channels // 9
    heads = read("aux_orientation").reshape(-1, n_bins, 3)  # a row per angle, 3 a detection

    # A rejected depth reads nan, so its center fails the finite check.
    z = []
    for value in raw.tolist():
        try:
            z.append(decode_depth(value))
        except Det3DError:
            z.append(math.nan)
    pixels = np.array([det.box.center for det in detections])
    p = np.stack([camera.p for camera in cameras])[frames]
    x, y, determinant = _back_project(p, pixels[:, 0], pixels[:, 1], np.array(z))
    centers = np.column_stack([x, y, z])
    ok &= (determinant != 0.0) & np.isfinite(centers).all(axis=1) & (dims > 0.0).all(axis=1)
    # Every detection is projected, and its projection's result joins the
    # same mask; one that failed a check above stays failed.
    angles = np.array(_bin_angles(heads, uniform_bin_centers(n_bins))).reshape(-1, 3)
    fitted, projected = _fit_centers(p, pixels, dims, centers, angles)
    ok &= projected
    # Each frame's first failing detection, or len(ok) where it has none.
    cut = np.full(len(bundles), len(ok))
    np.minimum.at(cut, frames[~ok], np.flatnonzero(~ok))
    lifted = cut[frames] == len(ok)  # a frame that lifts passed whole

    boxes = [None] * len(detections)
    columns = fitted[lifted], dims[lifted], angles[lifted]
    for k, c, d, o in zip(np.flatnonzero(lifted).tolist(), *(column.tolist() for column in columns)):
        boxes[k] = Box3D(c, d, o, detections[k].box.class_id, detections[k].box.score)
    errors = {}
    for frame in np.flatnonzero(cut < len(ok)).tolist():
        try:
            lift_detection(detections[cut[frame]], bundles[frame], cameras[frame])
        except Det3DError as exc:
            # A traceback, its own or its context's, would hold this call's frames.
            errors[frame] = exc.with_traceback(None)
            exc.__context__ = None
    return boxes, errors


def lift_detection(detection, bundle, camera):
    """Lift one decoded 2D detection to 3D, as `lift_detections` lifts it.

    Raises the detection's first error in the order of its steps: the
    bundle's head maps, the head reads at its center cell, `decode_depth`,
    `back_project_point`, the Box3D checks, then `fit_center_from_2d`'s
    projection and fitted center.
    """
    if not bundle.has_aux:
        raise ConfigurationError("bundle carries no 3D head maps")
    row, col = detection.center.row, detection.center.col
    depth = decode_depth(bundle.aux_depth.get(row, col, 0))
    dims = bundle.aux_dims.take([row], [col])[0].tolist()
    heads = bundle.aux_orientation.take([row], [col]).astype(np.float64).reshape(3, -1, 3)
    angles = _bin_angles(heads, uniform_bin_centers(heads.shape[1]))
    return fit_center_from_2d(camera, detection.box, dims, angles, depth)
