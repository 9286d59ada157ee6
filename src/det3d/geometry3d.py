"""Lifting validated 2D detections to full 3D boxes.

Covers log-depth decoding, the dims regression target, multibin
orientation decoding, pinhole projection/back-projection, 3D box corner
generation, and recovery of the 3D center constrained by the 2D box.
"""

import math
from dataclasses import dataclass, replace

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
)

__all__ = [
    "MultiBinOutput",
    "DepthOutput",
    "uniform_bin_centers",
    "encode_multibin",
    "decode_multibin",
    "decode_depth",
    "dims_mse",
    "rotation_matrix",
    "box3d_corners",
    "project_point",
    "back_project_point",
    "project_box3d",
    "fit_center_from_2d",
    "lift_detection",
    "lift_detections",
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


@dataclass(frozen=True)
class DepthOutput:
    """Raw network-space depth scalar attached to a center keypoint."""

    raw: float

    def __post_init__(self):
        if not math.isfinite(float(self.raw)):
            raise DomainError(f"raw depth must be finite, got {self.raw!r}")
        object.__setattr__(self, "raw", float(self.raw))


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
    best = min(
        range(len(bin_centers)),
        key=lambda i: (abs(normalize_angle(angle_deg - bin_centers[i])), i),
    )
    bins = []
    for i, center in enumerate(bin_centers):
        delta = math.radians(angle_deg - center)
        bins.append((1.0 if i == best else 0.0, math.cos(delta), math.sin(delta)))
    return tuple(bins)


def _bin_angle(bins, bin_centers):
    """The first bin of highest confidence: its center plus the atan2 of its
    (cos, sin) residual, wrapped to [-180, 180)."""
    conf = [b[0] for b in bins]
    i = conf.index(max(conf))
    _, cos_delta, sin_delta = bins[i]
    return normalize_angle(bin_centers[i] + math.degrees(math.atan2(sin_delta, cos_delta)))


def decode_multibin(out):
    """Recover the angle: argmax-confidence bin center plus its atan2 residual.

    Ties on confidence pick the smallest bin index; non-finite confidences
    never win. Invariant to any uniform positive scaling of the confidences.
    """
    if not any(math.isfinite(b[0]) for b in out.bins):
        raise DomainError("all bin confidences are non-finite")
    bins = [(c if math.isfinite(c) else -math.inf, cd, sd) for c, cd, sd in out.bins]
    return _bin_angle(bins, out.bin_centers)


def decode_depth(out):
    """Map the raw log-space regression value to metres: depth = exp(raw)."""
    raw = out.raw if isinstance(out, DepthOutput) else float(out)
    if not math.isfinite(raw):
        raise DomainError(f"raw depth must be finite, got {raw!r}")
    try:
        depth = math.exp(raw)
    except OverflowError:
        raise RangeError(f"depth overflows for raw value {raw}") from None
    if not math.isfinite(depth) or depth <= 0.0:
        raise RangeError(f"decoded depth {depth} is not a positive finite value")
    return depth


def dims_mse(pred, truth):
    """Squared (w, h, l) error; a batch averages the per-sample sums."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"pred shape {p.shape} != truth shape {t.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise DomainError("dims must be finite")
    if p.ndim == 1:
        if p.shape != (3,):
            raise ShapeError(f"a single sample must have 3 dims, got shape {p.shape}")
        return float(((p - t) ** 2).sum())
    if p.ndim == 2 and p.shape[1] == 3:
        if p.shape[0] == 0:
            raise ShapeError("batch must hold at least one sample")
        return float(((p - t) ** 2).sum(axis=1).mean())
    raise ShapeError(f"expected shape (3,) or (n, 3), got {p.shape}")


def _rotations(orientations):
    """Stacked (n, 3, 3) camera-frame rotations Rz(roll) @ Rx(elevation) @ Ry(azimuth)."""
    factors = []
    for orientation in orientations:
        azimuth, elevation, roll = (math.radians(a) for a in orientation)
        ca, sa = math.cos(azimuth), math.sin(azimuth)
        ce, se = math.cos(elevation), math.sin(elevation)
        cr, sr = math.cos(roll), math.sin(roll)
        factors.append(
            (
                [[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]],
                [[1.0, 0.0, 0.0], [0.0, ce, -se], [0.0, se, ce]],
                [[ca, 0.0, sa], [0.0, 1.0, 0.0], [-sa, 0.0, ca]],
            )
        )
    rz, rx, ry = np.array(factors).transpose(1, 0, 2, 3)
    return rz @ rx @ ry


def rotation_matrix(orientation_deg):
    """Camera-frame rotation Rz(roll) @ Rx(elevation) @ Ry(azimuth)."""
    return _rotations([orientation_deg])[0]


# Corner sign pattern: index bit 2 -> +w/2 when set, bit 1 -> +h/2,
# bit 0 -> +l/2. Corner 0 is (-w/2, -h/2, -l/2), corner 7 is (+,+,+).
_CORNER_SIGNS = np.array(
    [
        [1.0 if k & 4 else -1.0, 1.0 if k & 2 else -1.0, 1.0 if k & 1 else -1.0]
        for k in range(8)
    ]
)


def _corners(boxes):
    """Stacked (n, 8, 3) corners of the boxes.

    numpy's matmul runs each stacked 8x3 @ 3x3 slice through the same
    kernel as a single-box product, so a box's corners are the same bits
    whatever batch it is in.
    """
    shapes = np.array([box.dims + box.center for box in boxes])
    local = _CORNER_SIGNS * (0.5 * shapes[:, None, :3])
    rot = _rotations([box.orientation for box in boxes])
    return local @ rot.transpose(0, 2, 1) + shapes[:, None, 3:]


def box3d_corners(box):
    """The 8 corners (metres, camera frame) of a 3D box, in the fixed
    bit-pattern order documented on `_CORNER_SIGNS`."""
    return _corners([box])[0]


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
    p = camera.p
    a00 = p[0, 0] - u * p[2, 0]
    a01 = p[0, 1] - u * p[2, 1]
    a10 = p[1, 0] - v * p[2, 0]
    a11 = p[1, 1] - v * p[2, 1]
    b0 = u * (p[2, 2] * z + p[2, 3]) - (p[0, 2] * z + p[0, 3])
    b1 = v * (p[2, 2] * z + p[2, 3]) - (p[1, 2] * z + p[1, 3])
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        raise DegenerateProjectionError("projection matrix is rank-deficient in (x, y)")
    x = (b0 * a11 - b1 * a01) / det
    y = (a00 * b1 - a10 * b0) / det
    return (x, y, z)


def _hulls(camera, boxes):
    """Yield the projected hull of each box in order, as `project_box3d`
    returns it, and raise its error at the first box that fails.

    All boxes are projected in one batch before the first yield.
    """
    corners = _corners(boxes)
    hom = np.ones((len(boxes), 8, 4))
    hom[:, :, :3] = corners
    hom = hom @ camera.p.T
    w = hom[:, :, 2:]
    # A box with a zero scale raises before its hull is read.
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = hom[:, :, :2] / w
    checks = zip(
        boxes,
        corners[:, :, 2].tolist(),
        w[:, :, 0].tolist(),
        uv.min(axis=1).tolist(),
        uv.max(axis=1).tolist(),
    )
    for i, (box, z, scale, low, high) in enumerate(checks):
        if any(v <= 0.0 for v in z):
            raise BehindCameraError(
                f"box at {box.center} has corners behind the camera "
                f"(min z = {corners[i, :, 2].min():g})"
            )
        if 0.0 in scale:
            raise DegenerateProjectionError("a corner projected to zero homogeneous scale")
        yield Box2D(*low, *high, class_id=box.class_id, score=box.score)


def project_box3d(camera, box):
    """Tight axis-aligned 2D hull of the 8 projected box corners."""
    return next(_hulls(camera, [box]))


def _fit_centers(camera, inputs):
    """Fit one 3D box per (box2d, dims, orientation, depth) of `inputs`, in order.

    Each box is fitted as `fit_center_from_2d` describes, with every hull
    projected in one batch. `inputs` may itself raise a Det3DError. The
    error raised is the one that fitting the inputs one at a time, in
    order, would raise first.
    """
    staged = []
    pending = None
    try:
        for box2d, dims, orientation, depth in inputs:
            z = float(depth)
            if z <= 0.0:
                raise DomainError(f"depth must be positive, got {z}")
            u_c, v_c = box2d.center
            box = Box3D(
                center=back_project_point(camera, (u_c, v_c), z),
                dims=dims,
                orientation=orientation,
                class_id=box2d.class_id,
                score=box2d.score,
            )
            staged.append((box, u_c, v_c, z))
    except Det3DError as exc:
        # Every staged box comes before the failed input, so a staged
        # box's own failure below is raised first.
        pending = exc
    fx, fy = camera.fx, camera.fy
    fitted = []
    for (box, u_c, v_c, z), hull in zip(staged, _hulls(camera, [s[0] for s in staged])):
        u_h, v_h = hull.center
        x, y, _ = box.center
        dx = (u_c - u_h) * z / fx
        dy = (v_c - v_h) * z / fy
        fitted.append(replace(box, center=(x + dx, y + dy, z)))
    if pending is not None:
        # Drop the local before the frame exits: the traceback keeps this
        # frame, and a frame holding its own exception is a reference
        # cycle that keeps the bundle alive until the next gc pass.
        try:
            raise pending
        finally:
            del pending
    return fitted


def fit_center_from_2d(camera, box2d, dims, orientation, depth):
    """Recover a 3D box whose projected hull is centered on a 2D box.

    Back-projects the 2D box center ray at the given depth, then applies
    one image-plane correction so the re-projected hull center lands on
    the 2D center. The residual after the single correction shrinks with
    (box extent / depth)^2; for vehicle-scale boxes at driving distances
    it stays well under a pixel.
    """
    return _fit_centers(camera, [(box2d, dims, orientation, depth)])[0]


def lift_detections(detections, bundle, camera, stride=1):
    """Lift decoded 2D detections to 3D using the bundle's head maps.

    Reads the log-depth, dims, and multibin orientation channels at each
    detection's center cell, decodes them, and fits each 3D center under
    its 2D box constraint. Returns one Box3D per detection, in order. The
    error raised is the one that lifting the detections one at a time, in
    order, would raise first.
    """
    if not detections:
        return []
    if not bundle.has_aux:
        raise ConfigurationError("bundle carries no 3D head maps")
    # The cells before the first one outside the map are read with one
    # gather per head map; that one raises when its turn comes.
    height, width = bundle.height, bundle.width
    cells = []
    for det in detections:
        row, col = det.center.row, det.center.col
        if not (0 <= row < height and 0 <= col < width):
            break
        cells.append((row, col))
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    n_bins = bundle.aux_orientation.channels // 9
    bin_centers = uniform_bin_centers(n_bins)
    heads = zip(
        detections,
        bundle.aux_depth.take(rows, cols)[:, 0].tolist(),
        bundle.aux_dims.take(rows, cols).tolist(),
        bundle.aux_orientation.take(rows, cols).reshape(-1, 3, n_bins, 3).tolist(),
    )

    def inputs():
        for det, raw_depth, dims, angles in heads:
            depth = decode_depth(raw_depth)
            orientation = tuple(_bin_angle(bins, bin_centers) for bins in angles)
            yield det.box, dims, orientation, depth
        if len(cells) < len(detections):
            center = detections[len(cells)].center
            bundle.aux_depth.get(center.row, center.col, 0)  # raises its BoundsError

    return _fit_centers(camera, inputs())


def lift_detection(detection, bundle, camera, stride=1):
    """Lift one decoded 2D detection to 3D; see `lift_detections`."""
    return lift_detections([detection], bundle, camera, stride)[0]
