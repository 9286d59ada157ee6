"""KITTI label and calibration text formats.

Label lines carry 15 whitespace-separated fields (16 with a detection
score): type, truncated, occluded, alpha, 2D bbox (left top right
bottom), 3D dims (h w l), location (x y z), rotation_y. All reals are
written with 6 decimals so write -> parse -> write is byte-stable and
numeric round trips hold to 1e-6.

The export from synthetic scenes is lossy by design: elevation and roll
angles plus light/weather/sensor metadata have no KITTI fields, and the
location is the geometric box center.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .core import CameraIntrinsics, DomainError, ParseError, normalize_angle

__all__ = [
    "KittiLabelRecord",
    "parse_kitti_label",
    "parse_kitti_label_file",
    "write_kitti_label",
    "write_kitti_label_file",
    "parse_kitti_calib",
    "write_kitti_calib",
    "boxes_to_record",
    "scene_to_kitti",
]

_NUMERIC_FIELDS = (
    "truncated",
    "occluded",
    "alpha",
    "bbox_left",
    "bbox_top",
    "bbox_right",
    "bbox_bottom",
    "height",
    "width",
    "length",
    "x",
    "y",
    "z",
    "rotation_y",
    "score",
)


@dataclass(frozen=True)
class KittiLabelRecord:
    """One object annotation line."""

    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple  # (left, top, right, bottom) pixels
    dimensions: tuple  # (h, w, l) metres
    location: tuple  # (x, y, z) metres
    rotation_y: float
    score: Optional[float] = None

    def __post_init__(self):
        if not self.type or any(ch.isspace() for ch in self.type):
            raise DomainError(f"type must be a non-empty token, got {self.type!r}")
        truncated = float(self.truncated)
        if not 0.0 <= truncated <= 1.0:
            raise DomainError(f"truncated must lie in [0, 1], got {truncated}")
        if self.occluded not in (0, 1, 2, 3):
            raise DomainError(f"occluded must be one of 0..3, got {self.occluded}")
        bbox = tuple(float(v) for v in self.bbox)
        dimensions = tuple(float(v) for v in self.dimensions)
        location = tuple(float(v) for v in self.location)
        if len(bbox) != 4 or len(dimensions) != 3 or len(location) != 3:
            raise DomainError("bbox needs 4 values; dimensions and location need 3")
        if bbox[0] > bbox[2] or bbox[1] > bbox[3]:
            raise DomainError(f"bbox must be well-ordered (left<=right, top<=bottom), got {bbox}")
        values = (truncated, self.alpha, *bbox, *dimensions, *location, self.rotation_y)
        if not all(math.isfinite(float(v)) for v in values):
            raise DomainError("record fields must be finite")
        if self.score is not None and not math.isfinite(float(self.score)):
            raise DomainError(f"score must be finite, got {self.score!r}")
        object.__setattr__(self, "truncated", truncated)
        object.__setattr__(self, "occluded", int(self.occluded))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "dimensions", dimensions)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "rotation_y", float(self.rotation_y))
        if self.score is not None:
            object.__setattr__(self, "score", float(self.score))


def _parse_float(token, field_name, line_number):
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"non-numeric value {token!r}", line=line_number, field_name=field_name
        ) from None


def parse_kitti_label(line, line_number=1):
    """Parse one label line; errors carry the line number and field name."""
    tokens = line.split()
    if len(tokens) not in (15, 16):
        raise ParseError(
            f"expected 15 or 16 whitespace-separated fields, got {len(tokens)}",
            line=line_number,
        )
    numbers = [
        _parse_float(token, _NUMERIC_FIELDS[i], line_number)
        for i, token in enumerate(tokens[1:])
    ]
    occluded = numbers[1]
    if not occluded.is_integer():
        raise ParseError(
            f"occluded must be an integer, got {occluded}",
            line=line_number,
            field_name="occluded",
        )
    try:
        return KittiLabelRecord(
            type=tokens[0],
            truncated=numbers[0],
            occluded=int(occluded),
            alpha=numbers[2],
            bbox=tuple(numbers[3:7]),
            dimensions=tuple(numbers[7:10]),
            location=tuple(numbers[10:13]),
            rotation_y=numbers[13],
            score=numbers[14] if len(numbers) == 15 else None,
        )
    except DomainError as exc:
        raise ParseError(f"invalid record: {exc}", line=line_number) from exc


def parse_kitti_label_file(text):
    """Parse a whole label file; blank lines are ignored."""
    records = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            records.append(parse_kitti_label(line, line_number))
    return records


def write_kitti_label(record):
    """Render one record as a label line (no trailing newline)."""
    fields = [record.type, f"{record.truncated:.6f}", str(record.occluded)]
    fields += [f"{v:.6f}" for v in (record.alpha, *record.bbox, *record.dimensions,
                                    *record.location, record.rotation_y)]
    if record.score is not None:
        fields.append(f"{record.score:.6f}")
    return " ".join(fields)


def write_kitti_label_file(records):
    return "".join(write_kitti_label(r) + "\n" for r in records)


def parse_kitti_calib(text):
    """Extract the P2 projection matrix from a KITTI calibration file."""
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("calibration line needs a 'KEY: values' form", line=line_number)
        key, _, rest = line.partition(":")
        if key.strip() != "P2":
            continue
        tokens = rest.split()
        if len(tokens) != 12:
            raise ParseError(
                f"P2 needs 12 values, got {len(tokens)}", line=line_number, field_name="P2"
            )
        values = [_parse_float(tok, "P2", line_number) for tok in tokens]
        try:
            return CameraIntrinsics([values[0:4], values[4:8], values[8:12]])
        except DomainError as exc:
            raise ParseError(f"invalid P2: {exc}", line=line_number, field_name="P2") from None
    raise ParseError("no P2 entry found in calibration file")


def write_kitti_calib(camera):
    values = " ".join(f"{v:.12e}" for v in camera.p.reshape(-1))
    return f"P2: {values}\n"


def _wrap_rad(angle):
    return math.radians(normalize_angle(math.degrees(angle)))


def boxes_to_record(label, box2d, box3d, score=None):
    """(Box2D, Box3D) -> record, neither truncated nor occluded.

    The azimuth converts to rotation_y (radians); alpha is the observation
    angle rotation_y - atan2(x, z); dims reorder from (w, h, l) to
    KITTI's (h, w, l). Elevation and roll do not survive the export.
    """
    x, y, z = box3d.center
    rotation_y = _wrap_rad(math.radians(box3d.orientation[0]))
    alpha = _wrap_rad(rotation_y - math.atan2(x, z))
    w, h, l = box3d.dims
    return KittiLabelRecord(
        type=label,
        truncated=0.0,
        occluded=0,
        alpha=alpha,
        bbox=(box2d.x_min, box2d.y_min, box2d.x_max, box2d.y_max),
        dimensions=(h, w, l),
        location=(x, y, z),
        rotation_y=rotation_y,
        score=score,
    )


def scene_to_kitti(sample):
    """Scene sample -> (label file text, calibration file text)."""
    records = [
        boxes_to_record(label, box2d, box3d)
        for label, box3d, box2d in zip(sample.labels, sample.objects, sample.boxes2d)
    ]
    return write_kitti_label_file(records), write_kitti_calib(sample.camera)
