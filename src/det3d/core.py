"""Core data types shared by every other module.

Feature maps, keypoints, 2D/3D boxes, the pinhole camera model, and the
class taxonomy. All types are immutable after construction and every
operation on them is a pure function, so concurrent readers need no
coordination.
"""

import math
import numbers
from collections import deque
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import repeat
from typing import Mapping, NamedTuple, Optional

import numpy as np

__all__ = [
    "Det3DError",
    "BoundsError",
    "DomainError",
    "RangeError",
    "ShapeError",
    "ConfigurationError",
    "ParseError",
    "ValidationError",
    "GenerationError",
    "RenderError",
    "BehindCameraError",
    "DegenerateProjectionError",
    "MapRole",
    "KeypointKind",
    "SuperCategory",
    "FeatureMap",
    "take_frames",
    "Keypoint",
    "Box2D",
    "Box3D",
    "CameraIntrinsics",
    "ClassTaxonomy",
    "Detection",
    "BUNDLE_MAPS",
    "MapBundle",
    "normalize_angle",
    "keyed_uniforms",
    "keyed_normals",
    "Z_MAX",
]


class Det3DError(Exception):
    """Base class for every error raised by this library."""


class BoundsError(Det3DError, IndexError):
    """An index fell outside the declared bounds of some axis."""


class DomainError(Det3DError, ValueError):
    """A value violated the domain contract of an operation or type."""


class RangeError(DomainError):
    """A computation left the representable/valid output range."""


class ShapeError(Det3DError, ValueError):
    """An array or sequence had the wrong shape or length."""


class ConfigurationError(Det3DError, ValueError):
    """Inputs are individually valid but mutually inconsistent."""


class ParseError(Det3DError, ValueError):
    """A serialized input (binary dump, label file, JSON) is malformed."""

    def __init__(self, message, *, offset=None, line=None, field_name=None):
        parts = [message]
        if offset is not None:
            parts.append(f"(at byte offset {offset})")
        if line is not None:
            parts.append(f"(line {line})")
        if field_name is not None:
            parts.append(f"(field '{field_name}')")
        super().__init__(" ".join(parts))
        self.offset = offset
        self.line = line
        self.field_name = field_name


class ValidationError(Det3DError, ValueError):
    """Cross-file or cross-input consistency check failed."""


class GenerationError(Det3DError, RuntimeError):
    """Synthetic scene generation could not satisfy its constraints."""


class RenderError(Det3DError, ValueError):
    """A ground-truth annotation cannot be rendered into the feature grid."""


class BehindCameraError(DomainError):
    """A projected point or box corner lies at nonpositive camera depth."""


class DegenerateProjectionError(DomainError):
    """The projective math degenerated (zero homogeneous scale or rank loss)."""


class MapRole(IntEnum):
    """Role tag stored in binary dumps; constrains the value range."""

    HEATMAP = 0
    EMBEDDING = 1
    OFFSET = 2
    GENERIC = 3


class KeypointKind(Enum):
    TOP_LEFT = "tl"
    BOTTOM_RIGHT = "br"
    CENTER = "center"


CORNER_KINDS = (KeypointKind.TOP_LEFT, KeypointKind.BOTTOM_RIGHT)
ALL_KINDS = (KeypointKind.TOP_LEFT, KeypointKind.BOTTOM_RIGHT, KeypointKind.CENTER)


class SuperCategory(str, Enum):
    AIR = "Air"
    GROUND = "Ground"


def normalize_angle(deg):
    """Wrap an angle in degrees to the half-open interval [-180, 180).

    The result is congruent to the input modulo 360. Idempotent, bit for bit.
    """
    deg = float(deg)
    if not math.isfinite(deg):
        raise DomainError(f"angle must be finite, got {deg!r}")
    wrapped = (deg + 180.0) % 360.0 - 180.0  # 180.0 where the remainder rounds up to 360
    return -180.0 if wrapped == 180.0 else wrapped


def check_number(obj, name, kind, what):
    """Raise DomainError unless `obj.<name>` is a `kind` and not a bool."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(f"{name} must be {what}, got {value!r}")


def _indices(name, idx, size):
    """`idx` as an intp array, after checking that it holds integers (an
    empty sequence counts) and that each lies in [0, size)."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        if idx.size:
            raise DomainError(f"{name} indices must be integers, got {idx.dtype} values")
    elif idx.size:
        # Python's min and max beat two numpy reductions on a few values.
        few = idx.ravel().tolist() if idx.size <= 32 else None
        lo, hi = (min(few), max(few)) if few else (idx.min(), idx.max())
        if lo < 0 or hi >= size:
            outside = idx[(idx < 0) | (idx >= size)]
            raise BoundsError(f"{name} index {int(outside[0])} out of range [0, {size})")
    return idx.astype(np.intp, copy=False)


def _from_checked_columns(cls, *columns):
    """Objects of `cls`, a frozen slots dataclass, one per entry of its field
    columns in field order, built by setting the slots: `__post_init__` does
    not run, so the caller must have checked each value as it would."""
    objects = list(map(cls.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, objects, column), maxlen=0)
    return objects


def _check_score(score):
    score = float(score)
    if not math.isfinite(score) or score < 0.0 or score > 1.0:
        raise DomainError(f"score must lie in [0, 1], got {score!r}")
    return score


# Keyed gaussian noise, for maps noised where they are read
# (`FeatureMap.noised`). The uniforms of value index i under a key are the
# top 53 bits of outputs 2i and 2i+1 of a splitmix64 stream seeded with
# the key (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014), so any value can be made alone. Every operand
# is an np.uint64, so the arithmetic wraps mod 2**64 under numpy 1.x and
# 2.x promotion alike.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9), np.uint64(27),
        np.uint64(0x94D049BB133111EB), np.uint64(31))
_DROP = np.uint64(11)  # keeps the top 53 of 64 bits
_GAMMA2 = np.uint64(0x3C6EF372FE94F82A)  # 2 * gamma mod 2**64
_ONE = np.uint64(1)
# The largest |z| Box-Muller gives: its radius at the smallest u1, 2**-53.
Z_MAX = math.sqrt(-2.0 * math.log(2.0**-53))
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# Values per block when `data` noises a whole map, so its temporaries
# stay small.
_NOISE_BLOCK = 1 << 14


def _splitmix64(state):
    """splitmix64's output function of each np.uint64 in `state`."""
    shift1, mult1, shift2, mult2, shift3 = _MIX
    state = (state ^ (state >> shift1)) * mult1
    state = (state ^ (state >> shift2)) * mult2
    return state ^ (state >> shift3)


def keyed_uniforms(key, index):
    """(u1, u2), float64 arrays of the shape of `index`: for each value
    index i >= 0, u1 = (top53(out[2i]) + 1) / 2**53 in (0, 1] and
    u2 = top53(out[2i + 1]) / 2**53 in [0, 1), where out[n] is output n
    (from 0) of splitmix64 seeded with `key`: mix(key + (n + 1) * gamma)."""
    index = np.asarray(index).astype(np.uint64)
    with np.errstate(over="ignore"):  # the mod 2**64 wrap is the hash
        first = index * _GAMMA2 + (np.uint64(key) + _GAMMA)  # key + (2i + 1) * gamma
        u1 = ((_splitmix64(first) >> _DROP) + _ONE).astype(np.float64)
        u2 = (_splitmix64(first + _GAMMA) >> _DROP).astype(np.float64)
    return u1 * 2.0**-53, u2 * 2.0**-53


def keyed_normals(key, index):
    """Standard normal of each value index under `key`, by Box-Muller on
    `keyed_uniforms`; |z| <= Z_MAX. A pure function: the same (key, i)
    gives the same bits whatever else is computed with it."""
    u1, u2 = keyed_uniforms(key, index)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * math.pi) * u2)


def _noised_values(values, key, sigma, index):
    """float32(values + sigma * z(key, index)), the sum taken in float64."""
    return (values.astype(np.float64) + sigma * keyed_normals(key, index)).astype(np.float32)


def _cell_take(cells, values, flat):
    """Rows of the (n, C) value table `values` at flat cell indices, where
    `cells` is the table's strictly increasing cell column; a cell the
    table does not hold reads 0.0."""
    if not cells.size:
        return np.zeros(np.shape(flat) + values.shape[1:], dtype=np.float32)
    pos = np.searchsorted(cells, flat)
    out = values.take(pos, axis=0, mode="clip")
    np.copyto(out, 0.0, where=(cells.take(pos, mode="clip") != flat)[..., None])
    return out


def _batch_shape(maps):
    """The (H, W, C) shape that a batch of one or more maps shares."""
    if not maps:
        raise ShapeError("a batch of maps needs at least one map")
    shape = maps[0].shape
    if any(fmap.shape != shape for fmap in maps):
        raise ShapeError(f"a batch of maps must share one shape, got {shape} and others")
    return shape


def _joined_cell_tables(tables, plane):
    """One (cells, values) table of the cell tables of a batch's frames,
    frame f's cells offset by f * plane (H * W); a None entry adds
    nothing, and at least one entry must not be None."""
    frames = [f for f, table in enumerate(tables) if table is not None]
    if frames == [0]:
        return tables[0]
    cells = np.concatenate([tables[f][0] for f in frames])
    cells += np.repeat(np.array(frames) * plane, [tables[f][0].size for f in frames])
    return cells, np.concatenate([tables[f][1] for f in frames])


def take_frames(maps, frames, rows, cols):
    """Values of a batch of maps of one shape: row k is what
    `maps[frames[k]].take` reads at (rows[k], cols[k]), with the same
    checks. Cell-stored maps are read with one search over their
    `_joined_cell_tables`; a batch of one map is read as that map."""
    height, width, channels = _batch_shape(maps)
    if len(maps) == 1:
        out = maps[0].take(rows, cols)
        _indices("frame", frames, 1)
        return out
    flat = _indices("row", rows, height) * width + _indices("col", cols, width)
    frames = _indices("frame", frames, len(maps))
    tables = [fmap.cell_table for fmap in maps]
    if all(table is not None for table in tables):
        return _cell_take(*_joined_cell_tables(tables, height * width), frames * (height * width) + flat)
    out = np.empty(flat.shape + (channels,), dtype=np.float32)
    for f in np.unique(frames).tolist():
        read = frames == f
        out[read] = maps[f]._take(flat[read])
    return out


class FeatureMap:
    """Immutable (height, width, channels) grid of real values.

    A map is stored in one of three ways, fixed by what built it. Dense
    storage holds every value, row-major float32 in (row, col, channel)
    order, matching the binary dump layout. Cell storage (`from_cells`)
    holds a strictly increasing array of flat cell indices
    (row * width + col) and an (n, channels) float32 value table, and reads
    exactly 0.0 at every other cell; it suits maps that are zero almost
    everywhere, such as keypoint-cell maps and ideal heatmaps. Noised
    storage (`noised`) holds a dense or cell-stored base map plus a noise
    key and sigma, and makes each value's noise when the value is read,
    so a reader of a few cells never pays for the rest. All three read
    alike through `take`, `get` and `data`.
    Heatmap-role maps must lie in [0, 1]; other roles only need finite
    values.
    """

    __slots__ = ("_data", "_role", "_shape", "_cells", "_values", "_noise")

    def __init__(self, data, role=MapRole.GENERIC):
        arr = np.array(data, dtype=np.float32, copy=True, order="C")
        if arr.ndim != 3:
            raise ShapeError(f"feature map needs a (H, W, C) array, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"feature map axes must all be >= 1, got shape {arr.shape}")
        self._init(arr, arr.shape, None, role)

    def _init(self, data, shape, cells, role):
        """Check the stored values against the role, then freeze them."""
        # Both extremes are finite iff every value is (NaN propagates
        # through min and max); unlike an isfinite mask this allocates nothing.
        lo, hi = (float(data.min()), float(data.max())) if data.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("feature map values must be finite")
        role = MapRole(role)
        if role is MapRole.HEATMAP and (lo < 0.0 or hi > 1.0):
            raise DomainError(f"heatmap values must lie in [0, 1], got range [{lo:g}, {hi:g}]")
        self._store(data, shape, cells, role)

    def _store(self, data, shape, cells, role):
        """Freeze checked values (and cells, for cell storage) as this map's."""
        data.setflags(write=False)
        self._role = role
        self._shape = tuple(shape)
        self._noise = None
        if cells is None:
            self._data, self._cells, self._values = data, None, None
        else:
            cells.setflags(write=False)
            self._data, self._cells, self._values = None, cells, data

    @classmethod
    def from_cells(cls, cells, values, height, width, role=MapRole.GENERIC):
        """Build a cell-stored map: `values[k]` at flat cell `cells[k]`
        (row * width + col), exactly 0.0 everywhere else.

        `cells` must be strictly increasing; `values` is an (n, channels)
        table. Both are copied.
        """
        cells = np.array(cells, dtype=np.intp, copy=True).reshape(-1)
        table = np.array(values, dtype=np.float32, copy=True, order="C")
        if table.ndim != 2 or table.shape[0] != cells.size:
            raise ShapeError(
                f"need an ({cells.size}, C) value table for {cells.size} cells, "
                f"got shape {table.shape}"
            )
        if min(height, width, table.shape[1]) < 1:
            raise ShapeError(
                f"feature map axes must all be >= 1, got shape {(height, width, table.shape[1])}"
            )
        if np.any(cells[1:] <= cells[:-1]):
            raise DomainError("cell indices must be strictly increasing")
        if cells.size and (cells[0] < 0 or cells[-1] >= height * width):
            bad = cells[0] if cells[0] < 0 else cells[-1]
            raise BoundsError(f"cell index {int(bad)} out of range [0, {height * width})")
        fmap = cls.__new__(cls)
        fmap._init(table, (height, width, table.shape[1]), cells, role)
        return fmap

    @classmethod
    def _from_checked_cells(cls, cells, values, height, width, role):
        """A cell-stored map of intp `cells` and a C-ordered float32 (n, C)
        `values` table that the caller has checked as `from_cells` would,
        stored as given, without a copy."""
        fmap = cls.__new__(cls)
        fmap._store(values, (height, width, values.shape[1]), cells, role)
        return fmap

    def noised(self, key, sigma):
        """This map plus gaussian noise made where it is read: value i, in
        row-major (row, col, channel) order, reads float32(v + sigma * z),
        where v is this map's value and z is `keyed_normals(key, i)`, the
        sum taken in float64. `key` is an integer in [0, 2**64), `sigma` a
        finite real >= 0. The result is never cell-stored (`cell_table` is
        None). A heatmap cannot be noised so, since its clip to [0, 1]
        would have to follow the noise, and neither can a noised map.
        Every value stays finite: sigma must keep max|v| + sigma * Z_MAX
        within float32's range."""
        if self._noise is not None:
            raise DomainError("a noised map cannot be noised again")
        if self._role is MapRole.HEATMAP:
            raise DomainError("a heatmap cannot be noised on read: its clip must follow the noise")
        if isinstance(key, bool) or not isinstance(key, numbers.Integral):
            raise DomainError(f"noise key must be an integer, got {key!r}")
        if not 0 <= int(key) < 2**64:
            raise DomainError(f"noise key must lie in [0, 2**64), got {key!r}")
        if isinstance(sigma, bool) or not isinstance(sigma, numbers.Real):
            raise DomainError(f"noise sigma must be a real number, got {sigma!r}")
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise DomainError(f"noise sigma must be finite and >= 0, got {sigma!r}")
        stored = self._data if self._cells is None else self._values
        bound = max(-float(stored.min()), float(stored.max()), 0.0) if stored.size else 0.0
        if not bound + float(sigma) * Z_MAX <= _FLOAT32_MAX:
            raise DomainError(
                f"noise sigma {sigma!r} can push values of magnitude {bound:g} "
                "past float32's range"
            )
        fmap = FeatureMap.__new__(FeatureMap)
        fmap._role, fmap._shape = self._role, self._shape
        fmap._data = fmap._cells = fmap._values = None
        fmap._noise = (self, np.uint64(key), float(sigma))
        return fmap

    @property
    def data(self):
        """Read-only (H, W, C) float32 array; a cell-stored or noised map
        builds it on every call."""
        if self._data is not None:
            return self._data
        dense = np.zeros(self._shape, dtype=np.float32)
        if self._noise is None:
            dense.reshape(-1, self.channels)[self._cells] = self._values
        else:
            base, key, sigma = self._noise
            values, out = base.data.reshape(-1), dense.reshape(-1)
            for start in range(0, out.size, _NOISE_BLOCK):
                block = values[start:start + _NOISE_BLOCK]
                index = np.arange(start, start + block.size)
                out[start:start + block.size] = _noised_values(block, key, sigma, index)
        dense.setflags(write=False)
        return dense

    @property
    def cell_table(self):
        """(cells, values) of a cell-stored map, both read-only; None for a
        dense one."""
        return None if self._cells is None else (self._cells, self._values)

    @property
    def role(self):
        return self._role

    @property
    def height(self):
        return self._shape[0]

    @property
    def width(self):
        return self._shape[1]

    @property
    def channels(self):
        return self._shape[2]

    @property
    def shape(self):
        return self._shape

    def take(self, rows, cols):
        """(n, C) float32 values at the cells (rows[k], cols[k]), the same
        as `data[rows, cols]`; every index must be an integer inside the map."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        flat = None
        if rows.dtype.kind in "iu" and cols.dtype.kind in "iu":
            try:
                flat = np.ravel_multi_index((rows, cols), self._shape[:2])
            except ValueError:  # an index off the map, named below
                pass
        if flat is None:
            flat = _indices("row", rows, self.height) * self.width + _indices("col", cols, self.width)
        return self._take(flat)

    def _take(self, flat):
        """The values at flat cell indices (row * width + col), checked."""
        if self._cells is not None:
            return _cell_take(self._cells, self._values, flat)
        if self._noise is None:
            return self._data.reshape(-1, self.channels)[flat]
        base, key, sigma = self._noise
        index = flat[..., None] * self.channels + np.arange(self.channels)
        return _noised_values(base._take(flat), key, sigma, index)

    def get(self, row, col, channel):
        """Return the stored value at (row, col, channel), each an integer
        inside the map."""
        values = self.take([row], [col])[0]
        return float(values[_indices("channel", [channel], self.channels)[0]])

    def channel_plane(self, channel):
        """Read-only (H, W) view of a single channel."""
        return self.data[:, :, _indices("channel", [channel], self.channels)[0]]

    def __eq__(self, other):
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return (
            self._role is other._role
            and self.shape == other.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    def __hash__(self):
        return hash((self._role, self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"FeatureMap({self.height}x{self.width}x{self.channels}, role={self._role.name})"


@dataclass(frozen=True, slots=True)
class Keypoint:
    """A scored grid peak: kind, class, integer grid position, and the
    associative-embedding tag used for corner grouping."""

    kind: KeypointKind
    class_id: int
    row: int
    col: int
    score: float
    tag: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, KeypointKind):
            raise DomainError(f"kind must be a KeypointKind, got {self.kind!r}")
        # Plain ints, as decode builds them, skip the slower ABC check.
        if not (type(self.class_id) is type(self.row) is type(self.col) is int):
            for name in ("class_id", "row", "col"):
                check_number(self, name, numbers.Integral, "an integer")
        if self.class_id < 0:
            raise DomainError(f"class_id must be >= 0, got {self.class_id}")
        if self.row < 0 or self.col < 0:
            raise BoundsError(f"keypoint position must be >= 0, got ({self.row}, {self.col})")
        _check_score(self.score)
        if not math.isfinite(self.tag):
            raise DomainError(f"tag must be finite, got {self.tag!r}")


@dataclass(frozen=True, slots=True)
class Box2D:
    """Axis-aligned image box; zero-area boxes are permitted, negative
    extents are not. Out-of-range scores are rejected, not clamped."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    class_id: int = 0
    score: float = 1.0

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise DomainError(
                f"box extents must be non-negative: "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        object.__setattr__(self, "score", _check_score(self.score))

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def area(self):
        return self.width * self.height

    @property
    def center(self):
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True, slots=True)
class Box3D:
    """3D box in the camera frame: center (m), dims (w, h, l in m), and
    orientation (azimuth, elevation, roll in degrees).

    The object must sit in front of the camera (z > 0) and the angles are
    wrapped to [-180, 180) at construction.
    """

    center: tuple
    dims: tuple
    orientation: tuple
    class_id: int = 0
    score: float = 1.0

    def __post_init__(self):
        center = tuple(float(v) for v in self.center)
        dims = tuple(float(v) for v in self.dims)
        orientation = tuple(float(v) for v in self.orientation)
        if len(center) != 3 or len(dims) != 3 or len(orientation) != 3:
            raise ShapeError("center, dims and orientation must each have 3 components")
        if not all(math.isfinite(v) for v in center + dims + orientation):
            raise DomainError("box parameters must be finite")
        if center[2] <= 0.0:
            raise DomainError(f"box center must be in front of the camera, got z={center[2]}")
        if min(dims) <= 0.0:
            raise DomainError(f"box dims must be positive, got {dims}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "orientation", tuple(normalize_angle(a) for a in orientation))
        object.__setattr__(self, "score", _check_score(self.score))


class CameraIntrinsics:
    """3x4 projection matrix mapping camera-frame points to homogeneous
    pixel coordinates."""

    __slots__ = ("_p",)

    def __init__(self, p):
        arr = np.array(p, dtype=np.float64, copy=True)
        if arr.shape != (3, 4):
            raise ShapeError(f"projection matrix must be 3x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("projection matrix must be finite")
        if arr[0, 0] == 0.0 or arr[1, 1] == 0.0:
            raise DomainError("focal entries p[0,0] and p[1,1] must be nonzero")
        arr.setflags(write=False)
        self._p = arr

    @classmethod
    def simple(cls, focal, cx, cy):
        """Pinhole matrix [[f, 0, cx, 0], [0, f, cy, 0], [0, 0, 1, 0]]."""
        return cls([[focal, 0.0, cx, 0.0], [0.0, focal, cy, 0.0], [0.0, 0.0, 1.0, 0.0]])

    @property
    def p(self):
        return self._p

    @property
    def fx(self):
        return float(self._p[0, 0])

    @property
    def fy(self):
        return float(self._p[1, 1])

    @property
    def cx(self):
        return float(self._p[0, 2])

    @property
    def cy(self):
        return float(self._p[1, 2])

    def __eq__(self, other):
        if not isinstance(other, CameraIntrinsics):
            return NotImplemented
        return np.array_equal(self._p, other._p)

    def __hash__(self):
        return hash(self._p.tobytes())

    def __repr__(self):
        return f"CameraIntrinsics(fx={self.fx:g}, fy={self.fy:g}, cx={self.cx:g}, cy={self.cy:g})"


@dataclass(frozen=True)
class ClassTaxonomy:
    """Ordered class labels plus their Air/Ground super-category."""

    names: tuple
    grouping: Mapping[str, SuperCategory]

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            raise DomainError(f"class names must be unique, got {names}")
        if len(names) == 0:
            raise DomainError("taxonomy needs at least one class")
        grouping = {str(k): SuperCategory(v) for k, v in dict(self.grouping).items()}
        if set(grouping) != set(names):
            raise DomainError(
                "every class needs exactly one super-category; "
                f"names={sorted(names)} grouped={sorted(grouping)}"
            )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "grouping", grouping)

    @classmethod
    def default(cls):
        return cls(
            names=("air_vehicle", "ground_vehicle"),
            grouping={
                "air_vehicle": SuperCategory.AIR,
                "ground_vehicle": SuperCategory.GROUND,
            },
        )

    def __len__(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"unknown class {name!r}; known: {list(self.names)}") from None

    def supercategory(self, name):
        try:
            return self.grouping[name]
        except KeyError:
            raise DomainError(f"unknown class {name!r}; known: {list(self.names)}") from None


@dataclass(frozen=True, slots=True)
class Detection:
    """A grouped keypoint triplet with its assembled, offset-refined box."""

    box: Box2D
    top_left: Keypoint
    bottom_right: Keypoint
    center: Keypoint
    tag: float

    @property
    def class_id(self):
        return self.box.class_id

    @property
    def score(self):
        return self.box.score


class BundleMap(NamedTuple):
    """One map of a frame bundle: its name; where `MapBundle` keeps it,
    `getattr(bundle, field)`, indexed by `kind` unless that is None; its
    role; and its channel count. `channels` None is the heatmaps' class
    count, the channels of heatmap_tl; a `per_bin` map has `channels` for
    each of its N >= 1 orientation bins."""

    name: str
    field: str
    kind: Optional[KeypointKind]
    role: MapRole
    channels: Optional[int]
    per_bin: bool = False

    def misfit(self, shape, role, first):
        """The first way a map of (H, W, C) `shape` and `role` breaks this
        entry, as (field, reason) with field "height", "width", "channels"
        or "role"; None if it fits. `first` is the (H, W, C) of the
        bundle's first map, heatmap_tl."""
        for field, got, want in (("height", shape[0], first[0]), ("width", shape[1], first[1])):
            if got != want:
                return field, f"{field} {got}, expected {want}"
        channels = shape[2]
        want = first[2] if self.channels is None else self.channels
        if self.per_bin:
            if channels < want or channels % want:
                return "channels", (
                    f"{channels} channels, expected {want}N (3 angles x N bins x 3 values)"
                )
        elif channels != want:
            return "channels", f"{channels} channels, expected {want}"
        if role is not self.role:
            return "role", f"role {role.name}, expected {self.role.name}"
        return None


# The maps of a frame bundle, in the order of `MapBundle.maps()` and of
# the bundle file: the 8 every bundle has, then the 3D heads.
BUNDLE_MAPS = (
    *(BundleMap(f"heatmap_{k.value}", "heatmaps", k, MapRole.HEATMAP, None) for k in ALL_KINDS),
    *(BundleMap(f"embedding_{k.value}", "embeddings", k, MapRole.EMBEDDING, 1) for k in CORNER_KINDS),
    *(BundleMap(f"offset_{k.value}", "offsets", k, MapRole.OFFSET, 2) for k in ALL_KINDS),
    BundleMap("aux_depth", "aux_depth", None, MapRole.GENERIC, 1),
    BundleMap("aux_dims", "aux_dims", None, MapRole.GENERIC, 3),
    BundleMap("aux_orientation", "aux_orientation", None, MapRole.GENERIC, 9, per_bin=True),
)

# field -> {kind: name} of the maps `MapBundle` keeps by keypoint kind.
_KIND_NAMES = {
    field: {entry.kind: entry.name for entry in BUNDLE_MAPS if entry.field == field}
    for field in ("heatmaps", "embeddings", "offsets")
}


def _bundle_fields(maps):
    """{MapBundle field: value} of the maps of a bundle in `BUNDLE_MAPS`
    order; a 3D head that `maps` ends before is None."""
    fields = {entry.field: None if entry.kind is None else {} for entry in BUNDLE_MAPS}
    for entry, fmap in zip(BUNDLE_MAPS, maps):
        if entry.kind is None:
            fields[entry.field] = fmap
        else:
            fields[entry.field][entry.kind] = fmap
    return fields


@dataclass(frozen=True)
class MapBundle:
    """The per-frame tensor set an ideal network would emit, the maps of
    `BUNDLE_MAPS`.

    Required: one heatmap per keypoint kind (C class channels each), one
    1-channel embedding per corner kind, and one 2-channel offset map per
    kind. Optionally carries the three per-center 3D head maps, all
    three or none: log-depth (1 channel), box dims (3 channels), and
    multibin orientation (3 angles x N bins x (confidence, cos, sin) =
    9N channels).
    """

    heatmaps: Mapping[KeypointKind, FeatureMap]
    embeddings: Mapping[KeypointKind, FeatureMap]
    offsets: Mapping[KeypointKind, FeatureMap]
    aux_depth: Optional[FeatureMap] = None
    aux_dims: Optional[FeatureMap] = None
    aux_orientation: Optional[FeatureMap] = None

    def __post_init__(self):
        for field, names in _KIND_NAMES.items():
            by_kind = dict(getattr(self, field))
            for kind, name in names.items():
                if kind not in by_kind:
                    raise ConfigurationError(f"{name} is missing")
            for kind in by_kind:
                if kind not in names:
                    raise ConfigurationError(f"{field}[{kind!r}] is not a bundle map")
            object.__setattr__(self, field, by_kind)

        heads = (self.aux_depth, self.aux_dims, self.aux_orientation)
        if sum(head is None for head in heads) not in (0, 3):
            raise ConfigurationError(
                "bundle needs all three 3D heads (aux_depth, aux_dims, aux_orientation) or none"
            )
        maps = self.maps()
        for entry, fmap in zip(BUNDLE_MAPS, maps):
            misfit = entry.misfit(fmap.shape, fmap.role, maps[0].shape)
            if misfit is not None:
                raise ConfigurationError(f"{entry.name}: {misfit[1]}")

    @classmethod
    def from_maps(cls, maps):
        """The bundle whose `maps()` are `maps`: its 8 or 11 maps in
        `BUNDLE_MAPS` order."""
        maps = tuple(maps)
        if len(maps) > len(BUNDLE_MAPS):
            raise ConfigurationError(f"{len(maps)} maps, a bundle has {len(BUNDLE_MAPS)} at most")
        return cls(**_bundle_fields(maps))

    @classmethod
    def _from_checked_maps(cls, maps):
        """The bundle whose `maps()` are `maps`, 8 or 11 maps that the
        caller has checked against their `BUNDLE_MAPS` entries as
        `__post_init__` would, built without checking them again."""
        bundle = cls.__new__(cls)
        for field, value in _bundle_fields(maps).items():
            object.__setattr__(bundle, field, value)
        return bundle

    def maps(self):
        """The bundle's 8 maps, or 11 with the 3D heads, in `BUNDLE_MAPS`
        order."""
        fields = [(getattr(self, entry.field), entry.kind) for entry in BUNDLE_MAPS]
        maps = (value if kind is None else value[kind] for value, kind in fields)
        return tuple(fmap for fmap in maps if fmap is not None)

    @property
    def height(self):
        return self.heatmaps[KeypointKind.TOP_LEFT].height

    @property
    def width(self):
        return self.heatmaps[KeypointKind.TOP_LEFT].width

    @property
    def num_classes(self):
        return self.heatmaps[KeypointKind.TOP_LEFT].channels

    @property
    def has_aux(self):
        return self.aux_depth is not None
