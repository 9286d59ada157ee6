"""Binary tensor dump format for feature maps, and on-disk map bundles.

Layout (little-endian), a 21-byte header:
  magic   4 bytes  b"FMAP"
  version u32      1 (dense) or 2 (cells)
  height  u32
  width   u32
  channels u32
  role    u8       0=heatmap 1=embedding 2=offset 3=generic

then, for version 1 (a dense map):
  payload H*W*C float32, row-major (row, col, channel)

or, for version 2 (a cell-stored map, see FeatureMap.from_cells):
  count   u32      n <= H*W
  cells   n u32    strictly increasing flat cell indices (row * W + col)
  values  n*C float32, the channels of each cell in turn

A version-2 map reads 0.0 at every cell it does not list. `dump_fmap`
writes a map in the storage it has, so every map of a bundle from
`render_ideal_maps` is version 2, while a dense map, such as a
`corrupt_maps` one, is version 1. Both versions load.
"""

import os
import struct

import numpy as np

from .core import (
    ALL_KINDS,
    CORNER_KINDS,
    Det3DError,
    FeatureMap,
    MapBundle,
    MapRole,
    ParseError,
)
from .ioutil import atomic_write_bytes

__all__ = [
    "MAGIC",
    "VERSION",
    "VERSION_CELLS",
    "dump_fmap",
    "parse_fmap",
    "save_fmap",
    "load_fmap",
    "bundle_filenames",
    "save_bundle",
    "load_bundle",
]

MAGIC = b"FMAP"
VERSION = 1
VERSION_CELLS = 2

_HEADER = struct.Struct("<4sIIIIB")
_PAYLOAD_OFFSET = _HEADER.size  # 21 bytes
_COUNT = struct.Struct("<I")
_CELLS_OFFSET = _PAYLOAD_OFFSET + _COUNT.size  # 25 bytes

# Header field offsets, used in parse errors.
_OFF_MAGIC = 0
_OFF_VERSION = 4
_OFF_HEIGHT = 8
_OFF_WIDTH = 12
_OFF_CHANNELS = 16
_OFF_ROLE = 20


def dump_fmap(fmap):
    """Serialize a feature map to bytes: version 1 when it is dense,
    version 2 when it is cell-stored."""
    table = fmap.cell_table
    header = _HEADER.pack(
        MAGIC,
        VERSION if table is None else VERSION_CELLS,
        fmap.height,
        fmap.width,
        fmap.channels,
        int(fmap.role),
    )
    if table is not None:
        cells, values = table
        return b"".join(
            (header, _COUNT.pack(cells.size), cells.astype("<u4").data, values.astype("<f4").data)
        )
    payload = np.ascontiguousarray(fmap.data, dtype="<f4")
    # Concatenating the array's buffer copies the payload once; going
    # through tobytes() first would hold two copies at the peak.
    return header + payload.data


def _first(mask):
    """Index of the first True of a 1-D mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _parse_cells(blob, height, width, channels, role):
    """The version-2 body after the header; every malformed field raises
    ParseError at its own byte offset."""
    if len(blob) < _CELLS_OFFSET:
        raise ParseError(
            f"truncated cell count: need 4 bytes, got {len(blob) - _PAYLOAD_OFFSET}",
            offset=_PAYLOAD_OFFSET,
        )
    (count,) = _COUNT.unpack_from(blob, _PAYLOAD_OFFSET)
    n_cells = height * width
    if count > n_cells:
        raise ParseError(
            f"cell count {count} exceeds the {n_cells} cells of a {height}x{width} map",
            offset=_PAYLOAD_OFFSET,
        )
    expected = count * 4 * (1 + channels)
    actual = len(blob) - _CELLS_OFFSET
    if actual != expected:
        raise ParseError(
            f"cell table holds {actual} bytes, expected {expected} "
            f"for {count} cells of {channels} channels",
            offset=_CELLS_OFFSET,
        )
    cells = np.frombuffer(blob, dtype="<u4", count=count, offset=_CELLS_OFFSET)
    values_offset = _CELLS_OFFSET + 4 * count
    values = np.frombuffer(blob, dtype="<f4", offset=values_offset)
    k = _first(cells >= n_cells)
    if k is not None:
        raise ParseError(
            f"cell index {cells[k]} out of range [0, {n_cells})", offset=_CELLS_OFFSET + 4 * k
        )
    k = _first(cells[1:] <= cells[:-1])
    if k is not None:
        raise ParseError(
            f"cell indices must be strictly increasing, got {cells[k]} then {cells[k + 1]}",
            offset=_CELLS_OFFSET + 4 * (k + 1),
        )
    k = _first(~np.isfinite(values))
    if k is not None:
        raise ParseError(f"non-finite value {values[k]}", offset=values_offset + 4 * k)
    if role is MapRole.HEATMAP:
        k = _first((values < 0.0) | (values > 1.0))
        if k is not None:
            raise ParseError(
                f"heatmap value {values[k]:g} outside [0, 1]", offset=values_offset + 4 * k
            )
    return FeatureMap.from_cells(
        cells, values.reshape(count, channels), height, width, role=role
    )


def parse_fmap(blob):
    """Parse bytes produced by :func:`dump_fmap` back into a feature map
    stored as the bytes were: dense from version 1, as cells from 2."""
    if len(blob) < _PAYLOAD_OFFSET:
        raise ParseError(
            f"truncated header: need {_PAYLOAD_OFFSET} bytes, got {len(blob)}",
            offset=len(blob),
        )
    magic, version, height, width, channels, role = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=_OFF_MAGIC)
    if version not in (VERSION, VERSION_CELLS):
        raise ParseError(f"unsupported version {version}", offset=_OFF_VERSION)
    if height < 1:
        raise ParseError(f"height must be >= 1, got {height}", offset=_OFF_HEIGHT)
    if width < 1:
        raise ParseError(f"width must be >= 1, got {width}", offset=_OFF_WIDTH)
    if channels < 1:
        raise ParseError(f"channels must be >= 1, got {channels}", offset=_OFF_CHANNELS)
    try:
        role = MapRole(role)
    except ValueError:
        raise ParseError(f"unknown role tag {role}", offset=_OFF_ROLE) from None
    if version == VERSION_CELLS:
        return _parse_cells(blob, height, width, channels, role)

    expected = height * width * channels * 4
    actual = len(blob) - _PAYLOAD_OFFSET
    if actual != expected:
        raise ParseError(
            f"payload holds {actual} bytes, expected {expected} "
            f"for a {height}x{width}x{channels} map",
            offset=_PAYLOAD_OFFSET,
        )
    values = np.frombuffer(blob, dtype="<f4", offset=_PAYLOAD_OFFSET)
    try:
        return FeatureMap(values.reshape(height, width, channels), role=role)
    except Det3DError as exc:
        raise ParseError(f"invalid payload: {exc}", offset=_PAYLOAD_OFFSET) from exc


def save_fmap(path, fmap):
    atomic_write_bytes(path, dump_fmap(fmap))


def load_fmap(path):
    """Load a tensor dump from disk; a malformed one raises ParseError
    naming the file, at the offset parse_fmap gives.

    The file is read whole into one bytes object, which parse_fmap checks
    and FeatureMap copies; the dumps of a rendered bundle are cell tables
    of a few kilobytes each.
    """
    name = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise ParseError(f"missing tensor dump {name!r}") from None
    try:
        return parse_fmap(blob)
    except ParseError as exc:
        error = ParseError(f"{name}: {exc}")
        error.offset = exc.offset
        raise error from exc


_AUX_HEADS = ("depth", "dims", "orientation")
# MapBundle field of each required group of bundle_filenames.
_GROUP_FIELDS = {"heatmap": "heatmaps", "offset": "offsets", "embedding": "embeddings"}


def bundle_filenames():
    """Canonical file names for a per-frame bundle directory, keyed by
    (group, kind) for the required maps and ("aux", head) for the
    optional 3D head maps."""
    names = {}
    for kind in ALL_KINDS:
        names[("heatmap", kind)] = f"heatmap_{kind.value}.fmap"
        names[("offset", kind)] = f"offset_{kind.value}.fmap"
    for kind in CORNER_KINDS:
        names[("embedding", kind)] = f"embedding_{kind.value}.fmap"
    for head in _AUX_HEADS:
        names[("aux", head)] = f"aux_{head}.fmap"
    return names


def save_bundle(directory, bundle):
    """Write every map of a bundle into a directory with canonical names."""
    os.makedirs(directory, exist_ok=True)
    for (group, key), name in bundle_filenames().items():
        if group == "aux":
            fmap = getattr(bundle, f"aux_{key}")
        else:
            fmap = getattr(bundle, _GROUP_FIELDS[group])[key]
        if fmap is not None:
            save_fmap(os.path.join(directory, name), fmap)


def load_bundle(directory):
    """Load a bundle saved by :func:`save_bundle`. The three aux maps are
    optional together: when any of them exists, a missing one is an error."""
    names = bundle_filenames()
    aux = any(os.path.exists(os.path.join(directory, names[("aux", h)])) for h in _AUX_HEADS)
    fields = {field: {} for field in _GROUP_FIELDS.values()}
    for (group, key), name in names.items():
        path = os.path.join(directory, name)
        if group == "aux":
            fields[f"aux_{key}"] = load_fmap(path) if aux else None
        else:
            fields[_GROUP_FIELDS[group]][key] = load_fmap(path)
    return MapBundle(**fields)
