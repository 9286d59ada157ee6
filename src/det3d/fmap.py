"""Binary tensor dump format for feature maps, and the one-file frame bundle.

A record (little-endian) is a 21-byte header:
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
writes a cell-stored map as version 2 and any other as version 1, so
every map of a bundle from `render_ideal_maps` is version 2. A
`corrupt_maps` bundle holds dense heatmaps and offset and embedding maps
noised on read (`FeatureMap.noised`), all written as version 1, whose
values are the noised map's `data`; its 3D heads stay version 2. Both
versions load.

A frame bundle is one file, `<frame directory>/bundle.fmap`: the records
of its maps with nothing between them, in the order of `core.BUNDLE_MAPS`:
the 8 maps every bundle has, then all three 3D heads or none. A record's
length comes from its own header (H*W*C values for version 1, the cell
count for version 2), so the file needs no index. `load_bundle` checks a
file in one pass: its headers record by record, then the cell tables of
all its records together. A malformed file is parsed again record by
record, so its error is unchanged: that of its first fault in file
order, as a record-by-record parse meets it.
"""

import os
import struct
from collections import namedtuple

import numpy as np

from .core import BUNDLE_MAPS, Det3DError, FeatureMap, MapBundle, MapRole, ParseError
from .ioutil import atomic_write_bytes

__all__ = [
    "MAGIC",
    "VERSION",
    "VERSION_CELLS",
    "dump_fmap",
    "parse_fmap",
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

# Header field offsets, used in parse errors; `BundleMap.misfit` names a
# field by its key here.
_OFF = {"magic": 0, "version": 4, "height": 8, "width": 12, "channels": 16, "role": 20}

_BUNDLE_FILE = "bundle.fmap"

# A checked header: count is the version-2 cell count (None for version
# 1), and end the byte offset where the record stops.
_Header = namedtuple("_Header", "height width channels role count end")


def dump_fmap(fmap):
    """Serialize a feature map to bytes: version 2 when it is cell-stored,
    version 1 (its `data`) otherwise."""
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


def _header(blob, start):
    """Check the header of the record at byte `start` of blob, and find
    where the record ends from the header alone: it is 21 + 4*H*W*C
    bytes long for version 1, and 25 + 4*n*(1 + C) for version 2 with n
    cells. Every ParseError names its byte offset into blob."""
    got = len(blob) - start
    if got < _PAYLOAD_OFFSET:
        raise ParseError(
            f"truncated header: need {_PAYLOAD_OFFSET} bytes, got {got}", offset=len(blob)
        )
    magic, version, height, width, channels, role = _HEADER.unpack_from(blob, start)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=start + _OFF["magic"])
    if version not in (VERSION, VERSION_CELLS):
        raise ParseError(f"unsupported version {version}", offset=start + _OFF["version"])
    if height < 1:
        raise ParseError(f"height must be >= 1, got {height}", offset=start + _OFF["height"])
    if width < 1:
        raise ParseError(f"width must be >= 1, got {width}", offset=start + _OFF["width"])
    if channels < 1:
        raise ParseError(f"channels must be >= 1, got {channels}", offset=start + _OFF["channels"])
    try:
        role = MapRole(role)
    except ValueError:
        raise ParseError(f"unknown role tag {role}", offset=start + _OFF["role"]) from None
    if version == VERSION:
        end = start + _PAYLOAD_OFFSET + 4 * height * width * channels
        return _Header(height, width, channels, role, None, end)
    if got < _CELLS_OFFSET:
        raise ParseError(
            f"truncated cell count: need 4 bytes, got {got - _PAYLOAD_OFFSET}",
            offset=start + _PAYLOAD_OFFSET,
        )
    (count,) = _COUNT.unpack_from(blob, start + _PAYLOAD_OFFSET)
    n_cells = height * width
    if count > n_cells:
        raise ParseError(
            f"cell count {count} exceeds the {n_cells} cells of a {height}x{width} map",
            offset=start + _PAYLOAD_OFFSET,
        )
    end = start + _CELLS_OFFSET + 4 * count * (1 + channels)
    return _Header(height, width, channels, role, count, end)


def _parse_cells(blob, body, header):
    """The version-2 cell table from byte `body` of blob to its end, which
    holds exactly the table; every malformed field raises ParseError at
    its own byte offset."""
    count = header.count
    n_cells = header.height * header.width
    cells = np.frombuffer(blob, dtype="<u4", count=count, offset=body)
    values_offset = body + 4 * count
    values = np.frombuffer(blob, dtype="<f4", offset=values_offset)
    k = _first(cells >= n_cells)
    if k is not None:
        raise ParseError(f"cell index {cells[k]} out of range [0, {n_cells})", offset=body + 4 * k)
    k = _first(cells[1:] <= cells[:-1])
    if k is not None:
        raise ParseError(
            f"cell indices must be strictly increasing, got {cells[k]} then {cells[k + 1]}",
            offset=body + 4 * (k + 1),
        )
    k = _first(~np.isfinite(values))
    if k is not None:
        raise ParseError(f"non-finite value {values[k]}", offset=values_offset + 4 * k)
    if header.role is MapRole.HEATMAP:
        k = _first((values < 0.0) | (values > 1.0))
        if k is not None:
            raise ParseError(
                f"heatmap value {values[k]:g} outside [0, 1]", offset=values_offset + 4 * k
            )
    return FeatureMap.from_cells(
        cells, values.reshape(count, header.channels), header.height, header.width, role=header.role
    )


def _parse_record(blob, start, header):
    """The map of the record at byte `start` of blob, whose checked header
    is `header`; the record must fill blob to its end."""
    height, width, channels, role, count, end = header
    body = start + (_PAYLOAD_OFFSET if count is None else _CELLS_OFFSET)
    if len(blob) != end:
        actual, expected = len(blob) - body, end - body
        if count is None:
            message = (
                f"payload holds {actual} bytes, expected {expected} "
                f"for a {height}x{width}x{channels} map"
            )
        else:
            message = (
                f"cell table holds {actual} bytes, expected {expected} "
                f"for {count} cells of {channels} channels"
            )
        raise ParseError(message, offset=body)
    if count is not None:
        return _parse_cells(blob, body, header)
    values = np.frombuffer(blob, dtype="<f4", offset=body)
    try:
        return FeatureMap(values.reshape(height, width, channels), role=role)
    except Det3DError as exc:
        raise ParseError(f"invalid payload: {exc}", offset=body) from exc


def parse_fmap(blob):
    """Parse bytes produced by :func:`dump_fmap` back into a feature map
    stored as the bytes were: dense from version 1, as cells from 2."""
    return _parse_record(blob, 0, _header(blob, 0))


def save_bundle(directory, bundle):
    """Write a bundle as one file, `<directory>/bundle.fmap`, with one
    atomic write: the records of `bundle.maps()`, in `core.BUNDLE_MAPS`
    order."""
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(
        os.path.join(directory, _BUNDLE_FILE), b"".join(dump_fmap(fmap) for fmap in bundle.maps())
    )


def _named(path, entry, exc):
    """ParseError `exc` of a record of the bundle file at `path`, named by
    the file and the record's `core.BUNDLE_MAPS` entry."""
    error = ParseError(f"{path}: {entry.name}: {exc}")
    error.offset = exc.offset
    return error


def _records(path, view):
    """Yield (entry, start, header) of each record of the bundle file
    `view`, in file order, once its header is checked and fits its
    `core.BUNDLE_MAPS` entry: its height and width those of the first
    record, its channel count and its role those of the entry. A fault
    raises ParseError naming the file, the map and a byte offset, and so
    do bytes after the last record."""
    start, first = 0, None
    for index, entry in enumerate(BUNDLE_MAPS):
        # A bundle without 3D heads (the maps of no keypoint kind) ends
        # where the first of them would start.
        if start == len(view) and entry.kind is None and BUNDLE_MAPS[index - 1].kind is not None:
            break
        try:
            header = _header(view, start)
            first = first or header[:3]
            misfit = entry.misfit(header[:3], header.role, first)
            if misfit is not None:
                field, reason = misfit
                raise ParseError(reason, offset=start + _OFF[field])
        except ParseError as exc:
            raise _named(path, entry, exc) from exc
        yield entry, start, header
        start = header.end
    if start != len(view):
        raise ParseError(
            f"{path}: {entry.name}: {len(view) - start} bytes after the last record", offset=start
        )


def _parse_bundle(path, view):
    """The bundle of the file `view`, parsed record by record: a record's
    table or payload is checked before the next record's header, so a
    malformed file raises the ParseError of its first fault in file
    order."""
    maps = []
    for entry, start, header in _records(path, view):
        try:
            maps.append(_parse_record(view[: header.end], start, header))
        except ParseError as exc:
            raise _named(path, entry, exc) from exc
    return MapBundle.from_maps(maps)


def _checked_bundle(view, records):
    """The bundle of the file `view`, whose `_records` all passed, or None
    if a record's cell table or payload is malformed.

    The cell tables of all version-2 records are checked at once, on
    their cells and values joined in file order: every cell inside the
    map, cells strictly increasing within each record, every value
    finite, and every heatmap value in [0, 1]. The maps keep views of the
    joined arrays, so no table is copied twice."""
    tables = [(start + _CELLS_OFFSET, h) for _, start, h in records if h.count is not None]
    if tables:
        # `_records` passed, so every table lies inside the file.
        cells = np.concatenate(
            [np.frombuffer(view, "<u4", h.count, body) for body, h in tables], dtype=np.intp
        )
        values = np.concatenate(
            [np.frombuffer(view, "<f4", h.count * h.channels, body + 4 * h.count) for body, h in tables],
            dtype=np.float32,
        )
        # Cell c (< 2**32) of the k-th table has key k * 2**32 + c: the keys
        # increase iff the cells of each table do.
        tags = np.arange(len(tables), dtype=np.int64) << 32
        keys = cells + np.repeat(tags, [h.count for _, h in tables])
        # The heatmaps are the file's first records, so their values lead.
        heat = values[: sum(h.count * h.channels for _, h in tables if h.role is MapRole.HEATMAP)]
        first = records[0][2]
        if not (
            int(cells.max(initial=0)) < first.height * first.width
            and (keys[1:] > keys[:-1]).all()
            and np.isfinite(values).all()
            and ((heat >= 0.0) & (heat <= 1.0)).all()
        ):
            return None
    maps, cell_at, value_at = [], 0, 0
    for _, start, (height, width, channels, role, count, _) in records:
        if count is None:
            payload = np.frombuffer(view, "<f4", height * width * channels, start + _PAYLOAD_OFFSET)
            try:
                maps.append(FeatureMap(payload.reshape(height, width, channels), role=role))
            except Det3DError:
                return None
            continue
        table = values[value_at : value_at + count * channels].reshape(count, channels)
        table_cells = cells[cell_at : cell_at + count]
        maps.append(FeatureMap._from_checked_cells(table_cells, table, height, width, role))
        cell_at, value_at = cell_at + count, value_at + count * channels
    return MapBundle._from_checked_maps(maps)


def load_bundle(directory):
    """Load a bundle saved by :func:`save_bundle`, reading its file once.

    Every record header is checked against its `core.BUNDLE_MAPS` entry:
    its height and width against the first record's, its channel count
    and its role. Then the cell tables of all records are checked
    together, in one pass over the file's joined cells and values. A
    missing or unreadable file raises ParseError naming it. A malformed
    record, a record that does not fit its entry, a file that ends after
    9 or 10 records, and bytes after the last record raise ParseError
    naming the file, the map and a byte offset into the file: the error
    of the first fault in file order, as a record-by-record parse meets
    it.
    """
    path = os.path.join(os.fspath(directory), _BUNDLE_FILE)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise ParseError(f"missing tensor dump {path!r}") from None
    except OSError as exc:
        raise ParseError(f"cannot read tensor dump {path!r}: {exc.strerror or exc}") from None
    view = memoryview(blob)
    try:
        bundle = _checked_bundle(view, list(_records(path, view)))
    except ParseError:  # a header fault, which a table fault before it wins over
        bundle = None
    # A malformed file is parsed again record by record, which raises
    # the error of its first fault.
    return _parse_bundle(path, view) if bundle is None else bundle
