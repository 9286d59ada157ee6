"""Binary tensor dump format for feature maps, and on-disk map bundles.

Layout (little-endian):
  magic   4 bytes  b"FMAP"
  version u32      1
  height  u32
  width   u32
  channels u32
  role    u8       0=heatmap 1=embedding 2=offset 3=generic
  payload H*W*C float32, row-major (row, col, channel)
"""

import mmap
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

_HEADER = struct.Struct("<4sIIIIB")
_PAYLOAD_OFFSET = _HEADER.size  # 21 bytes

# Header field offsets, used in parse errors.
_OFF_MAGIC = 0
_OFF_VERSION = 4
_OFF_HEIGHT = 8
_OFF_WIDTH = 12
_OFF_CHANNELS = 16
_OFF_ROLE = 20


def dump_fmap(fmap):
    """Serialize a feature map to bytes."""
    header = _HEADER.pack(
        MAGIC, VERSION, fmap.height, fmap.width, fmap.channels, int(fmap.role)
    )
    payload = np.ascontiguousarray(fmap.data, dtype="<f4")
    # Concatenating the array's buffer copies the payload once; going
    # through tobytes() first would hold two copies at the peak.
    return header + payload.data


def parse_fmap(blob):
    """Parse bytes produced by :func:`dump_fmap` back into a feature map."""
    if len(blob) < _PAYLOAD_OFFSET:
        raise ParseError(
            f"truncated header: need {_PAYLOAD_OFFSET} bytes, got {len(blob)}",
            offset=len(blob),
        )
    magic, version, height, width, channels, role = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=_OFF_MAGIC)
    if version != VERSION:
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
    naming the file.

    The file is mapped read-only and parsed in place, so the payload's one
    copy is the one FeatureMap makes. This relies on no page of the mapping
    vanishing (SIGBUS) while it is read: the mapping lives only while the
    payload is checked and copied, and det3d never shrinks a dump in place
    (atomic_write_bytes writes a temp file and renames it over the old one).
    """
    name = os.fspath(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise ParseError(f"missing tensor dump {name!r}") from None
    with fh:
        # An empty file cannot be mapped; parse_fmap rejects b"" as a
        # truncated header.
        size = os.fstat(fh.fileno()).st_size
        blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    try:
        return parse_fmap(blob)
    except ParseError as exc:
        # Only the message leaves this handler: the traceback holds numpy
        # views of the mapping, which would make closing it raise BufferError.
        error = ParseError(f"{name}: {exc}")
        error.offset = exc.offset
    finally:
        if size:
            blob.close()
    raise error


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
    """Load a bundle saved by :func:`save_bundle`; aux maps are optional."""
    fields = {field: {} for field in _GROUP_FIELDS.values()}
    for (group, key), name in bundle_filenames().items():
        path = os.path.join(directory, name)
        if group == "aux":
            fields[f"aux_{key}"] = load_fmap(path) if os.path.exists(path) else None
        else:
            fields[_GROUP_FIELDS[group]][key] = load_fmap(path)
    return MapBundle(**fields)
