"""The JSON layout of det3d's four documents, written and read in one place.

- **scene** (`scenes/<id>.json`): one synthesized frame's `id`,
  `image_size`, `camera`, sweep `point`, taxonomy, `objects` and
  `metadata`.
- **truth** (`truth.json`) and **detections** (`decode --out`): a taxonomy
  plus `frames`, each frame id's list of objects.
- **manifest** (`manifest.json`): a dataset's taxonomy, `stride` and
  `samples`, among its settings.

A taxonomy is the `classes` list plus the `super` map. Every reader takes
`where`, the place of what it reads: a file name, then the JSON path
within the file. A malformed or missing field raises ParseError naming
that place, so no field of a document reaches a raw conversion.
"""

import dataclasses
import json
from enum import Enum

from .core import (
    Box2D, Box3D, CameraIntrinsics, ClassTaxonomy, DomainError, ParseError, SuperCategory,
)

__all__ = [
    "load", "field", "string", "integer", "count", "number", "items", "read_camera",
    "write_object", "read_object", "read_frames", "write_taxonomy", "read_taxonomy",
    "super_category", "read_samples", "write_record", "read_record",
]

_REQUIRED = object()
_KINDS = {dict: "object", list: "list"}
_BOX2D = ("x_min", "y_min", "x_max", "y_max")
_BOX3D = ("center", "dims", "orientation")


def load(path):
    """The JSON value of the UTF-8 file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"missing file {path!r}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _expect(value, kind, where):
    if not isinstance(value, kind):
        raise ParseError(f"{where}: expected a JSON {_KINDS[kind]}, got {type(value).__name__}")
    return value


def field(data, key, where, convert=None, default=_REQUIRED):
    """data[key] of the JSON object at `where`, or `default`, when given, for
    an absent field. `convert` is dict or list to require that JSON type, or
    a function whose TypeError, ValueError or LookupError is an invalid value.
    """
    if not isinstance(data, dict):
        raise ParseError(
            f"{where}: expected a JSON object with a {key!r} field, got {type(data).__name__}"
        )
    if key not in data:
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing field {key!r}")
        return default
    value = data[key]
    if convert in _KINDS:
        return _expect(value, convert, f"{where}: {key}")
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, LookupError):
        raise ParseError(f"{where}.{key}: invalid value {value!r}") from None


def _json_type(kind, cast=None):
    """Converter that takes only values of `kind`; JSON booleans are not numbers."""

    def convert(value):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(type(value).__name__)
        return value if cast is None else cast(value)

    return convert


string = _json_type(str)
integer = _json_type(int)
number = _json_type((int, float), float)  # a JSON number, as a float


def count(value):
    """A JSON integer >= 1."""
    if integer(value) < 1:
        raise ValueError(value)
    return value


def items(convert, length=None):
    """Converter of a JSON list (of `length` values, when given) to a tuple
    of its values, each passed through `convert`."""

    def read(value):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(type(value).__name__)
        return tuple(convert(v) for v in value)

    return read


_triple = items(number, 3)
_matrix = items(items(number, 4), 3)


def read_camera(data, where):
    """The CameraIntrinsics of the `camera` object (its 3x4 `p`) of `data`."""
    camera = field(data, "camera", where)
    return field(camera, "p", f"{where}: camera", lambda p: CameraIntrinsics(_matrix(p)))


def write_object(label, box2d, box3d, score=None):
    """A labelled object. A None `box3d` is written as null; a None `score`
    is left out, as in scene files."""
    obj = {
        "class": label,
        "box2d": {name: getattr(box2d, name) for name in _BOX2D},
        "box3d": None if box3d is None else {name: list(getattr(box3d, name)) for name in _BOX3D},
    }
    if score is not None:
        obj["score"] = score
    return obj


def _build(where, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None


def read_object(obj, where, names=None):
    """(class, Box2D, 3D part) of the object at `where`; `score` defaults to 1.0.

    Given a taxonomy's class `names` (scene objects), the class must be one
    of them, both boxes carry its index, and the 3D part is the Box3D of the
    required `box3d`. Otherwise (truth and detections, as `eval` reads them)
    the index is 0 and the 3D part is the depth of the `box3d` center, or
    None when `box3d` is absent or null.
    """
    label = field(obj, "class", where, string)
    class_id = 0 if names is None else field(obj, "class", where, names.index)
    score = field(obj, "score", where, number, 1.0)
    box2d = field(obj, "box2d", where)
    coords = [field(box2d, name, f"{where}.box2d", number) for name in _BOX2D]
    box2d = _build(where, Box2D, *coords, class_id=class_id, score=score)
    if names is None:
        box3d = field(obj, "box3d", where, default=None)
        depth = None if box3d is None else field(box3d, "center", f"{where}.box3d", _triple)[2]
        return label, box2d, depth
    box3d = field(obj, "box3d", where, dict)
    triples = [field(box3d, name, f"{where}.box3d", _triple) for name in _BOX3D]
    return label, box2d, _build(where, Box3D, *triples, class_id=class_id, score=score)


def read_frames(data, where):
    """Each frame id's objects (see `read_object`) of a truth or detections
    document; an absent `frames` is empty."""
    frames = {}
    for fid, objects in field(data, "frames", where, dict, {}).items():
        frame = f"{where}: frames[{fid!r}]"
        _expect(objects, list, frame)
        frames[fid] = [read_object(obj, f"{frame}[{k}]") for k, obj in enumerate(objects)]
    return frames


def write_taxonomy(taxonomy):
    supers = {name: cat.value for name, cat in taxonomy.grouping.items()}
    return {"classes": list(taxonomy.names), "super": supers}


def read_taxonomy(data, where, classes=_REQUIRED, complete=False):
    """(ClassTaxonomy, the `super` map as read) of a document.

    `classes` stands in for an absent `classes` list. The `super` map
    defaults to {} and a class it leaves out is Ground, unless `complete`,
    when the map is required and must name every class.
    """
    names = field(data, "classes", where, items(string), classes)
    supers = field(data, "super", where, dict, _REQUIRED if complete else {})
    default = _REQUIRED if complete else "Ground"
    grouping = {name: super_category(supers, name, where, default) for name in names}
    return _build(where, ClassTaxonomy, names=tuple(names), grouping=grouping), supers


def super_category(supers, name, where, default=_REQUIRED):
    """The SuperCategory that the `super` map of the document at `where`
    gives class `name`; `default` stands in for an absent entry."""
    value = field(supers, name, f"{where}: super", default=default)
    try:
        return SuperCategory(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: super[{name!r}]: invalid value {value!r}") from None


def read_samples(manifest, where, keys):
    """(id, then the string fields `keys`) of each manifest sample, one
    tuple per sample. No two samples share an id."""
    samples, seen = [], set()
    for k, entry in enumerate(field(manifest, "samples", where, list)):
        place = f"{where}: samples[{k}]"
        sample = tuple(field(entry, key, place, string) for key in ("id",) + keys)
        if sample[0] in seen:
            raise ParseError(f"{place}.id: duplicate id {sample[0]!r}")
        seen.add(sample[0])
        samples.append(sample)
    return samples


_SCALARS = {int: integer, float: number, bool: _json_type(bool), str: string}


def write_record(record):
    """A flat dataclass as a JSON object of its fields; an Enum field is
    written as its value."""
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


def read_record(cls, data, where):
    """The flat dataclass `cls` read from the JSON object at `where`, each
    field by its declared type: int, float, bool, str or an Enum."""
    return cls(**{
        f.name: field(data, f.name, where, _SCALARS.get(f.type, f.type))
        for f in dataclasses.fields(cls)
    })
