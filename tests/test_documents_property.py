"""Property tests of det3d's serialized formats: the JSON documents (scene,
manifest, truth and detections), `.fmap` blobs and bundle files, and KITTI
label lines.

Kept apart from the example-based tests so that those still run where the
optional `hypothesis` package is not installed.
"""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import shutil
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from det3d import fmap
from det3d.cli import main
from det3d.core import (
    ALL_KINDS,
    CORNER_KINDS,
    FeatureMap,
    GenerationError,
    MapBundle,
    MapRole,
    ParseError,
    SuperCategory,
)
from det3d.fmap import dump_fmap, load_bundle, parse_fmap, save_bundle
from det3d.ioutil import stable_json_chunks, stable_json_dumps
from det3d.kitti import KittiLabelRecord, parse_kitti_label, write_kitti_label
from det3d.synthgen import (
    Category,
    SceneKind,
    SweepPoint,
    SweepSpec,
    enumerate_sweep,
    generate_scene,
    scene_from_dict,
    scene_to_dict,
)


def _through_json(document):
    return json.loads(stable_json_dumps(document))


@st.composite
def scenes(draw):
    spec = SweepSpec(
        category=draw(st.sampled_from(list(Category))),
        super_category=draw(st.sampled_from(list(SuperCategory))),
        scene=draw(st.sampled_from(list(SceneKind))),
        seed=draw(st.integers(0, 2**16)),
    )
    point = draw(st.sampled_from(enumerate_sweep(spec)))
    try:
        return generate_scene(
            point, spec.seed, n_objects=draw(st.integers(1, 4)), variant=draw(st.integers(0, 3))
        )
    except GenerationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(sample=scenes())
def test_scene_round_trip_is_identity(sample):
    assert scene_from_dict(_through_json(scene_to_dict(sample))) == sample


_finite = st.floats(allow_nan=False, allow_infinity=False)
_SENSOR_SCENE = generate_scene(enumerate_sweep(SweepSpec(Category.SENSOR, SuperCategory.AIR))[0], 0)


@settings(max_examples=200, deadline=None)
@given(point=st.builds(
    SweepPoint,
    index=st.integers(0, 2**31),
    category=st.sampled_from(list(Category)),
    super_category=st.sampled_from(list(SuperCategory)),
    scene=st.sampled_from(list(SceneKind)),
    camera_distance=_finite,
    camera_elevation=_finite,
    camera_azimuth=_finite,
    light_intensity=_finite,
    light_elevation=_finite,
    light_azimuth=_finite,
    rain=st.booleans(),
    wind=_finite,
    sensor_style=st.text(max_size=8),
))
def test_sweep_point_round_trip_is_identity(point):
    sample = dataclasses.replace(_SENSOR_SCENE, point=point)
    assert scene_from_dict(_through_json(scene_to_dict(sample))) == sample


@st.composite
def fmap_blobs(draw):
    """Blobs near the format: a header of small dimensions and any tail, or
    a valid dump with one byte changed or a piece cut off."""
    if draw(st.booleans()):
        header = struct.pack(
            "<4sIIIIB",
            draw(st.sampled_from([b"FMAP", b"FMAQ"])),
            draw(st.integers(0, 3)),
            draw(st.integers(0, 4)),
            draw(st.integers(0, 4)),
            draw(st.integers(0, 3)),
            draw(st.integers(0, 4)),
        )
        return header + draw(st.binary(max_size=160))
    height, width, channels = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    role = draw(st.sampled_from(list(MapRole)))
    values = np.array(
        draw(st.lists(st.floats(0, 1, width=32), min_size=height * width * channels,
                      max_size=height * width * channels)),
        dtype=np.float32,
    ).reshape(height, width, channels)
    if draw(st.booleans()):
        cells = sorted(draw(st.sets(st.integers(0, height * width - 1))))
        fmap = FeatureMap.from_cells(cells, values.reshape(-1, channels)[: len(cells)],
                                     height, width, role=role)
    else:
        fmap = FeatureMap(values, role=role)
    blob = bytearray(dump_fmap(fmap))
    if draw(st.booleans()):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    else:
        del blob[draw(st.integers(0, len(blob) - 1)):]
    return bytes(blob)


@settings(max_examples=500, deadline=None)
@given(blob=st.one_of(st.binary(max_size=64), fmap_blobs()))
def test_parse_fmap_raises_only_parse_error(blob):
    try:
        parse_fmap(blob)
    except ParseError:
        pass


@st.composite
def bundles(draw):
    """Small bundles whose every map is dense or cell-stored, each drawn on
    its own, with or without the 3D heads."""
    height, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def fmap(channels, role=MapRole.GENERIC):
        if role is MapRole.HEATMAP:
            elements = st.floats(0, 1, width=32)
        else:
            elements = st.floats(allow_nan=False, allow_infinity=False, width=32)
        size = height * width * channels
        values = np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=np.float32)
        values = values.reshape(height, width, channels)
        if draw(st.booleans()):
            return FeatureMap(values, role=role)
        cells = sorted(draw(st.sets(st.integers(0, height * width - 1))))
        table = values.reshape(-1, channels)[: len(cells)]
        return FeatureMap.from_cells(cells, table, height, width, role=role)

    classes = draw(st.integers(1, 3))
    heads = {}
    if draw(st.booleans()):
        heads = {"aux_depth": fmap(1), "aux_dims": fmap(3),
                 "aux_orientation": fmap(9 * draw(st.integers(1, 2)))}
    return MapBundle(
        heatmaps={kind: fmap(classes, MapRole.HEATMAP) for kind in ALL_KINDS},
        embeddings={kind: fmap(1, MapRole.EMBEDDING) for kind in CORNER_KINDS},
        offsets={kind: fmap(2, MapRole.OFFSET) for kind in ALL_KINDS},
        **heads,
    )


@settings(max_examples=100, deadline=None)
@given(bundle=bundles())
def test_bundle_file_round_trip_is_identity(bundle):
    assert MapBundle.from_maps(bundle.maps()) == bundle
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        save_bundle(first, bundle)
        loaded = load_bundle(first)
        assert loaded == bundle
        # Saved again, the loaded bundle gives the same bytes: every map
        # keeps its storage and its bits.
        save_bundle(second, loaded)
        assert os.listdir(second) == ["bundle.fmap"]
        saved, again = (pathlib.Path(root, "bundle.fmap").read_bytes() for root in (first, second))
        assert saved == again


@settings(max_examples=300, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_load_bundle_raises_only_parse_error(bundle, data):
    """A byte flip, a cut or bytes appended to a saved bundle file either
    load as a valid bundle or raise ParseError, and nothing else."""
    with tempfile.TemporaryDirectory() as directory:
        save_bundle(directory, bundle)
        path = pathlib.Path(directory, "bundle.fmap")
        blob = bytearray(path.read_bytes())
        edit = data.draw(st.sampled_from(["flip", "cut", "append"]))
        if edit == "flip":
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        elif edit == "cut":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        else:
            blob += data.draw(st.binary(min_size=1, max_size=64))
        path.write_bytes(bytes(blob))
        try:
            loaded = load_bundle(directory)
        except ParseError:
            return
        assert isinstance(loaded, MapBundle)


def _outcome(load):
    """The bundle `load()` returns, or the (message, offset) of its ParseError."""
    try:
        return load()
    except ParseError as exc:
        return str(exc), exc.offset


@settings(max_examples=300, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_load_bundle_equals_the_record_by_record_parse(bundle, data):
    """After a byte flip, a cut or bytes appended, `load_bundle` returns
    what parsing the file record by record returns, the same bundle or
    the same error, and parses record by record only a malformed file."""
    with tempfile.TemporaryDirectory() as directory:
        save_bundle(directory, bundle)
        path = os.path.join(directory, "bundle.fmap")
        blob = bytearray(pathlib.Path(path).read_bytes())
        edit = data.draw(st.sampled_from(["none", "flip", "cut", "append"]))
        if edit == "flip":
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        elif edit == "cut":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif edit == "append":
            blob += data.draw(st.binary(min_size=1, max_size=64))
        pathlib.Path(path).write_bytes(bytes(blob))
        expected = _outcome(lambda: fmap._parse_bundle(path, memoryview(bytes(blob))))
        with mock.patch.object(fmap, "_parse_bundle", wraps=fmap._parse_bundle) as record_parse:
            assert _outcome(lambda: load_bundle(directory)) == expected
        assert record_parse.called == (not isinstance(expected, MapBundle))


_coord = st.floats(-1e4, 1e4)


@st.composite
def kitti_records(draw):
    left, right = sorted(draw(st.lists(_coord, min_size=2, max_size=2)))
    top, bottom = sorted(draw(st.lists(_coord, min_size=2, max_size=2)))
    return KittiLabelRecord(
        type=draw(st.sampled_from(["Car", "Pedestrian", "air_vehicle"])),
        truncated=draw(st.floats(0, 1)),
        occluded=draw(st.integers(0, 3)),
        alpha=draw(st.floats(-4, 4)),
        bbox=(left, top, right, bottom),
        dimensions=tuple(draw(st.lists(st.floats(0.01, 100), min_size=3, max_size=3))),
        location=tuple(draw(st.lists(_coord, min_size=3, max_size=3))),
        rotation_y=draw(st.floats(-4, 4)),
        score=draw(st.none() | st.floats(0, 1)),
    )


@settings(max_examples=300, deadline=None)
@given(record=kitti_records())
def test_kitti_write_parse_write_is_byte_stable(record):
    line = write_kitti_label(record)
    assert write_kitti_label(parse_kitti_label(line)) == line


# Replacing one field of a document with a value of another JSON type.


def _kind(value):
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _paths(value, prefix=()):
    """The path of every field and list item under `value`."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _finite | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(
    head=st.dictionaries(st.text(max_size=3), _json_values, max_size=3),
    name=st.text(max_size=3),
    members=st.dictionaries(st.text(max_size=3), _json_values, max_size=4),
)
def test_chunks_write_the_stable_json_text(head, name, members):
    """A dict whose one value is given as an iterator of its sorted pairs
    is written in chunks as the same text as the whole dict."""
    whole = {**head, name: members}
    lazy = {**head, name: iter(sorted(members.items()))}
    assert "".join(stable_json_chunks(lazy)) == stable_json_dumps(whole)
    assert "".join(stable_json_chunks(head)) == stable_json_dumps(head)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    dataset = root / "dataset"
    argv = ["synth", "--category", "sensor", "--super", "air", "--objects", "2", "--out", str(dataset)]
    assert main(argv) == 0
    assert main(["decode", "--dataset", str(dataset), "--out", str(root / "detections.json")]) == 0
    return root


def _run(document_kind, root, work, document):
    """Exit codes of the commands that read a changed `document_kind`."""
    dataset = root / "dataset"
    if document_kind == "scene":
        # convert reads the manifest and the scenes; decode --bundle --scene
        # reads the camera and taxonomy of one scene.
        os.makedirs(work / "scenes")
        shutil.copy(dataset / "manifest.json", work / "manifest.json")
        shutil.copy(dataset / "scenes" / "000000.json", work / "scenes" / "000000.json")
        (work / "scenes" / "000001.json").write_text(json.dumps(document))
        return [
            main(["convert", "--dataset", str(work), "--out", str(work / "kitti")]),
            main(["decode", "--bundle", str(dataset / "frames" / "000001"), "--scene",
                  str(work / "scenes" / "000001.json"), "--out", str(work / "one.json")]),
        ]
    if document_kind == "manifest":
        os.symlink(dataset / "frames", work / "frames")
        os.symlink(dataset / "scenes", work / "scenes")
        (work / "manifest.json").write_text(json.dumps(document))
        return [main(["decode", "--dataset", str(work), "--out", str(work / "out.json")]),
                main(["convert", "--dataset", str(work), "--out", str(work / "kitti")])]
    changed = work / "changed.json"
    changed.write_text(json.dumps(document))
    truth = str(dataset / "truth.json")
    if document_kind == "truth":
        return [main(["eval", "--pred", truth, "--truth", str(changed)])]
    return [main(["eval", "--pred", str(changed), "--truth", truth])]


_SOURCES = {
    "scene": "dataset/scenes/000001.json",
    "manifest": "dataset/manifest.json",
    "truth": "dataset/truth.json",
    "detections": "detections.json",
}


@pytest.mark.parametrize("document_kind", sorted(_SOURCES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_field_of_another_type_exits_0_or_3(documents, document_kind, data):
    with open(documents / _SOURCES[document_kind]) as fh:
        document = json.load(fh)
    path = data.draw(st.sampled_from(sorted(_paths(document), key=repr)), label="path")
    *parents, last = path
    parent = document
    for key in parents:
        parent = parent[key]
    value = data.draw(
        _json_values.filter(lambda v: _kind(v) != _kind(parent[last])), label="value"
    )
    parent[last] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        codes = _run(document_kind, documents, pathlib.Path(work), document)
    err = err.getvalue()
    assert set(codes) <= {0, 3}, err
    assert "internal error" not in err and "Traceback" not in err, err
