"""Core type invariants, the angle normalizer, and the binary dump format."""

import dataclasses
import itertools
import math
import os
import struct

import numpy as np
import pytest

from det3d.core import (
    ALL_KINDS,
    BUNDLE_MAPS,
    CORNER_KINDS,
    BoundsError,
    Box2D,
    Box3D,
    CameraIntrinsics,
    ClassTaxonomy,
    ConfigurationError,
    DomainError,
    FeatureMap,
    Keypoint,
    KeypointKind,
    MapBundle,
    MapRole,
    ParseError,
    ShapeError,
    SuperCategory,
    normalize_angle,
)
from det3d import fmap
from det3d.fmap import dump_fmap, load_bundle, parse_fmap, save_bundle
from det3d.ioutil import atomic_write_bytes


class TestFeatureMap:
    def test_single_element(self):
        fm = FeatureMap([[[0.5]]])
        assert fm.get(0, 0, 0) == 0.5

    def test_row_major_indexing(self):
        fm = FeatureMap(np.reshape([1.0, 2.0, 3.0, 4.0], (2, 2, 1)))
        assert fm.get(1, 0, 0) == 3.0

    def test_filled_by_formula(self):
        # value = r*10 + c*1 + ch*0.5 over a 3x3x2 grid
        data = np.zeros((3, 3, 2))
        for r in range(3):
            for c in range(3):
                for ch in range(2):
                    data[r, c, ch] = r * 10 + c * 1 + ch * 0.5
        fm = FeatureMap(data)
        assert fm.get(2, 1, 1) == 21.5

    @pytest.mark.parametrize(
        "index,axis",
        [((5, 0, 0), "row"), ((0, 9, 0), "col"), ((0, 0, 3), "channel"), ((-1, 0, 0), "row")],
    )
    def test_out_of_bounds_names_axis(self, index, axis):
        fm = FeatureMap(np.zeros((2, 3, 2)))
        with pytest.raises(BoundsError, match=axis):
            fm.get(*index)

    @pytest.mark.parametrize(
        "method,args,axis",
        [
            ("get", (1.9, 0, 0), "row"),
            ("take", ([1.9], [2.7]), "row"),
            ("take", ([1], [2.7]), "col"),
            ("take", ([True], [False]), "row"),
            ("get", (0, 0, True), "channel"),
            ("channel_plane", (True,), "channel"),
            ("channel_plane", (1.0,), "channel"),
        ],
    )
    def test_non_integer_index_names_axis(self, method, args, axis):
        fm = FeatureMap(np.zeros((2, 3, 2)))
        with pytest.raises(DomainError, match=f"{axis} indices must be integers"):
            getattr(fm, method)(*args)

    def test_get_total_over_declared_bounds(self):
        rng = np.random.default_rng(0)
        fm = FeatureMap(rng.normal(size=(5, 7, 3)))
        for _ in range(500):
            r = int(rng.integers(5))
            c = int(rng.integers(7))
            ch = int(rng.integers(3))
            assert fm.get(r, c, ch) == fm.data[r, c, ch]

    def test_heatmap_role_range_enforced(self):
        FeatureMap(np.full((2, 2, 1), 0.7), role=MapRole.HEATMAP)
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            FeatureMap(np.full((2, 2, 1), 1.5), role=MapRole.HEATMAP)
        with pytest.raises(DomainError):
            FeatureMap(np.full((2, 2, 1), -0.1), role=MapRole.HEATMAP)

    def test_offset_role_unconstrained(self):
        FeatureMap(np.array([[[-3.0, 42.0]]]), role=MapRole.OFFSET)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            FeatureMap(np.array([[[np.nan]]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((2, 2)))

    def test_data_is_read_only(self):
        fm = FeatureMap(np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 1.0


class TestNormalizeAngle:
    def test_zero(self):
        assert normalize_angle(0) == 0.0

    def test_wraps_positive(self):
        assert normalize_angle(270) == -90.0

    def test_wraps_deep_negative(self):
        # brute-force reference: repeated +-360 until in range
        value = -540.0
        while value < -180.0:
            value += 360.0
        while value >= 180.0:
            value -= 360.0
        assert normalize_angle(-540) == value == -180.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-2000.0, 2000.0, size=500):
            once = normalize_angle(x)
            assert normalize_angle(once) == once
            assert -180.0 <= once < 180.0
            # congruence modulo 360
            assert math.isclose((x - once) % 360.0, 0.0, abs_tol=1e-9) or math.isclose(
                (x - once) % 360.0, 360.0, abs_tol=1e-9
            )

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            normalize_angle(float("nan"))
        with pytest.raises(DomainError):
            normalize_angle(float("inf"))


class TestKeypoint:
    def test_valid(self):
        kp = Keypoint(KeypointKind.CENTER, class_id=0, row=2, col=3, score=0.5, tag=1.0)
        assert kp.row == 2 and kp.col == 3
        kp = Keypoint(KeypointKind.TOP_LEFT, np.int64(1), np.int32(2), np.uint8(3), score=0.5)
        assert (kp.class_id, kp.row, kp.col) == (1, 2, 3)

    def test_rejects_bad_score(self):
        with pytest.raises(DomainError):
            Keypoint(KeypointKind.CENTER, 0, 0, 0, score=1.5)

    def test_rejects_negative_position(self):
        with pytest.raises(BoundsError):
            Keypoint(KeypointKind.CENTER, 0, -1, 0, score=0.5)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((0, 0.5, 1), "row"),
            ((0, 1, 1.5), "col"),
            ((0.0, 1, 1), "class_id"),
            ((0, True, 1), "row"),
            ((False, 1, 1), "class_id"),
            ((0, np.float64(2.0), 1), "row"),
            ((0, 1, "1"), "col"),
            ((None, 1, 1), "class_id"),
        ],
    )
    def test_rejects_non_integer_fields(self, fields, name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            Keypoint(KeypointKind.TOP_LEFT, *fields, score=0.5)


class TestBox2D:
    def test_zero_area_allowed(self):
        box = Box2D(1.0, 2.0, 1.0, 2.0)
        assert box.area == 0.0

    def test_negative_extent_rejected(self):
        with pytest.raises(DomainError):
            Box2D(2.0, 0.0, 1.0, 1.0)

    def test_score_rejected_not_clamped(self):
        with pytest.raises(DomainError):
            Box2D(0, 0, 1, 1, score=1.0001)
        with pytest.raises(DomainError):
            Box2D(0, 0, 1, 1, score=-0.1)

    def test_area_nonnegative_over_random_boxes(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = sorted(rng.uniform(-50, 50, size=2))
            y = sorted(rng.uniform(-50, 50, size=2))
            assert Box2D(x[0], y[0], x[1], y[1]).area >= 0.0


class TestBox3D:
    def test_angles_normalized_at_construction(self):
        box = Box3D(center=(0, 0, 10), dims=(1, 1, 1), orientation=(270.0, -540.0, 0.0))
        assert box.orientation == (-90.0, -180.0, 0.0)

    def test_rejects_behind_camera(self):
        with pytest.raises(DomainError):
            Box3D(center=(0, 0, 0), dims=(1, 1, 1), orientation=(0, 0, 0))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(DomainError):
            Box3D(center=(0, 0, 5), dims=(1, 0, 1), orientation=(0, 0, 0))


class TestCameraIntrinsics:
    def test_simple_matrix(self):
        cam = CameraIntrinsics.simple(100.0, 320.0, 240.0)
        assert cam.fx == 100.0 and cam.cx == 320.0

    def test_rejects_zero_focal(self):
        with pytest.raises(DomainError):
            CameraIntrinsics([[0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 1, 0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            CameraIntrinsics(np.eye(3))


class TestClassTaxonomy:
    def test_default(self):
        tax = ClassTaxonomy.default()
        assert len(tax) == 2
        assert tax.supercategory("air_vehicle") is SuperCategory.AIR
        assert tax.index("ground_vehicle") == 1

    def test_rejects_duplicate_names(self):
        with pytest.raises(DomainError):
            ClassTaxonomy(names=("a", "a"), grouping={"a": SuperCategory.AIR})

    def test_rejects_incomplete_grouping(self):
        with pytest.raises(DomainError):
            ClassTaxonomy(names=("a", "b"), grouping={"a": SuperCategory.AIR})


def dense_bundle(rng, heads=()):
    """A 3x3 bundle of dense random maps, carrying the named 3D heads."""
    channels = {"aux_depth": 1, "aux_dims": 3, "aux_orientation": 9}
    return MapBundle(
        heatmaps={
            kind: FeatureMap(rng.uniform(0, 1, size=(3, 3, 2)), role=MapRole.HEATMAP)
            for kind in ALL_KINDS
        },
        embeddings={
            kind: FeatureMap(rng.normal(size=(3, 3, 1)), role=MapRole.EMBEDDING)
            for kind in CORNER_KINDS
        },
        offsets={
            kind: FeatureMap(rng.normal(size=(3, 3, 2)), role=MapRole.OFFSET)
            for kind in ALL_KINDS
        },
        **{head: FeatureMap(rng.normal(size=(3, 3, channels[head]))) for head in heads},
    )


HEADS = ("aux_depth", "aux_dims", "aux_orientation")


# (name, field, kind, channels, role) of each map of a dense_bundle, in
# bundle order.
BUNDLE_MAP_SPECS = (
    ("heatmap_tl", "heatmaps", KeypointKind.TOP_LEFT, 2, MapRole.HEATMAP),
    ("heatmap_br", "heatmaps", KeypointKind.BOTTOM_RIGHT, 2, MapRole.HEATMAP),
    ("heatmap_center", "heatmaps", KeypointKind.CENTER, 2, MapRole.HEATMAP),
    ("embedding_tl", "embeddings", KeypointKind.TOP_LEFT, 1, MapRole.EMBEDDING),
    ("embedding_br", "embeddings", KeypointKind.BOTTOM_RIGHT, 1, MapRole.EMBEDDING),
    ("offset_tl", "offsets", KeypointKind.TOP_LEFT, 2, MapRole.OFFSET),
    ("offset_br", "offsets", KeypointKind.BOTTOM_RIGHT, 2, MapRole.OFFSET),
    ("offset_center", "offsets", KeypointKind.CENTER, 2, MapRole.OFFSET),
    ("aux_depth", "aux_depth", None, 1, MapRole.GENERIC),
    ("aux_dims", "aux_dims", None, 3, MapRole.GENERIC),
    ("aux_orientation", "aux_orientation", None, 9, MapRole.GENERIC),
)


def with_map(bundle, field, kind, fmap):
    """The bundle with the map at (field, kind) replaced by fmap."""
    if kind is not None:
        fmap = {**getattr(bundle, field), kind: fmap}
    return dataclasses.replace(bundle, **{field: fmap})


class TestMapBundle:
    def test_all_or_no_3d_heads(self):
        assert dense_bundle(np.random.default_rng(0), HEADS).has_aux
        assert not dense_bundle(np.random.default_rng(0)).has_aux

    @pytest.mark.parametrize("heads", [h for n in (1, 2) for h in itertools.combinations(HEADS, n)])
    def test_some_3d_heads_rejected(self, heads):
        with pytest.raises(ConfigurationError, match="all three 3D heads"):
            dense_bundle(np.random.default_rng(0), heads)

    def test_maps_in_bundle_order(self):
        bundle = dense_bundle(np.random.default_rng(1), HEADS)
        expected = [
            getattr(bundle, field) if kind is None else getattr(bundle, field)[kind]
            for _, field, kind, _, _ in BUNDLE_MAP_SPECS
        ]
        assert list(bundle.maps()) == expected
        assert list(dense_bundle(np.random.default_rng(1)).maps()) == expected[:8]
        assert MapBundle.from_maps(expected) == bundle

    def test_from_maps_rejects_a_twelfth_map(self):
        maps = dense_bundle(np.random.default_rng(1), HEADS).maps()
        with pytest.raises(ConfigurationError, match="^12 maps, a bundle has 11 at most$"):
            MapBundle.from_maps(maps + maps[-1:])

    @pytest.mark.parametrize("fault", ["height", "width", "channels", "role"])
    @pytest.mark.parametrize(
        "name, field, kind, channels, role", BUNDLE_MAP_SPECS, ids=[m[0] for m in BUNDLE_MAP_SPECS]
    )
    def test_misfit_map_rejected_naming_it(self, name, field, kind, channels, role, fault):
        rng = np.random.default_rng(2)
        bundle = dense_bundle(rng, HEADS)
        shapes = {"height": (4, 3, channels), "width": (3, 4, channels), "channels": (3, 3, channels + 1)}
        shape = shapes.get(fault, (3, 3, channels))
        if fault == "role":
            role = MapRole.OFFSET if role is MapRole.GENERIC else MapRole.GENERIC
        fmap = FeatureMap(rng.uniform(0, 1, size=shape), role=role)
        # heatmap_tl sets the height, width and class count the other maps
        # are held to, so a heatmap_tl of another shape is heatmap_br's misfit.
        blamed = "heatmap_br" if name == "heatmap_tl" and fault != "role" else name
        with pytest.raises(ConfigurationError, match=rf"^{blamed}: .*{fault}"):
            with_map(bundle, field, kind, fmap)

    def test_orientation_needs_9n_channels(self):
        rng = np.random.default_rng(3)
        bundle = dense_bundle(rng, HEADS)
        wide = with_map(bundle, "aux_orientation", None, FeatureMap(rng.normal(size=(3, 3, 18))))
        assert wide.aux_orientation.channels == 18
        with pytest.raises(ConfigurationError) as info:
            with_map(bundle, "aux_orientation", None, FeatureMap(rng.normal(size=(3, 3, 10))))
        assert str(info.value) == (
            "aux_orientation: 10 channels, expected 9N (3 angles x N bins x 3 values)"
        )

    def test_missing_keypoint_kind_rejected(self):
        bundle = dense_bundle(np.random.default_rng(4))
        offsets = {kind: bundle.offsets[kind] for kind in CORNER_KINDS}
        with pytest.raises(ConfigurationError, match="^offset_center is missing$"):
            dataclasses.replace(bundle, offsets=offsets)

    def test_extra_keypoint_kind_rejected(self):
        bundle = dense_bundle(np.random.default_rng(4))
        extra = bundle.embeddings[KeypointKind.TOP_LEFT]
        with pytest.raises(ConfigurationError, match=r"^embeddings\[.*CENTER.*\] is not a bundle map$"):
            with_map(bundle, "embeddings", KeypointKind.CENTER, extra)


class TestFmapFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        fm = FeatureMap(rng.normal(size=(4, 5, 3)), role=MapRole.EMBEDDING)
        assert parse_fmap(dump_fmap(fm)) == fm

    def test_file_round_trip(self, tmp_path):
        bundle = dense_bundle(np.random.default_rng(4))
        save_bundle(tmp_path, bundle)
        assert os.listdir(tmp_path) == ["bundle.fmap"]
        assert load_bundle(tmp_path) == bundle

    def test_save_writes_one_file_once(self, tmp_path, monkeypatch):
        writes = []

        def counting(path, data):
            writes.append(os.path.relpath(path, tmp_path))
            atomic_write_bytes(path, data)

        monkeypatch.setattr(fmap, "atomic_write_bytes", counting)
        bundle = dense_bundle(np.random.default_rng(5), HEADS)
        save_bundle(tmp_path / "frame", bundle)
        assert writes == [os.path.join("frame", "bundle.fmap")]
        assert os.listdir(tmp_path / "frame") == ["bundle.fmap"]
        assert load_bundle(tmp_path / "frame") == bundle

    def test_header_layout(self):
        fm = FeatureMap(np.zeros((2, 3, 4)), role=MapRole.OFFSET)
        blob = dump_fmap(fm)
        assert blob[:4] == b"FMAP"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert int.from_bytes(blob[16:20], "little") == 4
        assert blob[20] == int(MapRole.OFFSET)
        assert len(blob) == 21 + 2 * 3 * 4 * 4

    def test_bad_magic_offset_zero(self):
        blob = dump_fmap(FeatureMap(np.zeros((1, 1, 1))))
        with pytest.raises(ParseError, match="offset 0"):
            parse_fmap(b"XXXX" + blob[4:])

    def test_bad_version_offset_four(self):
        blob = bytearray(dump_fmap(FeatureMap(np.zeros((1, 1, 1)))))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ParseError, match="offset 4"):
            parse_fmap(bytes(blob))

    def test_bad_role_offset_twenty(self):
        blob = bytearray(dump_fmap(FeatureMap(np.zeros((1, 1, 1)))))
        blob[20] = 7
        with pytest.raises(ParseError, match="offset 20"):
            parse_fmap(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_fmap(b"FMAP\x01")

    def test_truncated_payload(self):
        blob = dump_fmap(FeatureMap(np.zeros((2, 2, 1))))
        with pytest.raises(ParseError, match="payload"):
            parse_fmap(blob[:-4])

    def test_heatmap_payload_out_of_range(self):
        blob = bytearray(dump_fmap(FeatureMap(np.zeros((1, 1, 1)), role=MapRole.HEATMAP)))
        blob[21:25] = np.array([2.0], dtype="<f4").tobytes()
        with pytest.raises(ParseError, match="invalid payload"):
            parse_fmap(bytes(blob))


# A 4x5 bundle with 2 classes and one orientation bin, every map cell-stored
# (version 2). Its records' fields sit at fixed byte offsets: the cell count
# at 21 and the cells from 25, then the values (a heatmap's at 37, an
# embedding's at 33, an offset map's at 37, a 3D head's at 29).
def golden_records():
    """{map name: bytearray of its record} of the golden bundle, in file order."""
    def cell_map(cells, channels, role, scale):
        values = (np.arange(len(cells) * channels, dtype=np.float32).reshape(-1, channels) + 1) * scale
        return FeatureMap.from_cells(cells, values, 4, 5, role=role)

    maps = {}
    for entry in BUNDLE_MAPS:
        if entry.role is MapRole.HEATMAP:
            maps[entry.name] = cell_map([0, 7, 19], 2, entry.role, 1 / 8)
        elif entry.role is MapRole.EMBEDDING:
            maps[entry.name] = cell_map([3, 4], 1, entry.role, -1.5)
        elif entry.role is MapRole.OFFSET:
            maps[entry.name] = cell_map([1, 2, 18], 2, entry.role, 0.25)
        else:
            maps[entry.name] = cell_map([7], entry.channels, entry.role, 0.5)
    return {name: bytearray(dump_fmap(fm)) for name, fm in maps.items()}


def put(records, name, at, fmt, value):
    """Pack value (a struct format) at byte `at` of the record `name`."""
    struct.pack_into("<" + fmt, records[name], at, value)


def dense(records, name):
    """Rewrite the record `name` as a dense (version 1) record of its map."""
    fm = parse_fmap(bytes(records[name]))
    records[name] = bytearray(dump_fmap(FeatureMap(fm.data, role=fm.role)))


def cut(records, name, end):
    """Keep the record `name` up to byte `end`."""
    records[name] = records[name][:end]


def drop(records, *names):
    for name in names:
        del records[name]


# (edit of the golden records, load_bundle's message after "<path>: ", its
# byte offset). One case per fault, then files with two faults, where the
# fault in the earlier record (or at the earlier offset) wins.
GOLDEN_ERRORS = {
    "bad magic": (
        lambda r: put(r, "embedding_br", 0, "4s", b"FMAX"),
        "embedding_br: bad magic b'FMAX', expected b'FMAP' (at byte offset 224)", 224),
    "bad version": (
        lambda r: put(r, "offset_tl", 4, "I", 3),
        "offset_tl: unsupported version 3 (at byte offset 269)", 269),
    "zero height": (
        lambda r: put(r, "aux_depth", 8, "I", 0),
        "aux_depth: height must be >= 1, got 0 (at byte offset 456)", 456),
    "zero width": (
        lambda r: put(r, "heatmap_tl", 12, "I", 0),
        "heatmap_tl: width must be >= 1, got 0 (at byte offset 12)", 12),
    "zero channels": (
        lambda r: put(r, "offset_br", 16, "I", 0),
        "offset_br: channels must be >= 1, got 0 (at byte offset 342)", 342),
    "unknown role": (
        lambda r: put(r, "offset_center", 20, "B", 7),
        "offset_center: unknown role tag 7 (at byte offset 407)", 407),
    "truncated header": (
        lambda r: cut(r, "aux_orientation", 10),
        "aux_orientation: truncated header: need 21 bytes, got 10 (at byte offset 532)", 532),
    "truncated count": (
        lambda r: cut(r, "aux_orientation", 23),
        "aux_orientation: truncated cell count: need 4 bytes, got 2 (at byte offset 543)", 543),
    "count over cells": (
        lambda r: put(r, "heatmap_center", 21, "I", 21),
        "heatmap_center: cell count 21 exceeds the 20 cells of a 4x5 map (at byte offset 143)", 143),
    "cell out of range": (
        lambda r: put(r, "embedding_tl", 29, "I", 20),
        "embedding_tl: cell index 20 out of range [0, 20) (at byte offset 212)", 212),
    "cells not increasing": (
        lambda r: put(r, "offset_br", 29, "I", 1),
        "offset_br: cell indices must be strictly increasing, got 1 then 1 (at byte offset 355)", 355),
    "cells repeated": (
        lambda r: put(r, "heatmap_br", 33, "I", 7),
        "heatmap_br: cell indices must be strictly increasing, got 7 then 7 (at byte offset 94)", 94),
    "nan value": (
        lambda r: put(r, "aux_dims", 33, "f", float("nan")),
        "aux_dims: non-finite value nan (at byte offset 514)", 514),
    "infinite value": (
        lambda r: put(r, "embedding_br", 37, "f", float("-inf")),
        "embedding_br: non-finite value -inf (at byte offset 261)", 261),
    "heatmap above one": (
        lambda r: put(r, "heatmap_br", 49, "f", 1.5),
        "heatmap_br: heatmap value 1.5 outside [0, 1] (at byte offset 110)", 110),
    "heatmap below zero": (
        lambda r: put(r, "heatmap_tl", 37, "f", -0.25),
        "heatmap_tl: heatmap value -0.25 outside [0, 1] (at byte offset 37)", 37),
    "cell table size": (
        lambda r: cut(r, "aux_orientation", -3),
        "aux_orientation: cell table holds 37 bytes, expected 40 for 1 cells of 9 channels "
        "(at byte offset 547)", 547),
    "dense payload size": (
        lambda r: (dense(r, "aux_orientation"), cut(r, "aux_orientation", -6)),
        "aux_orientation: payload holds 714 bytes, expected 720 for a 4x5x9 map (at byte offset 543)",
        543),
    "dense non-finite value": (
        lambda r: (dense(r, "offset_center"), put(r, "offset_center", 29, "f", float("nan"))),
        "offset_center: invalid payload: feature map values must be finite (at byte offset 408)", 408),
    "dense heatmap above one": (
        lambda r: (dense(r, "heatmap_center"), put(r, "heatmap_center", 25, "f", 2.0)),
        "heatmap_center: invalid payload: heatmap values must lie in [0, 1], got range [0, 2] "
        "(at byte offset 143)", 143),
    "misfit height": (
        lambda r: put(r, "heatmap_center", 8, "I", 5),
        "heatmap_center: height 5, expected 4 (at byte offset 130)", 130),
    "misfit width": (
        lambda r: put(r, "embedding_tl", 12, "I", 6),
        "embedding_tl: width 6, expected 5 (at byte offset 195)", 195),
    "misfit channels": (
        lambda r: put(r, "offset_br", 16, "I", 3),
        "offset_br: 3 channels, expected 2 (at byte offset 342)", 342),
    "misfit heatmap channels": (
        lambda r: put(r, "heatmap_br", 16, "I", 3),
        "heatmap_br: 3 channels, expected 2 (at byte offset 77)", 77),
    "misfit bins": (
        lambda r: put(r, "aux_orientation", 16, "I", 10),
        "aux_orientation: 10 channels, expected 9N (3 angles x N bins x 3 values) "
        "(at byte offset 538)", 538),
    "misfit role": (
        lambda r: put(r, "embedding_br", 20, "B", int(MapRole.HEATMAP)),
        "embedding_br: role HEATMAP, expected EMBEDDING (at byte offset 244)", 244),
    "seven records": (
        lambda r: drop(r, "offset_center", "aux_depth", "aux_dims", "aux_orientation"),
        "offset_center: truncated header: need 21 bytes, got 0 (at byte offset 387)", 387),
    "nine records": (
        lambda r: drop(r, "aux_dims", "aux_orientation"),
        "aux_dims: truncated header: need 21 bytes, got 0 (at byte offset 481)", 481),
    "ten records": (
        lambda r: drop(r, "aux_orientation"),
        "aux_orientation: truncated header: need 21 bytes, got 0 (at byte offset 522)", 522),
    "trailing bytes": (
        lambda r: r["aux_orientation"].extend(bytes(5)),
        "aux_orientation: 5 bytes after the last record (at byte offset 587)", 587),
    "trailing bytes without heads": (
        lambda r: (drop(r, "aux_depth", "aux_dims", "aux_orientation"),
                   r["offset_center"].extend(b"FM")),
        "aux_depth: truncated header: need 21 bytes, got 2 (at byte offset 450)", 450),
    "empty file": (
        lambda r: r.clear(),
        "heatmap_tl: truncated header: need 21 bytes, got 0 (at byte offset 0)", 0),
    "table fault, then header fault": (
        lambda r: (put(r, "heatmap_center", 37, "f", 1.5), put(r, "offset_br", 0, "4s", b"XMAP")),
        "heatmap_center: heatmap value 1.5 outside [0, 1] (at byte offset 159)", 159),
    "header fault, then table fault": (
        lambda r: (put(r, "heatmap_br", 4, "I", 9), put(r, "offset_tl", 29, "I", 99)),
        "heatmap_br: unsupported version 9 (at byte offset 65)", 65),
    "table fault, then misfit": (
        lambda r: (put(r, "embedding_tl", 25, "I", 4), put(r, "aux_dims", 16, "I", 4)),
        "embedding_tl: cell indices must be strictly increasing, got 4 then 4 (at byte offset 212)",
        212),
    "misfit, then table fault": (
        lambda r: (put(r, "heatmap_br", 12, "I", 4), put(r, "heatmap_center", 37, "f", float("nan"))),
        "heatmap_br: width 4, expected 5 (at byte offset 73)", 73),
    "two table faults": (
        lambda r: (put(r, "offset_center", 37, "f", float("inf")), put(r, "embedding_br", 29, "I", 30)),
        "embedding_br: cell index 30 out of range [0, 20) (at byte offset 253)", 253),
    "dense fault, then table fault": (
        lambda r: (dense(r, "heatmap_br"), put(r, "heatmap_br", 21, "f", -1.0),
                   put(r, "heatmap_center", 25, "I", 20)),
        "heatmap_br: invalid payload: heatmap values must lie in [0, 1], got range [-1, 0.75] "
        "(at byte offset 82)", 82),
    "table fault, then trailing bytes": (
        lambda r: (put(r, "aux_depth", 29, "f", float("nan")), r["aux_orientation"].extend(bytes(3))),
        "aux_depth: non-finite value nan (at byte offset 477)", 477),
    "table fault, then a cut": (
        lambda r: (put(r, "offset_tl", 25, "I", 2), cut(r, "aux_dims", 30)),
        "offset_tl: cell indices must be strictly increasing, got 2 then 2 (at byte offset 294)", 294),
    "two faults in one table": (
        lambda r: (put(r, "offset_br", 37, "f", float("nan")), put(r, "offset_br", 33, "I", 25)),
        "offset_br: cell index 25 out of range [0, 20) (at byte offset 359)", 359),
}


class TestLoadBundleErrors:
    """Each malformed bundle file raises one exact ParseError: its message
    and byte offset name the first fault in file order."""

    def test_golden_bundle_loads(self, tmp_path):
        (tmp_path / "bundle.fmap").write_bytes(b"".join(golden_records().values()))
        bundle = load_bundle(tmp_path)
        assert [fm.cell_table is not None for fm in bundle.maps()] == [True] * 11

    @pytest.mark.parametrize("case", GOLDEN_ERRORS)
    def test_message_and_offset(self, tmp_path, case):
        edit, message, offset = GOLDEN_ERRORS[case]
        records = golden_records()
        edit(records)
        path = tmp_path / "bundle.fmap"
        path.write_bytes(b"".join(records.values()))
        with pytest.raises(ParseError) as info:
            load_bundle(tmp_path)
        assert str(info.value) == f"{path}: {message}"
        assert info.value.offset == offset

    def test_unreadable_file_is_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "bundle.fmap"
        path.mkdir()
        with pytest.raises(ParseError) as info:
            load_bundle(tmp_path)
        assert str(info.value) == f"cannot read tensor dump {str(path)!r}: Is a directory"
        assert info.value.offset is None

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(ParseError) as info:
            load_bundle(tmp_path)
        assert str(info.value) == f"missing tensor dump {str(tmp_path / 'bundle.fmap')!r}"
