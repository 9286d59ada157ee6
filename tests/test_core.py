"""Core type invariants, the angle normalizer, and the binary dump format."""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from det3d.core import (
    ALL_KINDS,
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
        fm = FeatureMap.from_flat([1.0, 2.0, 3.0, 4.0], 2, 2, 1)
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
        with pytest.raises(ShapeError):
            FeatureMap.from_flat([1.0, 2.0], 2, 2, 1)

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
