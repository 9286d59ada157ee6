"""Cell-stored feature maps: the render that builds them, the `.fmap`
version 2 that stores them, and their reads."""

from dataclasses import replace

import numpy as np
import pytest

from det3d import fmap
from det3d.core import (
    ALL_KINDS,
    BoundsError,
    Box2D,
    Det3DError,
    DomainError,
    FeatureMap,
    MapRole,
    ParseError,
    ShapeError,
    SuperCategory,
    Z_MAX,
    keyed_normals,
    take_frames,
)
from det3d.decode import decode_frame
from det3d.fmap import dump_fmap, load_bundle, parse_fmap, save_bundle
from det3d.geometry3d import lift_detections
from det3d.synthgen import (
    Category,
    SweepSpec,
    corrupt_maps,
    enumerate_sweep,
    generate_scene,
    render_ideal_maps,
)
from oracles import lift_oracle, render_oracle


def scene(super_category, index, n_objects, seed=0):
    points = enumerate_sweep(SweepSpec(Category.CAMERA, super_category, seed=seed))
    return generate_scene(points[index], seed, n_objects=n_objects)


def cell_maps(bundle):
    """(label, map) of every map of a bundle except the heatmaps."""
    maps = [(f"offsets[{k.value}]", m) for k, m in bundle.offsets.items()]
    maps += [(f"embeddings[{k.value}]", m) for k, m in bundle.embeddings.items()]
    maps += [(name, getattr(bundle, name)) for name in ("aux_depth", "aux_dims", "aux_orientation")]
    return maps


def assert_matches_oracle(sample, stride=1):
    bundle = render_ideal_maps(sample, stride=stride)
    oracle = render_oracle(sample, stride=stride)
    expected = {f"offsets[{k.value}]": a for k, a in oracle["offsets"].items()}
    expected.update({f"embeddings[{k.value}]": a for k, a in oracle["embeddings"].items()})
    expected.update({name: oracle[name] for name in ("aux_depth", "aux_dims", "aux_orientation")})
    for label, fmap in cell_maps(bundle):
        assert fmap.cell_table is not None, label
        data = fmap.data
        assert data.dtype == np.float32 and data.shape == expected[label].shape, label
        assert data.tobytes() == expected[label].tobytes(), label
    for kind in ALL_KINDS:
        assert bundle.heatmaps[kind].cell_table is not None
    return bundle


class TestRenderMatchesOracle:
    @pytest.mark.parametrize("index", [0, 17, 40])
    def test_crowded_air_scenes(self, index):
        bundle = assert_matches_oracle(scene(SuperCategory.AIR, index, 48))
        cells, _ = bundle.aux_orientation.cell_table
        assert 0 < cells.size <= 48

    def test_shared_corner_and_center_cells(self):
        sample = scene(SuperCategory.GROUND, 5, 2)
        # The two boxes floor to the same TL, BR and center cells; the
        # second object's values must win all three.
        boxes = (Box2D(40.2, 30.7, 80.6, 70.1), Box2D(40.9, 30.1, 80.3, 70.8))
        shared = replace(sample, boxes2d=boxes)
        bundle = assert_matches_oracle(shared)
        for fmap in (bundle.offsets[ALL_KINDS[0]], bundle.aux_dims, bundle.embeddings[ALL_KINDS[0]]):
            assert fmap.cell_table[0].size == 1
        assert bundle.aux_dims.get(50, 60, 0) == np.float32(sample.objects[1].dims[0])
        assert bundle.embeddings[ALL_KINDS[0]].get(30, 40, 0) == 2.0

    def test_stride_two_ground_scene(self):
        assert_matches_oracle(scene(SuperCategory.GROUND, 3, 4), stride=2)


class TestCellStorage:
    def cell_map(self):
        return FeatureMap.from_cells(
            [1, 4], [[0.5, 1.5], [2.0, -1.0]], 2, 3, role=MapRole.OFFSET
        )

    def test_reads_zero_off_the_cells(self):
        fmap = self.cell_map()
        expected = np.zeros((2, 3, 2), np.float32)
        expected[0, 1] = (0.5, 1.5)
        expected[1, 1] = (2.0, -1.0)
        assert fmap.data.tobytes() == expected.tobytes()
        assert fmap.get(1, 1, 1) == -1.0 and fmap.get(1, 2, 0) == 0.0
        assert fmap == FeatureMap(expected, role=MapRole.OFFSET)
        assert hash(fmap) == hash(FeatureMap(expected, role=MapRole.OFFSET))

    def test_data_is_read_only(self):
        with pytest.raises(ValueError):
            self.cell_map().data[0, 0, 0] = 1.0

    def test_take_bounds(self):
        fmap = self.cell_map()
        with pytest.raises(BoundsError, match="row index 2 out of range"):
            fmap.take([0, 2], [0, 0])
        with pytest.raises(BoundsError, match="col index -1 out of range"):
            fmap.take([0], [-1])
        for rows, cols, axis in (([1.9], [1], "row"), ([1], [1.2], "col"), ([True], [1], "row")):
            with pytest.raises(DomainError, match=f"{axis} indices must be integers"):
                fmap.take(rows, cols)
        with pytest.raises(DomainError, match="channel indices must be integers"):
            fmap.get(1, 1, True)
        assert fmap.take([], []).shape == (0, 2)

    @pytest.mark.parametrize(
        "cells, values, error",
        [
            ([4, 1], [[0.0, 0.0], [0.0, 0.0]], DomainError),
            ([1, 1], [[0.0, 0.0], [0.0, 0.0]], DomainError),
            ([1, 6], [[0.0, 0.0], [0.0, 0.0]], BoundsError),
            ([1, 4], [[0.0, np.nan], [0.0, 0.0]], DomainError),
            ([1, 4], [[0.0, 0.0]], ShapeError),
        ],
    )
    def test_rejects_bad_tables(self, cells, values, error):
        with pytest.raises(error):
            FeatureMap.from_cells(cells, values, 2, 3)

    def test_heatmap_range(self):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            FeatureMap.from_cells([0], [[1.5]], 2, 3, role=MapRole.HEATMAP)

    def test_empty_table(self):
        fmap = FeatureMap.from_cells([], np.zeros((0, 3)), 2, 3)
        assert fmap.shape == (2, 3, 3) and not fmap.data.any()
        assert fmap.take([1, 0], [2, 2]).tolist() == [[0.0] * 3] * 2

    def test_take_keeps_stored_bits(self):
        fmap = FeatureMap.from_cells([1], [[-0.0, 1.0]], 2, 3)
        expected = np.array([[-0.0, 1.0], [0.0, 0.0]], np.float32)
        assert fmap.take([0, 0], [1, 2]).tobytes() == expected.tobytes()

    def test_take_frames_reads_each_row_from_its_frame(self):
        other = FeatureMap.from_cells([0, 5], [[-0.0, 3.0], [4.0, 5.0]], 2, 3, role=MapRole.OFFSET)
        dense = FeatureMap(np.arange(12, dtype=np.float32).reshape(2, 3, 2), role=MapRole.OFFSET)
        rows, cols = np.array([0, 1, 1, 0, 1, 0, 1]), np.array([1, 2, 1, 0, 2, 2, 1])
        for maps in ([self.cell_map(), other], [self.cell_map(), dense, dense.noised(7, 0.5), other]):
            frames = np.arange(rows.size) % len(maps)
            expected = [maps[f].take([r], [c]) for f, r, c in zip(frames, rows, cols)]
            got = take_frames(maps, frames, rows, cols)
            assert got.tobytes() == np.concatenate(expected).tobytes()
        assert take_frames([dense], [0], [1], [2]).tobytes() == dense.take([1], [2]).tobytes()

    def test_take_frames_checks(self):
        maps = [self.cell_map(), self.cell_map()]
        with pytest.raises(ShapeError, match="one shape"):
            take_frames([maps[0], FeatureMap(np.zeros((2, 3, 3)))], [0], [0], [0])
        with pytest.raises(BoundsError, match="row index 2"):
            take_frames(maps, [0], [2], [1.5])
        with pytest.raises(DomainError, match="col indices must be integers"):
            take_frames(maps, [0], [1], [1.5])
        # A batch of one checks its frame indices as a batch of two does.
        for batch in (maps, maps[:1]):
            with pytest.raises(BoundsError, match="frame index 2"):
                take_frames(batch, [2], [0], [0])
        with pytest.raises(BoundsError, match="row index 2"):
            take_frames(maps[:1], [2], [2], [0])


class TestNoisedStorage:
    def base(self):
        return TestCellStorage().cell_map()

    def test_values_are_base_plus_keyed_noise(self):
        """Value i reads float32(base + sigma * z(key, i)), i counting in
        row-major (row, col, channel) order."""
        base, key, sigma = self.base(), 2**64 - 1, 0.25
        fmap = base.noised(key, sigma)
        expected = base.data.astype(np.float64).reshape(-1)
        expected = (expected + sigma * keyed_normals(key, np.arange(12))).astype(np.float32)
        assert fmap.data.tobytes() == expected.tobytes()
        at = expected.reshape(2, 3, 2)[[1, 0], [2, 1]]
        assert fmap.take([1, 0], [2, 1]).tobytes() == at.tobytes()
        assert fmap.get(0, 1, 1) == expected[3]
        assert fmap.role is MapRole.OFFSET and fmap.cell_table is None
        assert base.noised(np.uint64(key), sigma) == fmap
        assert base.noised(key - 1, sigma) != fmap

    def test_dumps_as_dense_record(self):
        fmap = self.base().noised(7, 0.5)
        blob = dump_fmap(fmap)
        assert int.from_bytes(blob[4:8], "little") == 1
        assert parse_fmap(blob) == fmap

    @pytest.mark.parametrize(
        "build, fragment",
        [
            (lambda base: base.noised(-1, 0.1), r"key must lie in \[0, 2\*\*64\)"),
            (lambda base: base.noised(2**64, 0.1), r"key must lie in \[0, 2\*\*64\)"),
            (lambda base: base.noised(1.0, 0.1), "key must be an integer"),
            (lambda base: base.noised(True, 0.1), "key must be an integer"),
            (lambda base: base.noised(1, True), "sigma must be a real number"),
            (lambda base: base.noised(1, -0.1), "sigma must be finite and >= 0"),
            (lambda base: base.noised(1, float("nan")), "sigma must be finite and >= 0"),
            (lambda base: base.noised(1, float("inf")), "sigma must be finite and >= 0"),
            (lambda base: base.noised(1, 4e37), "past float32's range"),
            (lambda base: base.noised(1, 0.1).noised(2, 0.1), "cannot be noised again"),
            (
                lambda base: FeatureMap(np.zeros((2, 3, 1)), role=MapRole.HEATMAP).noised(1, 0.1),
                "heatmap cannot be noised",
            ),
        ],
    )
    def test_rejects(self, build, fragment):
        with pytest.raises(DomainError, match=fragment):
            build(self.base())

    def test_largest_sigma_stays_finite(self):
        """The largest sigma the float32 bound admits for this base (whose
        largest magnitude is 2.0) keeps every value finite."""
        sigma = (float(np.finfo(np.float32).max) - 2.0) / Z_MAX
        fmap = self.base().noised(3, sigma)
        assert np.isfinite(fmap.data).all()
        with pytest.raises(DomainError):
            self.base().noised(3, sigma * (1 + 1e-6))


class TestFmapVersion2:
    def test_bundle_round_trips_byte_for_byte(self):
        bundle = render_ideal_maps(scene(SuperCategory.GROUND, 3, 4))
        maps = [bundle.heatmaps[k] for k in ALL_KINDS] + [m for _, m in cell_maps(bundle)]
        for fmap in maps:
            blob = dump_fmap(fmap)
            version = int.from_bytes(blob[4:8], "little")
            assert version == 2
            parsed = parse_fmap(blob)
            assert parsed == fmap
            assert (parsed.cell_table is None) == (version == 1)
            assert dump_fmap(parsed) == blob

    def test_layout(self):
        blob = dump_fmap(FeatureMap.from_cells([1, 4], [[0.5, 1.5], [2.0, -1.0]], 2, 3))
        assert int.from_bytes(blob[4:8], "little") == 2
        assert blob[21:25] == (2).to_bytes(4, "little")
        assert np.frombuffer(blob[25:33], "<u4").tolist() == [1, 4]
        assert np.frombuffer(blob[33:], "<f4").tolist() == [0.5, 1.5, 2.0, -1.0]
        assert len(blob) == 49

    def v2_blob(self, role=MapRole.OFFSET):
        """A 2x3x2 map with cells 1 and 4: count at byte 21, indices at
        25 and 29, values at 33..49."""
        values = [[0.5, 0.25], [1.0, 0.0]]
        return bytearray(dump_fmap(FeatureMap.from_cells([1, 4], values, 2, 3, role=role)))

    def put(self, blob, offset, value, dtype="<u4"):
        blob[offset : offset + 4] = np.array([value], dtype=dtype).tobytes()
        return bytes(blob)

    @pytest.mark.parametrize(
        "make, offset, fragment",
        [
            (lambda self: bytes(self.v2_blob()[:23]), 21, "truncated cell count"),
            (lambda self: bytes(self.v2_blob()[:-3]), 25, "cell table holds 21 bytes, expected 24"),
            (lambda self: self.put(self.v2_blob(), 21, 7), 21, "cell count 7 exceeds the 6 cells"),
            (lambda self: self.put(self.v2_blob(), 29, 6), 29, "cell index 6 out of range [0, 6)"),
            (lambda self: self.put(self.v2_blob(), 29, 1), 29, "strictly increasing, got 1 then 1"),
            (lambda self: self.put(self.v2_blob(), 41, np.inf, "<f4"), 41, "non-finite value inf"),
            (
                lambda self: self.put(self.v2_blob(MapRole.HEATMAP), 45, -0.5, "<f4"),
                45,
                "heatmap value -0.5 outside [0, 1]",
            ),
        ],
    )
    def test_malformed_names_its_offset(self, make, offset, fragment):
        with pytest.raises(ParseError) as info:
            parse_fmap(make(self))
        assert info.value.offset == offset
        assert fragment in str(info.value)
        assert str(info.value).endswith(f"(at byte offset {offset})")


class TestLoadBundleInOnePass:
    """A well-formed bundle file loads from one check of all its records,
    without the record-by-record parse that locates a fault."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda sample: render_ideal_maps(sample),
            lambda sample: render_ideal_maps(sample, include_aux=False),
            lambda sample: corrupt_maps(render_ideal_maps(sample), 0.1, rng_seed=3),
        ],
        ids=["cells", "cells_without_heads", "corrupted"],
    )
    def test_loads_without_the_record_parse(self, tmp_path, monkeypatch, make):
        bundle = make(scene(SuperCategory.GROUND, 1, 3))
        save_bundle(tmp_path, bundle)

        def record_parse(path, view):
            raise AssertionError(f"{path} was parsed record by record")

        monkeypatch.setattr(fmap, "_parse_bundle", record_parse)
        loaded = load_bundle(tmp_path)
        assert loaded == bundle
        # Each map keeps its storage: cells from version 2, dense from 1.
        stored = [m.cell_table is not None for m in loaded.maps()]
        assert stored == [m.cell_table is not None for m in bundle.maps()]

    def test_corrupted_bundle_has_both_versions(self):
        bundle = corrupt_maps(render_ideal_maps(scene(SuperCategory.GROUND, 1, 3)), 0.1, rng_seed=3)
        # `dump_fmap` writes a map as version 2 iff it is cell-stored.
        assert {m.cell_table is None for m in bundle.maps()} == {True, False}


class TestLiftOnCells:
    def test_noisy_detections_match_lift_oracle(self):
        """False centers land on cells the heads do not store; the lift
        reads exactly 0.0 there, as the oracle's per-cell reads do."""
        sample = scene(SuperCategory.GROUND, 2, 4)
        bundle = corrupt_maps(render_ideal_maps(sample), 0.2, rng_seed=[0, 1])
        assert bundle.aux_dims.cell_table is not None
        outcomes = []
        for det in decode_frame(bundle, taxonomy=sample.taxonomy):
            got = []
            for lift in (lift_detections, lift_oracle):
                try:
                    got.append(repr(lift([det], bundle, sample.camera)))
                except Det3DError as exc:
                    got.append((type(exc), str(exc)))
            assert got[0] == got[1]
            outcomes.append(got[0])
        zero = (DomainError, "box dims must be positive, got (0.0, 0.0, 0.0)")
        assert zero in outcomes and any(isinstance(o, str) for o in outcomes)
