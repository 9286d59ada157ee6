"""Sweep enumeration, scene generation, ideal-map rendering, and the
closed loop through the decoder."""

import numpy as np
import pytest

from det3d.core import (
    DomainError,
    FeatureMap,
    GenerationError,
    KeypointKind,
    MapBundle,
    SuperCategory,
)
from det3d.decode import GroupingConfig, decode_frame, decode_frame_3d
from det3d.geometry3d import fit_center_from_2d, project_box3d
from det3d.metrics import iou
from det3d.synthgen import (
    CAMERA_AZIMUTHS,
    CAMERA_ELEVATIONS,
    LIGHT_AZIMUTHS,
    LIGHT_ELEVATIONS,
    LIGHT_INTENSITIES,
    SENSOR_STYLES,
    WEATHER_CONFIGS,
    Category,
    SceneKind,
    SweepPoint,
    SweepSpec,
    camera_distance_grid,
    corrupt_maps,
    enumerate_sweep,
    generate_scene,
    render_ideal_maps,
    scene_from_dict,
    scene_to_dict,
)
from oracles import corrupt_oracle


def spec(category, super_category=SuperCategory.AIR, seed=7):
    return SweepSpec(category=category, super_category=super_category, seed=seed)


def fixed_point(**overrides):
    params = dict(
        index=0,
        category=Category.CAMERA,
        super_category=SuperCategory.GROUND,
        scene=SceneKind.CITY,
        camera_distance=15.0,
        camera_elevation=45.0,
        camera_azimuth=120.0,
        light_intensity=55.0,
        light_elevation=47.5,
        light_azimuth=90.0,
        rain=False,
        wind=0.0,
        sensor_style="night",
    )
    params.update(overrides)
    return SweepPoint(**params)


class TestEnumerateSweep:
    def test_camera_grid_sizes(self):
        assert len(enumerate_sweep(spec(Category.CAMERA, SuperCategory.AIR))) == 48
        assert len(enumerate_sweep(spec(Category.CAMERA, SuperCategory.GROUND))) == 48

    def test_light_grid_size(self):
        assert len(enumerate_sweep(spec(Category.LIGHT))) == 27

    def test_weather_grid_size(self):
        points = enumerate_sweep(spec(Category.WEATHER))
        assert len(points) == 3
        assert {(p.rain, p.wind) for p in points} == {(False, 0.0), (True, 0.0), (True, 10.0)}

    def test_sensor_grid_size(self):
        points = enumerate_sweep(spec(Category.SENSOR))
        assert [p.sensor_style for p in points] == ["night", "thermal"]

    def test_grid_values_exact(self):
        assert camera_distance_grid(SuperCategory.AIR) == (70.0, 70.0 + 280.0 / 3.0, 70.0 + 560.0 / 3.0, 350.0)
        assert camera_distance_grid(SuperCategory.GROUND) == (15.0, 35.0, 55.0, 75.0)
        assert CAMERA_ELEVATIONS == (5.0, 5.0 + 80.0 / 3.0, 5.0 + 160.0 / 3.0, 85.0)
        assert CAMERA_AZIMUTHS == (0.0, 120.0, 240.0)
        assert LIGHT_INTENSITIES == (10.0, 55.0, 100.0)
        assert LIGHT_ELEVATIONS == (5.0, 47.5, 90.0)
        assert LIGHT_AZIMUTHS == (0.0, 90.0, 180.0)

    def test_every_parameter_on_declared_grid(self):
        for category in Category:
            for super_category in SuperCategory:
                points = enumerate_sweep(spec(category, super_category))
                distances = camera_distance_grid(super_category)
                for p in points:
                    assert p.camera_distance in distances
                    assert p.camera_elevation in CAMERA_ELEVATIONS
                    assert p.camera_azimuth in CAMERA_AZIMUTHS
                    assert p.light_intensity in LIGHT_INTENSITIES
                    assert p.light_elevation in LIGHT_ELEVATIONS
                    assert p.light_azimuth in LIGHT_AZIMUTHS
                    assert (p.rain, p.wind) in WEATHER_CONFIGS
                    assert p.sensor_style in SENSOR_STYLES

    def test_camera_grid_is_full_cartesian_product(self):
        points = enumerate_sweep(spec(Category.CAMERA, SuperCategory.AIR))
        combos = {(p.camera_distance, p.camera_elevation, p.camera_azimuth) for p in points}
        assert len(combos) == 48

    def test_deterministic(self):
        a = enumerate_sweep(spec(Category.LIGHT, seed=3))
        b = enumerate_sweep(spec(Category.LIGHT, seed=3))
        assert a == b
        c = enumerate_sweep(spec(Category.LIGHT, seed=4))
        assert a != c


class TestGenerateScene:
    def test_single_object_near_requested_distance(self):
        sample = generate_scene(fixed_point(), rng_seed=1, n_objects=1)
        (obj,) = sample.objects
        assert 15.0 * 0.9 <= obj.center[2] <= 15.0 * 1.1
        hull = sample.boxes2d[0]
        width, height = sample.image_size
        assert 0 <= hull.x_min <= hull.x_max <= width - 1
        assert 0 <= hull.y_min <= hull.y_max <= height - 1

    def test_derived_boxes_are_projections(self):
        sample = generate_scene(fixed_point(), rng_seed=5, n_objects=3)
        for obj, hull in zip(sample.objects, sample.boxes2d):
            reprojected = project_box3d(sample.camera, obj)
            assert hull.x_min == reprojected.x_min and hull.y_max == reprojected.y_max

    def test_same_seed_identical(self):
        a = generate_scene(fixed_point(), rng_seed=11, n_objects=2)
        b = generate_scene(fixed_point(), rng_seed=11, n_objects=2)
        assert a == b

    def test_variants_differ(self):
        a = generate_scene(fixed_point(), rng_seed=11, n_objects=1, variant=0)
        b = generate_scene(fixed_point(), rng_seed=11, n_objects=1, variant=1)
        assert a.objects != b.objects

    def test_five_objects_nearly_disjoint(self):
        sample = generate_scene(fixed_point(camera_distance=35.0), rng_seed=3, n_objects=5)
        hulls = sample.boxes2d
        for i in range(len(hulls)):
            for j in range(i + 1, len(hulls)):
                assert iou(hulls[i], hulls[j]) < 0.1

    def test_impossible_placement_reports_point(self):
        with pytest.raises(GenerationError, match="sweep point"):
            generate_scene(fixed_point(), rng_seed=1, n_objects=40, max_attempts=5)


class TestRenderIdealMaps:
    def test_zero_objects_render_empty(self):
        sample = generate_scene(fixed_point(), rng_seed=1, n_objects=1)
        empty = sample.__class__(
            sample_id=sample.sample_id,
            point=sample.point,
            camera=sample.camera,
            image_size=sample.image_size,
            taxonomy=sample.taxonomy,
            labels=(),
            objects=(),
            boxes2d=(),
            metadata=sample.metadata,
        )
        bundle = render_ideal_maps(empty)
        for kind in KeypointKind:
            assert not bundle.heatmaps[kind].data.any()
        assert decode_frame(bundle) == []

    def test_single_object_round_trip(self):
        sample = generate_scene(fixed_point(), rng_seed=2, n_objects=1)
        for stride in (1, 4):
            bundle = render_ideal_maps(sample, stride=stride)
            dets = decode_frame(bundle, stride=stride)
            assert len(dets) == 1
            det = dets[0]
            truth = sample.boxes2d[0]
            for got, want in (
                (det.box.x_min, truth.x_min),
                (det.box.y_min, truth.y_min),
                (det.box.x_max, truth.x_max),
                (det.box.y_max, truth.y_max),
            ):
                assert abs(got - want) <= 0.5 * stride

    def test_two_objects_tags_never_cross(self):
        sample = generate_scene(fixed_point(camera_distance=35.0), rng_seed=4, n_objects=2)
        bundle = render_ideal_maps(sample)
        dets = decode_frame(bundle, group_cfg=GroupingConfig(theta=0.5))
        assert len(dets) == 2
        for det in dets:
            assert det.top_left.tag == det.bottom_right.tag
        assert {det.top_left.tag for det in dets} == {1.0, 2.0}

    def test_k_objects_decode_to_k_boxes(self):
        sample = generate_scene(fixed_point(camera_distance=55.0), rng_seed=6, n_objects=4)
        bundle = render_ideal_maps(sample)
        dets = decode_frame(bundle)
        assert len(dets) == 4
        matched = sorted(dets, key=lambda d: d.box.x_min)
        truths = sorted(sample.boxes2d, key=lambda b: b.x_min)
        for det, truth in zip(matched, truths):
            assert abs(det.box.x_min - truth.x_min) <= 0.5
            assert abs(det.box.y_max - truth.y_max) <= 0.5

    def test_lift_recovers_geometry(self):
        sample = generate_scene(fixed_point(), rng_seed=8, n_objects=1)
        bundle = render_ideal_maps(sample)
        ((det, box3d),) = decode_frame_3d(bundle, sample.camera)
        truth = sample.objects[0]
        center_err = np.linalg.norm(np.array(box3d.center) - np.array(truth.center))
        assert center_err <= 0.01 * np.linalg.norm(truth.center)
        assert np.allclose(box3d.dims, truth.dims, atol=1e-4)
        for got, want in zip(box3d.orientation, truth.orientation):
            assert abs(got - want) < 1e-3


class TestGeometryClosure:
    def test_fit_center_within_one_percent_over_sweep(self):
        # spot-check a spread of sweep points; the full grid runs in the
        # acceptance suite
        for super_category in SuperCategory:
            points = enumerate_sweep(spec(Category.CAMERA, super_category, seed=9))
            for point in points[::7]:
                sample = generate_scene(point, rng_seed=9, n_objects=1)
                truth = sample.objects[0]
                fitted = fit_center_from_2d(
                    sample.camera,
                    sample.boxes2d[0],
                    truth.dims,
                    truth.orientation,
                    truth.center[2],
                )
                err = np.linalg.norm(np.array(fitted.center) - np.array(truth.center))
                assert err <= 0.01 * np.linalg.norm(truth.center)


class TestCorruptMaps:
    def test_zero_noise_returns_bundle_unchanged(self):
        sample = generate_scene(fixed_point(), rng_seed=1, n_objects=1)
        bundle = render_ideal_maps(sample)
        assert corrupt_maps(bundle, 0.0, rng_seed=1) == bundle

    def test_deterministic_per_seed(self):
        sample = generate_scene(fixed_point(), rng_seed=1, n_objects=1)
        bundle = render_ideal_maps(sample)
        a = corrupt_maps(bundle, 0.05, rng_seed=42)
        b = corrupt_maps(bundle, 0.05, rng_seed=42)
        c = corrupt_maps(bundle, 0.05, rng_seed=43)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("level", [0.05, 0.2, 0.5])
    def test_matches_oracle_on_cell_and_dense_maps(self, level):
        """Heatmap noise is added at the stored cells of a cell-stored map,
        and every heatmap value comes out as the seed's float64 sum gives
        it. Offset and embedding values agree with the pure-Python keyed
        oracle at every stored cell and a fixed sample of others, to the
        float32 ulp (the oracle's `math` normals differ from numpy's by a
        few float64 ulp, which can move a float32 rounding by one)."""
        points = enumerate_sweep(SweepSpec(Category.CAMERA, SuperCategory.GROUND, seed=2))
        for k in range(0, 40, 8):
            sample = generate_scene(points[k], rng_seed=2, n_objects=4)
            cells = render_ideal_maps(sample)
            dense = MapBundle(**{
                group: {k: FeatureMap(m.data, role=m.role) for k, m in getattr(cells, group).items()}
                for group in ("heatmaps", "embeddings", "offsets")
            })
            height, width = cells.height, cells.width
            flat = {
                int(c)
                for group in (cells.embeddings, cells.offsets)
                for fmap in group.values()
                for c in fmap.cell_table[0]
            }
            flat |= {0, height * width - 1, *range(17, height * width, 997)}
            rows, cols = np.divmod(np.array(sorted(flat)), width)
            for seed in ([0, k], [5, k], k):
                expected = corrupt_oracle(cells, level, seed, list(zip(rows, cols)))
                for bundle in (cells, dense):
                    noisy = corrupt_maps(bundle, level, rng_seed=seed)
                    for kind, array in expected["heatmaps"].items():
                        got = noisy.heatmaps[kind].data
                        assert got.tobytes() == array.tobytes(), kind
                    for group in ("embeddings", "offsets"):
                        for kind, values in expected[group].items():
                            fmap = getattr(noisy, group)[kind]
                            got = fmap.take(rows, cols)
                            np.testing.assert_array_max_ulp(got, values, maxulp=1)
                            assert got.tobytes() == fmap.data[rows, cols].tobytes()
                    assert noisy.aux_dims is bundle.aux_dims

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), 1e300, True, "0.1", -0.1])
    def test_rejects_bad_levels(self, level):
        """Before drawing anything: NaN, infinite, bool, non-real and
        negative levels. 1e300 is finite, but its offset noise would
        overflow float32."""
        sample = generate_scene(fixed_point(), rng_seed=1, n_objects=1)
        with pytest.raises(DomainError):
            corrupt_maps(render_ideal_maps(sample), level, rng_seed=1)

    def test_offset_and_embedding_noise_statistics(self):
        """One ground frame's 614,400 offset and embedding noise values,
        each divided by its sigma, look like independent standard normals.
        Every bound is 5 standard errors: for n values, 5/sqrt(n) on a mean
        or a correlation and 5/sqrt(2n) on a standard deviation."""
        level = 0.2
        points = enumerate_sweep(SweepSpec(Category.CAMERA, SuperCategory.GROUND, seed=0))
        clean = render_ideal_maps(generate_scene(points[3], rng_seed=0, n_objects=4))
        noisy = corrupt_maps(clean, level, rng_seed=[0, 3])
        noise = []
        for group, sigma in (("embeddings", level / 10.0), ("offsets", level)):
            for kind, fmap in getattr(noisy, group).items():
                base = getattr(clean, group)[kind].data.astype(np.float64)
                noise.append(((fmap.data - base) / sigma).reshape(-1))
        assert sum(z.size for z in noise) == 614_400
        for z in [*noise, np.concatenate(noise)]:
            n = z.size
            assert abs(z.mean()) < 5 / np.sqrt(n)
            assert abs(z.std() - 1.0) < 5 / np.sqrt(2 * n)
            assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 5 / np.sqrt(n)
        n = min(z.size for z in noise)
        between = np.corrcoef([z[:n] for z in noise])[np.triu_indices(len(noise), 1)]
        assert np.all(np.abs(between) < 5 / np.sqrt(n))

    def test_heatmaps_stay_in_range(self):
        sample = generate_scene(fixed_point(), rng_seed=1, n_objects=1)
        noisy = corrupt_maps(render_ideal_maps(sample), 0.5, rng_seed=3)
        for kind in KeypointKind:
            data = noisy.heatmaps[kind].data
            assert data.min() >= 0.0 and data.max() <= 1.0

    def test_small_noise_keeps_detection(self):
        sample = generate_scene(fixed_point(), rng_seed=12, n_objects=1)
        bundle = corrupt_maps(render_ideal_maps(sample), 0.01, rng_seed=12)
        dets = decode_frame(bundle)
        assert len(dets) == 1
        assert iou(dets[0].box, sample.boxes2d[0]) >= 0.9


class TestSceneSerialization:
    def test_round_trip(self):
        sample = generate_scene(fixed_point(), rng_seed=13, n_objects=2)
        assert scene_from_dict(scene_to_dict(sample)) == sample
