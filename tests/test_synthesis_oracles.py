"""Scene placement, heatmap rendering and keyed noise against naive
references: `scene_oracle` places one candidate at a time,
`heatmap_oracle` evaluates every bump cell by cell, and
`keyed_uniforms_oracle` hashes one value index at a time in Python ints."""

import re
from dataclasses import replace

import numpy as np
import pytest

from det3d.core import (
    ALL_KINDS,
    Z_MAX,
    Box2D,
    CameraIntrinsics,
    GenerationError,
    SuperCategory,
    keyed_normals,
    keyed_uniforms,
)
from det3d.synthgen import Category, SweepSpec, enumerate_sweep, generate_scene, render_ideal_maps
from oracles import heatmap_oracle, keyed_normal_oracle, keyed_uniforms_oracle, scene_oracle


def sweep(super_category, seed=0):
    return enumerate_sweep(SweepSpec(Category.CAMERA, super_category, seed=seed))


def assert_placed_as_oracle(point, seed, n_objects, variant=0, **kwargs):
    sample = generate_scene(point, seed, n_objects=n_objects, variant=variant, **kwargs)
    objects, boxes2d, rejections = scene_oracle(point, seed, n_objects, variant=variant, **kwargs)
    assert sample.objects == objects
    assert sample.boxes2d == boxes2d
    return sample, rejections


class TestSceneMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_sixty_crowded_air_variants(self, seed):
        points = sweep(SuperCategory.AIR, seed)
        rejected = 0
        for k in range(60):
            _, rejections = assert_placed_as_oracle(
                points[k % len(points)], seed, 48, variant=k // len(points)
            )
            rejected += rejections["overlap"]
        assert rejected > 0

    def test_ground_sweep_with_four_objects(self):
        for point in sweep(SuperCategory.GROUND):
            assert_placed_as_oracle(point, 0, 4)

    def test_candidates_leaving_the_image(self, monkeypatch):
        # With the centred camera no hull can leave the image: the x/y
        # reach keeps every corner within the margin. Moving the principal
        # point off centre, in the library and the oracle alike, makes
        # hulls cross the right and bottom borders.
        simple = CameraIntrinsics.simple
        monkeypatch.setattr(
            CameraIntrinsics, "simple", lambda focal, cx, cy: simple(focal, cx + 40.0, cy + 30.0)
        )
        rejected = 0
        for point in sweep(SuperCategory.AIR)[:6]:
            sample, rejections = assert_placed_as_oracle(point, 0, 12)
            assert sample.camera.cx == 200.0
            rejected += rejections["image"]
        assert rejected > 0

    def test_candidates_ruled_out_before_x_and_y(self):
        point = replace(sweep(SuperCategory.AIR)[0], camera_distance=6.0)
        _, rejections = assert_placed_as_oracle(point, 3, 1)
        assert rejections["near"] + rejections["reach"] > 0

    @pytest.mark.parametrize("max_attempts", [2, 3, 4])
    def test_tight_attempt_budgets(self, max_attempts):
        # Each object's tries are counted afresh: a crowded scene whose
        # objects fail a few times each still places them all.
        over_budget = 0  # scenes placed with more failed tries than one budget
        for point in sweep(SuperCategory.AIR)[:12]:
            try:
                expected = scene_oracle(point, 0, 48, max_attempts=max_attempts)
            except GenerationError as exc:
                with pytest.raises(GenerationError, match=f"^{re.escape(str(exc))}$"):
                    generate_scene(point, 0, n_objects=48, max_attempts=max_attempts)
                continue
            sample = generate_scene(point, 0, n_objects=48, max_attempts=max_attempts)
            assert (sample.objects, sample.boxes2d) == expected[:2]
            over_budget += expected[2]["overlap"] > max_attempts
        assert over_budget > 0

    @pytest.mark.parametrize(
        "n_objects, max_attempts, message",
        [
            (60, 200, "could not place object 12 after 200 attempts"),
            (30, 5, "could not place object 7 after 5 attempts"),
            (3, 1, "could not place object 1 after 1 attempts"),
            (5, 0, "could not place object 0 after 0 attempts"),
        ],
    )
    def test_generation_error(self, n_objects, max_attempts, message):
        point = sweep(SuperCategory.GROUND)[0]
        with pytest.raises(GenerationError) as expected:
            scene_oracle(point, 0, n_objects, max_attempts=max_attempts)
        with pytest.raises(GenerationError) as got:
            generate_scene(point, 0, n_objects=n_objects, max_attempts=max_attempts)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(message)


def assert_heatmaps_match(sample, stride=1, sigma=1.5):
    bundle = render_ideal_maps(sample, stride=stride, sigma=sigma)
    expected = heatmap_oracle(sample, stride=stride, sigma=sigma)
    for kind in ALL_KINDS:
        assert bundle.heatmaps[kind].data.tobytes() == expected[kind].tobytes(), kind
    return bundle


class TestHeatmapsMatchOracle:
    @pytest.mark.parametrize("index", [0, 23, 47])
    def test_crowded_air_scenes(self, index):
        sample = generate_scene(sweep(SuperCategory.AIR)[index], 0, n_objects=48)
        assert_heatmaps_match(sample)

    @pytest.mark.parametrize("sigma", [0.3, 1.5, 1.7, 2.6])
    def test_overlapping_bumps(self, sigma):
        sample = generate_scene(sweep(SuperCategory.GROUND)[5], 0, n_objects=3)
        # Keypoints two and three cells apart, so their bumps overlap.
        boxes = (
            Box2D(40.2, 30.7, 80.6, 70.1),
            Box2D(42.9, 32.1, 83.3, 72.8),
            Box2D(45.5, 30.2, 78.4, 69.9),
        )
        assert_heatmaps_match(replace(sample, boxes2d=boxes), sigma=sigma)

    def test_bumps_clipped_at_every_border(self):
        sample = generate_scene(sweep(SuperCategory.GROUND)[5], 0, n_objects=2)
        # The first box's TL sits in the top-left corner cell and its BR in
        # the bottom-right one; the second's keypoints touch the other two
        # corners' edges.
        boxes = (Box2D(0.4, 0.6, 319.5, 239.2), Box2D(1.5, 237.0, 318.2, 239.9))
        bundle = assert_heatmaps_match(replace(sample, boxes2d=boxes), sigma=2.0)
        tl = bundle.heatmaps[ALL_KINDS[0]]
        assert tl.get(0, 0, sample.objects[0].class_id) == 1.0

    @pytest.mark.parametrize("sigma", [20.0, 1e30])
    def test_radius_past_the_map(self, sigma):
        # At stride 8 the map is 30x40 cells, and 3 sigma exceeds both sides.
        sample = generate_scene(sweep(SuperCategory.GROUND)[3], 0, n_objects=4)
        assert_heatmaps_match(sample, stride=8, sigma=sigma)

    def test_stride_two_ground_scene(self):
        sample = generate_scene(sweep(SuperCategory.GROUND)[3], 0, n_objects=4)
        assert_heatmaps_match(sample, stride=2)


class TestKeyedNoiseMatchesOracle:
    KEYS = (0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1, 11749869230777074271)
    # Small indices, the ends of a 320x240x36 map, and indices whose
    # counters 2i+1 and 2i+2 wrap mod 2**64.
    INDICES = (*range(64), 2_764_799, 2_764_800, 2**62, 2**63 - 1, 2**64 - 1)

    def test_uniforms_are_bit_identical(self):
        index = np.array(self.INDICES, dtype=np.uint64)
        for key in self.KEYS:
            u1, u2 = keyed_uniforms(np.uint64(key), index)
            expected = [keyed_uniforms_oracle(key, i) for i in self.INDICES]
            assert u1.tolist() == [a for a, _ in expected], key
            assert u2.tolist() == [b for _, b in expected], key
            assert 0.0 < u1.min() and u1.max() <= 1.0 and 0.0 <= u2.min() and u2.max() < 1.0

    def test_normals_agree_within_four_ulp(self):
        """numpy's vectorized log and cos and the C library's `math` ones
        may each round differently by an ulp or two; 2 was the largest
        gap seen over 1.8 million values."""
        index = np.arange(4096)
        for key in self.KEYS:
            got = keyed_normals(key, index)
            expected = np.array([keyed_normal_oracle(key, i) for i in range(4096)])
            np.testing.assert_array_max_ulp(got, expected, maxulp=4)
            assert np.abs(got).max() <= Z_MAX
