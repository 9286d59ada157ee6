"""Orientation/depth decoding, projection math, the 2D-constrained
3D center recovery, and the lift from head maps against its oracle."""

import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from det3d.core import (
    BehindCameraError,
    BoundsError,
    Box2D,
    Box3D,
    CameraIntrinsics,
    ConfigurationError,
    DegenerateProjectionError,
    Det3DError,
    DomainError,
    FeatureMap,
    RangeError,
    ShapeError,
    SuperCategory,
    normalize_angle,
)
from det3d import geometry3d
from det3d.decode import decode_frame, decode_frame_3d, decode_frames
from det3d.geometry3d import (
    MultiBinOutput,
    back_project_point,
    decode_depth,
    decode_multibin,
    encode_multibin,
    fit_center_from_2d,
    lift_detection,
    lift_frames,
    project_box3d,
    project_point,
    uniform_bin_centers,
)
from det3d.synthgen import (
    Category,
    SweepSpec,
    corrupt_maps,
    enumerate_sweep,
    generate_scene,
    render_ideal_maps,
)
from oracles import lift_oracle


def simple_camera(f=100.0, cx=320.0, cy=240.0):
    return CameraIntrinsics.simple(f, cx, cy)


class TestMultiBin:
    def test_single_bin_zero_residual(self):
        out = MultiBinOutput(bins=((1.0, 1.0, 0.0),), bin_centers=(0.0,))
        assert decode_multibin(out) == 0.0

    def test_quarter_turn_residual_wraps(self):
        out = MultiBinOutput(
            bins=((0.2, 1.0, 0.0), (0.8, 0.0, 1.0)), bin_centers=(-90.0, 90.0)
        )
        assert decode_multibin(out) == pytest.approx(-180.0)

    def test_thirty_degree_residual(self):
        out = MultiBinOutput(
            bins=(
                (0.0, 1.0, 0.0),
                (1.0, math.sqrt(3.0) / 2.0, 0.5),
                (0.0, 1.0, 0.0),
                (0.0, 1.0, 0.0),
            ),
            bin_centers=(-135.0, -45.0, 45.0, 135.0),
        )
        assert decode_multibin(out) == pytest.approx(-15.0, abs=1e-9)

    def test_confidence_ties_pick_smallest_index(self):
        out = MultiBinOutput(
            bins=((0.5, 1.0, 0.0), (0.5, 0.0, 1.0)), bin_centers=(-90.0, 90.0)
        )
        assert decode_multibin(out) == pytest.approx(-90.0)

    def test_all_non_finite_confidence_is_error(self):
        out = MultiBinOutput(
            bins=((float("nan"), 1.0, 0.0), (float("inf") * -1, 1.0, 0.0)),
            bin_centers=(-90.0, 90.0),
        )
        with pytest.raises(DomainError):
            decode_multibin(out)

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            n = int(rng.integers(1, 9))
            centers = uniform_bin_centers(n)
            angle = float(rng.uniform(-180.0, 180.0))
            decoded = decode_multibin(encode_multibin(angle, centers))
            assert abs(normalize_angle(decoded - angle)) < 1e-9

    def test_confidence_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            centers = uniform_bin_centers(n)
            bins = tuple(
                (float(rng.uniform(0.01, 1.0)), float(rng.normal()), float(rng.normal()))
                for _ in range(n)
            )
            out = MultiBinOutput(bins=bins, bin_centers=centers)
            scale = float(rng.uniform(0.1, 50.0))
            scaled = MultiBinOutput(
                bins=tuple((c * scale, cd, sd) for c, cd, sd in bins), bin_centers=centers
            )
            assert decode_multibin(out) == decode_multibin(scaled)

    def test_validation(self):
        with pytest.raises(DomainError):
            MultiBinOutput(bins=((1.0, 1.0, 0.0),) * 2, bin_centers=(90.0, -90.0))
        with pytest.raises(DomainError):
            MultiBinOutput(bins=((1.0, 1.0, 0.0),), bin_centers=(180.0,))
        with pytest.raises(ShapeError):
            MultiBinOutput(bins=(), bin_centers=())


class TestDecodeDepth:
    def test_zero_maps_to_one_metre(self):
        assert decode_depth(0.0) == 1.0

    def test_log_seventy(self):
        assert decode_depth(math.log(70.0)) == pytest.approx(70.0, rel=1e-12)

    def test_log_fifteen(self):
        assert decode_depth(math.log(15.0)) == pytest.approx(15.0, rel=1e-12)

    def test_overflow_is_range_error(self):
        with pytest.raises(RangeError):
            decode_depth(1000.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            decode_depth(float("nan"))


class TestProjectPoint:
    def test_optical_axis(self):
        cam = simple_camera(1.0, 0.0, 0.0)
        assert project_point(cam, (0.0, 0.0, 5.0)) == (0.0, 0.0)

    def test_hand_multiplied(self):
        cam = simple_camera()
        assert project_point(cam, (1.0, 0.0, 10.0)) == (330.0, 240.0)

    def test_hand_multiplied_vertical(self):
        cam = simple_camera()
        assert project_point(cam, (0.0, -2.0, 20.0)) == (320.0, 230.0)

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            project_point(simple_camera(), (0.0, 0.0, -1.0))

    def test_back_projection_identity(self):
        rng = np.random.default_rng(3)
        cameras = [
            simple_camera(),
            simple_camera(721.5377, 609.5593, 172.854),
            # KITTI-style P2 with translation terms
            CameraIntrinsics(
                [
                    [721.5377, 0.0, 609.5593, 44.85728],
                    [0.0, 721.5377, 172.854, 0.2163791],
                    [0.0, 0.0, 1.0, 0.002745884],
                ]
            ),
        ]
        for _ in range(300):
            cam = cameras[int(rng.integers(len(cameras)))]
            point = (
                float(rng.uniform(-50, 50)),
                float(rng.uniform(-50, 50)),
                float(rng.uniform(0.5, 300.0)),
            )
            pixel = project_point(cam, point)
            recovered = back_project_point(cam, pixel, point[2])
            assert np.allclose(recovered, point, atol=1e-9)


def box3d_corners(box):
    """The 8 corners of one box, through the corner generation that
    projection runs on box columns."""
    return geometry3d._corners(*geometry3d._columns([box]))[0]


class TestBox3DCorners:
    def test_unit_cube_at_origin_like_depth(self):
        box = Box3D(center=(0.0, 0.0, 10.0), dims=(1.0, 1.0, 1.0), orientation=(0, 0, 0))
        corners = box3d_corners(box) - np.array([0.0, 0.0, 10.0])
        expected = {
            (sx * 0.5, sy * 0.5, sz * 0.5)
            for sx in (-1, 1)
            for sy in (-1, 1)
            for sz in (-1, 1)
        }
        got = {tuple(np.round(c, 12)) for c in corners}
        assert got == expected

    def test_azimuth_quarter_turn(self):
        box = Box3D(center=(0.0, 0.0, 10.0), dims=(2.0, 2.0, 2.0), orientation=(90.0, 0, 0))
        corners = box3d_corners(box)
        # the (+,+,+) sign pattern is corner index 7; Ry(90) maps (1,1,1) -> (1,1,-1)
        assert np.allclose(corners[7], (1.0, 1.0, 9.0), atol=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        dims = (1.2, 0.8, 3.0)
        base = Box3D(center=(0.0, 0.0, 50.0), dims=dims, orientation=(0, 0, 0))
        for _ in range(20):
            shift = rng.uniform(-5, 5, size=3) + np.array([0, 0, 10])
            moved = Box3D(
                center=tuple(np.array(base.center) + shift), dims=dims, orientation=(0, 0, 0)
            )
            assert np.allclose(box3d_corners(moved), box3d_corners(base) + shift, atol=1e-12)

    def test_centroid_equals_center_under_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            box = Box3D(
                center=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), float(rng.uniform(5, 100))),
                dims=tuple(rng.uniform(0.2, 4.0, size=3)),
                orientation=tuple(rng.uniform(-180, 180, size=3)),
            )
            centroid = box3d_corners(box).mean(axis=0)
            assert np.allclose(centroid, box.center, atol=1e-9)


class TestProjectBox3D:
    def test_symmetric_box_centered_on_principal_point(self):
        cam = simple_camera()
        box = Box3D(center=(0.0, 0.0, 10.0), dims=(1.0, 1.0, 1.0), orientation=(0, 0, 0))
        hull = project_box3d(cam, box)
        assert hull.center == (320.0, 240.0)

    def test_unit_cube_extents(self):
        cam = simple_camera()
        box = Box3D(center=(0.0, 0.0, 10.0), dims=(1.0, 1.0, 1.0), orientation=(0, 0, 0))
        hull = project_box3d(cam, box)
        near_half_width = 0.5 * 100.0 / 9.5
        assert hull.x_min == pytest.approx(320.0 - near_half_width, abs=1e-9)
        assert hull.x_max == pytest.approx(320.0 + near_half_width, abs=1e-9)

    def test_hull_shrinks_with_depth(self):
        cam = simple_camera()
        areas = []
        for z in (10.0, 15.0, 25.0, 50.0, 120.0):
            box = Box3D(center=(0.0, 0.0, z), dims=(1.0, 1.0, 1.0), orientation=(30, 10, 5))
            areas.append(project_box3d(cam, box).area)
        assert all(a > b for a, b in zip(areas, areas[1:]))

    def test_corner_behind_camera_rejected(self):
        cam = simple_camera()
        box = Box3D(center=(0.0, 0.0, 0.4), dims=(1.0, 1.0, 1.0), orientation=(0, 0, 0))
        with pytest.raises(BehindCameraError):
            project_box3d(cam, box)


class TestFitCenterFrom2D:
    def test_principal_point_maps_to_axis(self):
        cam = simple_camera()
        box2d = Box2D(300.0, 220.0, 340.0, 260.0)
        fitted = fit_center_from_2d(cam, box2d, (1.0, 1.0, 1.0), (0, 0, 0), 10.0)
        assert fitted.center[0] == pytest.approx(0.0, abs=1e-9)
        assert fitted.center[1] == pytest.approx(0.0, abs=1e-9)
        assert fitted.center[2] == 10.0

    def test_inverse_of_projection_example(self):
        cam = simple_camera()
        box2d = Box2D(325.0, 235.0, 335.0, 245.0)  # centered at (330, 240)
        fitted = fit_center_from_2d(cam, box2d, (1.0, 1.0, 1.0), (0, 0, 0), 10.0)
        # the center ray back-projects to x = (330 - 320) * 10 / 100 = 1.0;
        # the hull-centering correction then moves x by a few centimetres
        assert back_project_point(cam, box2d.center, 10.0) == (1.0, 0.0, 10.0)
        assert fitted.center[0] == pytest.approx(1.0, abs=0.05)
        assert fitted.center[1] == pytest.approx(0.0, abs=1e-9)
        reprojected = project_box3d(cam, fitted)
        assert abs(reprojected.center[0] - 330.0) <= 1.0
        assert abs(reprojected.center[1] - 240.0) <= 1.0

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(DomainError):
            fit_center_from_2d(simple_camera(), Box2D(0, 0, 1, 1), (1, 1, 1), (0, 0, 0), 0.0)

    def test_reprojection_round_trip_within_one_pixel(self):
        rng = np.random.default_rng(6)
        cam = simple_camera(260.0, 160.0, 120.0)
        priors = [(3.0, 1.0, 3.0), (1.8, 1.6, 4.2)]
        for _ in range(300):
            prior = priors[int(rng.integers(2))]
            dims = tuple(p * float(rng.uniform(0.85, 1.15)) for p in prior)
            z = float(rng.uniform(13.5, 385.0))
            reach = 0.3 * z
            center = (float(rng.uniform(-reach, reach)), float(rng.uniform(-reach, reach)), z)
            truth = Box3D(
                center=center, dims=dims, orientation=tuple(rng.uniform(-180, 180, size=3))
            )
            box2d = project_box3d(cam, truth)
            fitted = fit_center_from_2d(cam, box2d, truth.dims, truth.orientation, z)
            reprojected = project_box3d(cam, fitted)
            du = reprojected.center[0] - box2d.center[0]
            dv = reprojected.center[1] - box2d.center[1]
            assert math.hypot(du, dv) <= 1.0


def decoded_frames(super_category, seed, count, n_objects):
    """(detections, bundle, camera) of ideal camera-sweep frames."""
    points = enumerate_sweep(
        SweepSpec(category=Category.CAMERA, super_category=super_category, seed=seed)
    )
    frames = []
    for k in range(count):
        sample = generate_scene(points[k], seed, n_objects=n_objects, sample_id=f"{k:06d}")
        bundle = render_ideal_maps(sample)
        frames.append((decode_frame(bundle, taxonomy=sample.taxonomy), bundle, sample.camera))
    return frames


def outcome(lift, detections, bundle, camera):
    """The boxes' repr, or the type and message of the error raised."""
    try:
        return repr(lift(detections, bundle, camera))
    except Det3DError as exc:
        return type(exc), str(exc)


def lift_batch(frames):
    """`lift_frames` on a batch of (detections, bundle, camera) frames: for
    each frame, what `outcome` gives, its boxes' repr or its error's type
    and message. A failed frame's detections get None boxes."""
    detections, bundles, cameras = zip(*frames)
    counts = [len(dets) for dets in detections]
    index = np.repeat(np.arange(len(frames)), counts)
    boxes, errors = lift_frames([det for dets in detections for det in dets], index, bundles, cameras)
    assert set(errors) <= set(range(len(frames)))
    outcomes, start = [], 0
    for f, count in enumerate(counts):
        own, start = boxes[start : start + count], start + count
        if f in errors:
            assert own == [None] * count
            outcomes.append((type(errors[f]), str(errors[f])))
        else:
            outcomes.append(repr(own))
    return outcomes


def check_batch(frames):
    """Assert that each frame of a `lift_frames` batch gets what
    `lift_oracle` gives that frame alone; return the outcomes."""
    got = lift_batch(frames)
    assert got == [outcome(lift_oracle, *frame) for frame in frames]
    return got


def failures(outcomes):
    """The error type of each outcome, None for boxes."""
    return [got[0] if isinstance(got, tuple) else None for got in outcomes]


def with_heads(bundle, detections, depth=None, dims=None):
    """A copy of the bundle whose head maps hold the given raw depth and
    dims at each detection's center cell (None keeps the stored value)."""
    depth_map = bundle.aux_depth.data.copy()
    dims_map = bundle.aux_dims.data.copy()
    for det, raw, size in zip(detections, depth, dims):
        cell = (det.center.row, det.center.col)
        if raw is not None:
            depth_map[cell] = raw
        if size is not None:
            dims_map[cell] = size
    return replace(bundle, aux_depth=FeatureMap(depth_map), aux_dims=FeatureMap(dims_map))


@pytest.fixture(scope="module")
def ground_frame():
    (frame,) = decoded_frames(SuperCategory.GROUND, 1, 1, 4)
    assert len(frame[0]) == 4
    return frame


class TestLiftMatchesOracle:
    """Each frame of a `lift_frames` batch that mixes frames that lift with
    frames that fail gets what `lift_oracle` gives that frame alone."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_crowded_air_frames(self, seed):
        frames = decoded_frames(SuperCategory.AIR, seed, 3, 48)
        detections, bundle, camera = frames[0]
        overflow = with_heads(bundle, detections[5:6], depth=[1000.0], dims=[None])
        frames.insert(1, (detections, overflow, camera))
        assert all(len(detections) > 40 for detections, _, _ in frames)
        assert failures(check_batch(frames)) == [None, RangeError, None, None]

    def test_ground_frames(self):
        frames = decoded_frames(SuperCategory.GROUND, 2, 4, 8)
        detections, bundle, camera = frames[2]
        behind = with_heads(bundle, detections[3:4], depth=[math.log(0.5)], dims=[(4.0, 4.0, 4.0)])
        frames[2] = (detections, behind, camera)
        assert failures(check_batch(frames)) == [None, None, BehindCameraError, None]

    def test_random_heads(self, ground_frame):
        detections, bundle, camera = ground_frame
        rng = np.random.default_rng(5)
        errors = set()
        for _ in range(60):
            orientation = bundle.aux_orientation.data.copy()
            for det in detections:
                heads = rng.normal(size=orientation.shape[2])
                heads[::3] = rng.integers(0, 3, size=heads.size // 3)  # tied confidences
                orientation[det.center.row, det.center.col] = heads
            noisy = with_heads(
                replace(bundle, aux_orientation=FeatureMap(orientation)),
                detections,
                depth=rng.choice([-800.0, 0.0, 1.0, 3.0, 800.0], size=4) + rng.normal(size=4),
                dims=rng.uniform(-0.5, 5.0, size=(4, 3)),
            )
            got = check_batch([ground_frame, (detections, noisy, camera), ground_frame])
            errors.add(failures(got)[1])
        assert errors >= {RangeError, DomainError, BehindCameraError}

    def test_single_detection(self, ground_frame):
        detections, bundle, camera = ground_frame
        for det in detections:
            assert repr(lift_detection(det, bundle, camera)) == repr(
                lift_oracle([det], bundle, camera)[0]
            )

    def test_no_detections(self, ground_frame):
        _, bundle, camera = ground_frame
        no_heads = replace(bundle, aux_depth=None, aux_dims=None, aux_orientation=None)
        for bundles in ([bundle], [no_heads], [bundle, no_heads]):
            assert lift_frames([], np.zeros(0, np.intp), bundles, [camera] * len(bundles)) == ([], {})
        empty = ([], bundle, camera)
        assert check_batch([empty, ground_frame, empty])[::2] == ["[]", "[]"]

    def test_detections_of_a_bundle_without_heads(self, ground_frame):
        detections, bundle, camera = ground_frame
        no_heads = replace(bundle, aux_depth=None, aux_dims=None, aux_orientation=None)
        with pytest.raises(ConfigurationError, match="^bundle carries no 3D head maps$"):
            lift_batch([ground_frame, (detections, no_heads, camera)])
        with pytest.raises(ConfigurationError, match="^bundle carries no 3D head maps$"):
            lift_detection(detections[0], no_heads, camera)


class TestLiftErrorParity:
    """Each failing frame of a `lift_frames` batch gets the error that
    lifting its detections one at a time raises first, and the frames
    around it lift as they do alone."""

    @staticmethod
    def check(ground_frame, detections, bundle, camera, error):
        frame = (detections, bundle, camera)
        got = check_batch([ground_frame, frame, ground_frame, frame])
        assert failures(got) == [None, error, None, error]

    def test_depth_overflow(self, ground_frame):
        detections, bundle, camera = ground_frame
        broken = with_heads(bundle, detections, depth=[None, 1000.0, None, None], dims=[None] * 4)
        self.check(ground_frame, detections, broken, camera, RangeError)

    def test_nonpositive_dims(self, ground_frame):
        detections, bundle, camera = ground_frame
        broken = with_heads(
            bundle, detections, depth=[None] * 4, dims=[None, None, (0.0, 1.0, 1.0), None]
        )
        self.check(ground_frame, detections, broken, camera, DomainError)

    def test_near_box_behind_camera(self, ground_frame):
        detections, bundle, camera = ground_frame
        broken = with_heads(
            bundle,
            detections,
            depth=[None, None, math.log(0.5), None],
            dims=[None, None, (4.0, 4.0, 4.0), None],
        )
        self.check(ground_frame, detections, broken, camera, BehindCameraError)

    def test_center_outside_the_map(self, ground_frame):
        detections, bundle, camera = ground_frame
        outside = replace(detections[1], center=replace(detections[1].center, row=bundle.height + 3))
        self.check(ground_frame, [detections[0], outside, *detections[2:]], bundle, camera, BoundsError)

    @pytest.mark.parametrize(
        "order", [(RangeError, BehindCameraError), (BehindCameraError, RangeError)]
    )
    def test_earlier_detection_wins(self, ground_frame, order):
        detections, bundle, camera = ground_frame
        near = (math.log(0.5), (4.0, 4.0, 4.0))
        overflow = (1000.0, None)
        heads = [{RangeError: overflow, BehindCameraError: near}[error] for error in order]
        # The later detection fails in an earlier step of its own lift
        # when the earlier one fails at projection, and the other way round.
        broken = with_heads(
            bundle,
            detections,
            depth=[None, heads[0][0], heads[1][0], None],
            dims=[None, heads[0][1], heads[1][1], None],
        )
        self.check(ground_frame, detections, broken, camera, order[0])

    def test_failed_lift_leaves_no_reference_cycle(self, ground_frame):
        detections, bundle, camera = ground_frame
        broken = with_heads(bundle, detections, depth=[1000.0, None, None, None], dims=[None] * 4)
        alive = weakref.ref(broken)
        gc.disable()
        try:
            with pytest.raises(RangeError):
                decode_frame_3d(broken, camera)
            del broken
            assert alive() is None
        finally:
            gc.enable()

    def test_failed_frame_outcome_leaves_no_reference_cycle(self, ground_frame):
        """`decode_frames` keeps a failed frame's error as its outcome. The
        error holds no frame of the decode, its context's traceback
        included, so dropping the outcomes frees the bundle with the cycle
        collector off."""
        detections, bundle, camera = ground_frame
        broken = with_heads(bundle, detections, depth=[1000.0, None, None, None], dims=[None] * 4)
        alive = weakref.ref(broken)
        gc.disable()
        try:
            outcomes = decode_frames([bundle, broken, bundle], [camera] * 3)
            assert [type(outcome) for outcome in outcomes] == [list, RangeError, list]
            del broken, outcomes
            assert alive() is None
        finally:
            gc.enable()

    def test_overflowing_center_is_a_box_error(self, ground_frame):
        """A raw depth near 709 decodes to a finite depth whose back-projected
        center overflows: the box's own DomainError, with no RuntimeWarning."""
        detections, bundle, camera = ground_frame
        broken = with_heads(bundle, detections, depth=[None, 709.0, None, None], dims=[None] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = outcome(lift_oracle, detections, broken, camera)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lift_batch([(detections, broken, camera), ground_frame])
        assert got == [expected, outcome(lift_oracle, *ground_frame)]
        assert expected == (DomainError, "box parameters must be finite")

    def test_rank_deficient_camera(self, ground_frame):
        """The back-projection's 2x2 determinant is exactly 0 at the third
        detection's center column alone: p[0, 0] == u * p[2, 0]."""
        detections, bundle, camera = ground_frame
        u = detections[2].box.center[0]
        p = camera.p.copy()
        p[0, 0], p[2, 0] = u / 1024.0, 1.0 / 1024.0
        self.check(ground_frame, detections, bundle, CameraIntrinsics(p), DegenerateProjectionError)

    def test_corner_at_zero_scale(self, ground_frame):
        """A zero third camera row gives every corner w == 0; the first
        box's projection error comes before the second one's dims error."""
        detections, bundle, camera = ground_frame
        p = camera.p.copy()
        p[2] = 0.0
        broken = with_heads(
            bundle, detections, depth=[None] * 4, dims=[None, (0.0, 1.0, 1.0), None, None]
        )
        self.check(ground_frame, detections, broken, CameraIntrinsics(p), DegenerateProjectionError)

    @pytest.mark.parametrize("super_category", [SuperCategory.AIR, SuperCategory.GROUND])
    def test_noisy_frames(self, super_category):
        """Whole decoded frames of bundles corrupted at noise 0.2, whose
        false centers read zero heads, among the ideal frames."""
        points = enumerate_sweep(
            SweepSpec(category=Category.CAMERA, super_category=super_category, seed=0)
        )
        frames = []
        for k in range(8):
            sample = generate_scene(points[k], 0, n_objects=4, sample_id=f"{k:06d}")
            ideal = render_ideal_maps(sample)
            for bundle in (ideal, corrupt_maps(ideal, 0.2, rng_seed=[0, k])):
                frames.append((decode_frame(bundle, taxonomy=sample.taxonomy), bundle, sample.camera))
        # Each batch is two ideal frames, which lift, each with its noisy copy.
        errors = []
        for start in range(0, 16, 4):
            errors += failures(check_batch(frames[start : start + 4]))
        assert errors[::2] == [None] * 8 and any(errors[1::2])
