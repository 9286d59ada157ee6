"""Property tests of the 3D lift: wherever passing and failing heads sit
in a frame, and with or without a camera that is rank-deficient at one
detection, each frame of a `lift_frames` batch gets the boxes or the error
that the one-detection-at-a-time `lift_oracle` gives that frame alone, and
`lift_detection` gives each detection its own. The angle wrap the lift
relies on is idempotent bit for bit.

Kept apart from test_geometry3d.py so that the other lift tests still run
where the optional `hypothesis` package is not installed.
"""

import math
import struct
import warnings
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from det3d.core import CameraIntrinsics, SuperCategory, normalize_angle
from det3d.geometry3d import lift_detection
from oracles import lift_oracle
from test_geometry3d import decoded_frames, lift_batch, outcome, with_heads

# Raw depth and dims written at a detection's center cell: None keeps the
# rendered value, which lifts, as does a kept head's random raw depth in [2, 6].
_HEADS = {
    "keep": (None, None),
    "depth overflow": (1000.0, None),
    "depth underflow": (-800.0, None),
    "center overflow": (709.0, None),
    "nonpositive dims": (None, (1.0, 0.0, 2.0)),
    "negative dims": (None, (-0.5, 1.5, 4.0)),
    "behind camera": (math.log(0.5), (4.0, 4.0, 4.0)),
}

_FRAME = decoded_frames(SuperCategory.GROUND, 2, 1, 8)[0]


@st.composite
def frames(draw):
    detections, bundle, camera = _FRAME
    n = len(detections)
    # About one detection in four fails, so some frames lift whole and the
    # first failure falls at any position.
    failing = st.sampled_from(sorted(set(_HEADS) - {"keep"}))
    kinds = [draw(failing) if draw(st.integers(0, 3)) == 0 else "keep" for _ in range(n)]
    heads = [_HEADS[kind] for kind in kinds]
    depth = [
        draw(st.floats(2.0, 6.0)) if raw is None and draw(st.booleans()) else raw
        for raw, _ in heads
    ]
    bundle = with_heads(bundle, detections, depth=depth, dims=[size for _, size in heads])
    outside = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if outside is not None:
        det = detections[outside]
        moved = replace(det, center=replace(det.center, row=bundle.height + 3))
        detections = [*detections[:outside], moved, *detections[outside + 1 :]]
    # A camera whose back-projection determinant is exactly 0 at one
    # detection's center column, so that error can meet bad heads there.
    singular = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if singular is not None:
        u = detections[singular].box.center[0]
        p = camera.p.copy()
        p[0, 0], p[2, 0] = u / 1024.0, 1.0 / 1024.0
        camera = CameraIntrinsics(p)
    return detections, bundle, camera


@st.composite
def batches(draw):
    """One to three drawn frames, with the rendered frame, which lifts, at
    a drawn place among them."""
    batch = draw(st.lists(frames(), min_size=1, max_size=3))
    batch.insert(draw(st.integers(0, len(batch))), _FRAME)
    return batch


def lift_alone(detections, bundle, camera):
    (detection,) = detections
    return [lift_detection(detection, bundle, camera)]


@settings(max_examples=120, deadline=None)
@given(batch=batches())
def test_lift_matches_oracle_wherever_heads_fail(batch):
    singles = [([det], bundle, camera) for detections, bundle, camera in batch for det in detections]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = [outcome(lift_oracle, *frame) for frame in batch]
        alone = [outcome(lift_oracle, *single) for single in singles]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lift_batch(batch) == expected
        # lift_detection raises a failing frame's error, so it must give
        # each detection's own outcome.
        assert [outcome(lift_alone, *single) for single in singles] == alone


# Angles within 1e-12 of an odd multiple of 180, where the remainder in
# `normalize_angle` can round up to 360.
_NEAR_WRAP = st.sampled_from([-540.0, -180.0, 180.0, 540.0]).flatmap(
    lambda edge: st.floats(edge - 1e-12, edge + 1e-12)
)


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1080.0, 1080.0) | _NEAR_WRAP)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=math.nextafter(-180.0, -math.inf))  # its remainder rounds up to 360
@example(x=math.nextafter(180.0, 0.0))
def test_normalize_angle_is_bitwise_idempotent(x):
    """The lift builds each Box3D without wrapping its angles a second
    time, so a wrapped angle must keep its bits when wrapped again."""
    once = normalize_angle(x)
    assert -180.0 <= once < 180.0
    assert struct.pack("<d", normalize_angle(once)) == struct.pack("<d", once)
