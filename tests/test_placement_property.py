"""Property test: scene placement does not depend on how many objects are
asked for. The first k objects of an n_objects=k+1 scene are those of the
n_objects=k scene, whatever chunk of candidates each one came from.

Kept apart from test_synthesis_oracles.py so that the other placement
tests still run where the optional `hypothesis` package is not installed.
"""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from det3d.core import GenerationError, SuperCategory
from det3d.synthgen import Category, SweepSpec, enumerate_sweep, generate_scene

_POINTS = [
    point
    for sup in (SuperCategory.AIR, SuperCategory.GROUND)
    for point in enumerate_sweep(SweepSpec(Category.CAMERA, sup, seed=0))
]


@st.composite
def placements(draw):
    point = draw(st.sampled_from(_POINTS))
    # Close distances add early and off-image rejections.
    distance = draw(st.sampled_from([None, 6.0, 9.0, 20.0]))
    if distance is not None:
        point = replace(point, camera_distance=distance)
    return dict(
        point=point,
        rng_seed=draw(st.integers(0, 2**16)),
        variant=draw(st.integers(0, 3)),
        max_attempts=draw(st.sampled_from([1, 3, 20, 200])),
    ), draw(st.integers(1, 30))


def place(case, n_objects):
    try:
        return generate_scene(n_objects=n_objects, **case), None
    except GenerationError as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None)
@given(args=placements())
def test_first_k_objects_do_not_depend_on_n_objects(args):
    case, k = args
    fewer, fewer_error = place(case, k)
    more, more_error = place(case, k + 1)
    if fewer_error is not None:
        assert more_error == fewer_error
    elif more_error is not None:
        assert more_error.startswith(f"could not place object {k} ")
    else:
        assert more.objects[:k] == fewer.objects
        assert more.boxes2d[:k] == fewer.boxes2d
