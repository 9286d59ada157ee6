"""Property tests: extract_peaks equals the brute-force oracle on small
quantized heatmaps, and a batch decode gives each frame what the oracles
and that frame decoded alone give.

Kept apart from test_decode.py so that the decode tests still run where
the optional `hypothesis` package is not installed.
"""

import functools
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from det3d.core import CameraIntrinsics, Det3DError, FeatureMap, KeypointKind, MapRole, SuperCategory
from det3d.decode import (
    GroupingConfig,
    PeakExtractionConfig,
    decode_frame,
    decode_frame_3d,
    decode_frames,
    extract_peaks,
)
from det3d.synthgen import (
    Category,
    SweepSpec,
    corrupt_maps,
    enumerate_sweep,
    generate_scene,
    render_ideal_maps,
)
from oracles import lift_oracle, peaks_oracle
from test_decode import decode_oracle, peak_tuples, table_rows
from test_geometry3d import with_heads
from test_lift_property import _HEADS


@settings(max_examples=150, deadline=None)
@given(
    data=arrays(
        np.float32,
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 2)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    ),
    window=st.sampled_from([1, 3, 5, 7]),
    threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    top_k=st.integers(1, 6),
)
def test_property_matches_oracle(data, window, threshold, top_k):
    cfg = PeakExtractionConfig(score_threshold=threshold, nms_window=window, top_k=top_k)
    peaks = extract_peaks([FeatureMap(data, role=MapRole.HEATMAP)], cfg, KeypointKind.CENTER)
    assert peak_tuples(peaks) == peaks_oracle(data, threshold, window, top_k)


@st.composite
def sparse_heatmaps(draw):
    """A cell-stored heatmap on a small map. Stored values include 0.0 and
    repeat, so plateaus run across stored and unstored cells, and border
    cells are a large share of every map."""
    height = draw(st.integers(1, 8))
    width = draw(st.integers(1, 8))
    channels = draw(st.integers(1, 2))
    cells = np.flatnonzero(draw(arrays(np.bool_, height * width)))
    values = draw(arrays(
        np.float32, (cells.size, channels), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])
    ))
    return FeatureMap.from_cells(cells, values, height, width, role=MapRole.HEATMAP)


@settings(max_examples=300, deadline=None)
@given(
    heatmap=sparse_heatmaps(),
    window=st.sampled_from([1, 3, 5, 7]),
    threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    top_k=st.integers(1, 4),
)
def test_property_cell_kernel_matches_dense_and_oracle(heatmap, window, threshold, top_k):
    cfg = PeakExtractionConfig(score_threshold=threshold, nms_window=window, top_k=top_k)
    dense = FeatureMap(heatmap.data, role=MapRole.HEATMAP)
    assert heatmap.cell_table is not None and dense.cell_table is None
    from_cells = extract_peaks([heatmap], cfg, KeypointKind.CENTER)
    assert table_rows(from_cells) == table_rows(extract_peaks([dense], cfg, KeypointKind.CENTER))
    assert peak_tuples(from_cells) == peaks_oracle(dense.data, threshold, window, top_k)


# Every frame is 96x72 cells, so frames of a batch share one map shape and
# decode together, and the oracles stay quick at threshold 0.
_SIZE = (96, 72)


def _scene(super_category, point, n_objects):
    points = enumerate_sweep(SweepSpec(Category.CAMERA, super_category, seed=0))
    return generate_scene(points[point], 0, n_objects=n_objects, image_size=_SIZE)


def _failing(sample, heads):
    """The scene's bundle with the given `_HEADS` kinds written at the
    centers of its first detections."""
    bundle = render_ideal_maps(sample)
    detections = decode_frame(bundle)
    raw = [_HEADS[kind] for kind in heads]
    return with_heads(
        bundle, detections, depth=[depth for depth, _ in raw], dims=[dims for _, dims in raw]
    )


@functools.lru_cache(maxsize=None)
def _pool():
    """(name, bundle, camera) of the frames the batches are drawn from."""
    air, ground = SuperCategory.AIR, SuperCategory.GROUND
    pool = []
    for point, n in ((0, 1), (1, 6), (0, 48)):
        sample = _scene(air, point, n)
        pool.append((f"air {n}", render_ideal_maps(sample), sample.camera))
    for point, n in ((25, 1), (30, 4), (40, 12)):
        sample = _scene(ground, point, n)
        pool.append((f"ground {n}", render_ideal_maps(sample), sample.camera))
    noisy = ((air, 2, 4, 0.05), (ground, 35, 4, 0.3), (air, 3, 12, 0.15))
    for k, (sup, point, n, noise) in enumerate(noisy):
        sample = _scene(sup, point, n)
        bundle = corrupt_maps(render_ideal_maps(sample), noise, rng_seed=[point, k])
        pool.append((f"noise {noise}", bundle, sample.camera))
    for sup, point, n in ((air, 4, 4), (ground, 45, 2)):
        sample = _scene(sup, point, n)
        pool.append(("no heads", render_ideal_maps(sample, include_aux=False), sample.camera))
    sample = _scene(air, 1, 6)
    pool.append(("no camera", render_ideal_maps(sample), None))
    # A camera other than the scene's: the lift is only different numbers,
    # and batches mix one camera row per detection.
    width, height = _SIZE
    other = CameraIntrinsics.simple(250.0, width / 2 + 1.5, height / 2 - 0.5)
    pool.append(("other camera", render_ideal_maps(sample), other))
    for sup, point, n, heads in (
        (air, 0, 6, ("keep", "keep", "depth overflow")),
        (ground, 30, 4, ("nonpositive dims",)),
        (ground, 40, 3, ("keep", "behind camera", "center overflow")),
    ):
        sample = _scene(sup, point, n)
        pool.append((", ".join(heads), _failing(sample, heads), sample.camera))
    return pool


def _outcome(decode, *args):
    """repr of each (detection, box3d) of a frame, or its error's type and message."""
    try:
        return _as_outcome(decode(*args))
    except Det3DError as exc:
        return _as_outcome(exc)


def _as_outcome(result):
    if isinstance(result, Det3DError):
        return type(result), str(result)
    return [(repr(det), repr(box3d)) for det, box3d in result]


@functools.lru_cache(maxsize=None)
def _expected(index, peak_cfg, group_cfg):
    """decode_oracle, then lift_oracle where the frame has heads and a camera."""
    _, bundle, camera = _pool()[index]

    def oracle(bundle, camera):
        detections = decode_oracle(bundle, peak_cfg, group_cfg)
        if camera is None or not bundle.has_aux:
            return [(det, None) for det in detections]
        return list(zip(detections, lift_oracle(detections, bundle, camera)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _outcome(oracle, bundle, camera)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    threshold=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    window=st.sampled_from([1, 3, 5]),
    top_k=st.sampled_from([1, 2, 5, 100]),
    theta=st.sampled_from([0.2, 0.5, 2.0]),
)
def test_batch_decode_gives_each_frame_its_own_outcome(batch, threshold, window, top_k, theta):
    pool = _pool()
    assert len(pool) == 16
    peak_cfg = PeakExtractionConfig(score_threshold=threshold, nms_window=window, top_k=top_k)
    group_cfg = GroupingConfig(theta=theta)
    bundles = [pool[k][1] for k in batch]
    cameras = [pool[k][2] for k in batch]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_as_outcome(result) for result in decode_frames(bundles, cameras, peak_cfg, group_cfg)]
        alone = [
            _outcome(decode_frame_3d, bundle, camera, peak_cfg, group_cfg)
            for bundle, camera in zip(bundles, cameras)
        ]
    for k, got_one, alone_one in zip(batch, got, alone):
        assert got_one == alone_one == _expected(k, peak_cfg, group_cfg), pool[k][0]
