"""Property test: extract_peaks equals the brute-force oracle on small quantized heatmaps.

Kept apart from test_decode.py so that the decode tests still run where
the optional `hypothesis` package is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from det3d.core import FeatureMap, KeypointKind, MapRole
from det3d.decode import PeakExtractionConfig, extract_peaks
from oracles import peaks_oracle


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
    peaks = extract_peaks(FeatureMap(data, role=MapRole.HEATMAP), cfg, KeypointKind.CENTER)
    got = [(p.row, p.col, p.class_id, p.score) for p in peaks]
    assert got == peaks_oracle(data, threshold, window, top_k)


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
    from_cells = extract_peaks(heatmap, cfg, KeypointKind.CENTER)
    assert from_cells == extract_peaks(dense, cfg, KeypointKind.CENTER)
    got = [(p.row, p.col, p.class_id, p.score) for p in from_cells]
    assert got == peaks_oracle(dense.data, threshold, window, top_k)
