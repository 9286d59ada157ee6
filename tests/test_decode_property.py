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
