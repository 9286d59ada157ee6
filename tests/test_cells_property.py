"""Property test: a cell-stored map's `take` equals the dense fancy index.

Kept apart from test_cells.py so that the other cell tests still run where
the optional `hypothesis` package is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from det3d.core import FeatureMap


@st.composite
def maps_and_queries(draw):
    height = draw(st.integers(1, 6))
    width = draw(st.integers(1, 6))
    channels = draw(st.integers(1, 3))
    cells = sorted(draw(st.sets(st.integers(0, height * width - 1))))
    finite = st.floats(-1e6, 1e6, allow_nan=False, width=32)
    values = draw(st.lists(
        st.lists(finite, min_size=channels, max_size=channels),
        min_size=len(cells), max_size=len(cells),
    ))
    # Queries mix stored and unstored cells, repeats included.
    flat = draw(st.lists(st.integers(0, height * width - 1), max_size=20))
    flat += draw(st.lists(st.sampled_from(cells), max_size=10)) if cells else []
    flat = draw(st.permutations(flat))
    fmap = FeatureMap.from_cells(
        cells, np.array(values, np.float32).reshape(len(cells), channels), height, width
    )
    rows, cols = np.divmod(np.array(flat, dtype=np.intp), width)
    return fmap, rows, cols


@settings(max_examples=200, deadline=None)
@given(case=maps_and_queries())
def test_take_equals_dense_fancy_index(case):
    fmap, rows, cols = case
    dense = fmap.data
    expected = dense[rows, cols]
    got = fmap.take(rows, cols)
    assert got.dtype == np.float32 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert FeatureMap(dense).take(rows, cols).tobytes() == expected.tobytes()
