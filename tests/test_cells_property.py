"""Property tests: a cell-stored map's `take` equals the dense fancy
index, and a noised map's `take` equals its `data` at every cell.

Kept apart from test_cells.py so that the other cell tests still run where
the optional `hypothesis` package is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from det3d.core import FeatureMap, MapRole


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


@st.composite
def noised_maps(draw):
    # Up to 96x96x4 values, so `data` noises some maps in several blocks.
    height = draw(st.integers(1, 96))
    width = draw(st.integers(1, 96))
    channels = draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False, width=32)
    if draw(st.booleans()):
        cells = sorted(draw(st.sets(st.integers(0, height * width - 1), max_size=30)))
        values = draw(st.lists(finite, min_size=len(cells) * channels, max_size=len(cells) * channels))
        base = FeatureMap.from_cells(
            cells, np.array(values, np.float32).reshape(len(cells), channels), height, width,
            role=MapRole.OFFSET,
        )
    else:
        fill = draw(finite)
        data = np.full((height, width, channels), fill, np.float32)
        data.reshape(-1)[: height * width * channels : 7] *= -0.5
        base = FeatureMap(data, role=MapRole.EMBEDDING)
    key = draw(st.integers(0, 2**64 - 1))
    sigma = draw(st.one_of(st.just(0.0), st.floats(1e-30, 1e30)))
    return base.noised(key, sigma)


@settings(max_examples=100, deadline=None)
@given(fmap=noised_maps())
def test_noised_take_equals_data_everywhere(fmap):
    dense = fmap.data
    assert dense.dtype == np.float32 and dense.shape == fmap.shape
    rows, cols = np.divmod(np.arange(fmap.height * fmap.width), fmap.width)
    assert fmap.take(rows, cols).tobytes() == dense[rows, cols].tobytes()
    # One cell alone, with nothing else computed beside it.
    row, col = rows[-1], cols[-1]
    assert fmap.take([row], [col]).tobytes() == dense[row, col][None].tobytes()
