"""``sorted_unique`` is a drop-in for flagless ``np.unique`` (hypothesis).

Every deduplication in ``src/`` goes through it, so it must return the same
values in the same dtype as ``np.unique`` for every input it can meet.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats.base import sorted_unique

DTYPES = st.sampled_from([np.int32, np.int64, np.float64])


def arrays(dtype):
    # A few small values next to the full range make repeats likely.
    if dtype is np.float64:
        elements = st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 2.0]), st.floats())
    else:
        elements = st.one_of(st.integers(-5, 5), st.integers(-(2**31), 2**31 - 1))
    shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40)
    return hnp.arrays(dtype=dtype, shape=shapes, elements=elements)


def assert_matches_np_unique(values):
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.ndim == 1
    np.testing.assert_array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(values=DTYPES.flatmap(arrays))
@example(values=np.zeros(0, dtype=np.int64))
@example(values=np.zeros(0, dtype=np.float64))
@example(values=np.array([7], dtype=np.int32))
@example(values=np.full(9, -3, dtype=np.int64))
@example(values=np.full(4, np.nan))
@example(values=np.array([np.nan, 2.0, -0.0, np.nan, 0.0, -np.inf]))
@example(values=np.array([[3, -1], [-1, 3]], dtype=np.int32))
def test_matches_np_unique(values):
    assert_matches_np_unique(values)


@given(values=st.lists(st.integers(-50, 50), max_size=60))
def test_python_lists(values):
    assert_matches_np_unique(values)
