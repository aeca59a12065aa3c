"""Property-based tests for the sparse formats (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats.base import FormatError
from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csc, coo_to_csr, csr_to_csc
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix


def sparse_dense_arrays(max_dim: int = 12):
    """Strategy producing small dense arrays with many zeros."""
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.one_of(
                st.just(0.0),
                st.just(0.0),
                st.floats(0.5, 10.0, allow_nan=False, allow_infinity=False),
            ),
        )
    )


@settings(max_examples=60, deadline=None)
@given(dense=sparse_dense_arrays())
def test_csr_round_trip(dense):
    csr = CSRMatrix.from_dense(dense)
    np.testing.assert_allclose(csr.to_dense(), dense)
    assert csr.nnz == int(np.count_nonzero(dense))


@settings(max_examples=60, deadline=None)
@given(dense=sparse_dense_arrays())
def test_csc_round_trip(dense):
    csc = CSCMatrix.from_dense(dense)
    np.testing.assert_allclose(csc.to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(dense=sparse_dense_arrays())
def test_coo_round_trip(dense):
    coo = COOMatrix.from_dense(dense)
    np.testing.assert_allclose(coo.to_dense(), dense)


@settings(max_examples=40, deadline=None)
@given(dense=sparse_dense_arrays(), br=st.integers(1, 4), bc=st.integers(1, 4))
def test_bcsr_round_trip_any_block_shape(dense, br, bc):
    bcsr = BCSRMatrix.from_dense(dense, block_shape=(br, bc))
    np.testing.assert_allclose(bcsr.to_dense(), dense)
    assert bcsr.nnz == int(np.count_nonzero(dense))
    assert bcsr.stored_elements >= bcsr.nnz


@settings(max_examples=60, deadline=None)
@given(dense=sparse_dense_arrays())
def test_conversion_chain_preserves_matrix(dense):
    coo = COOMatrix.from_dense(dense)
    csr = coo_to_csr(coo)
    csc = csr_to_csc(csr)
    np.testing.assert_allclose(csc.to_dense(), dense)
    assert coo.nnz == csr.nnz == csc.nnz


@settings(max_examples=60, deadline=None)
@given(dense=sparse_dense_arrays())
def test_csr_spmv_matches_numpy(dense):
    csr = CSRMatrix.from_dense(dense)
    x = np.linspace(1.0, 2.0, dense.shape[1])
    np.testing.assert_allclose(csr.spmv(x), dense @ x, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(dense=sparse_dense_arrays())
def test_storage_bytes_positive_and_consistent(dense):
    coo = COOMatrix.from_dense(dense)
    csr = coo_to_csr(coo)
    csc = coo_to_csc(coo)
    assert csr.storage_bytes() >= 0
    # CSR and CSC sizes differ only through the pointer arrays.
    assert abs(csr.storage_bytes() - csc.storage_bytes()) == 4 * abs(dense.shape[0] - dense.shape[1])


def _loop_order_error(ptr, index, index_name, segment_name):
    """The per-segment scan ``_validate`` ran before it was vectorized.

    Kept as the oracle of ``check_segments_increasing``: the message of the
    first segment whose indices are not strictly increasing, else ``None``.
    """
    for seg in range(ptr.size - 1):
        if np.any(np.diff(index[ptr[seg] : ptr[seg + 1]]) <= 0):
            return f"{index_name} indices in {segment_name} {seg} must be strictly increasing"
    return None


_SEGMENTS = st.lists(
    st.one_of(
        st.lists(st.integers(0, 7), max_size=5, unique=True).map(sorted),
        st.lists(st.integers(0, 7), max_size=5),
    ),
    max_size=8,
)


def _order_outcome(build):
    try:
        build()
    except FormatError as err:
        return str(err)
    return None


@pytest.mark.parametrize("fmt", ["csr", "csc"])
@settings(max_examples=150, deadline=None)
@given(segments=_SEGMENTS)
@example(segments=[[1, 1]])  # duplicate index within a segment
@example(segments=[[0], [3, 1]])  # descent inside a segment
@example(segments=[[2, 5], [0, 1]])  # descent across a boundary: accepted
@example(segments=[[5], [0, 1], [1], [0]])  # a descent at every boundary
@example(segments=[[], [1, 2], []])  # empty segments at both ends, accepted
@example(segments=[[], [2, 1], []])  # ... rejected inside
@example(segments=[[], [], [0, 0]])  # rejected in the last segment
@example(segments=[[4, 4], [], [], [3, 2]])  # two bad segments: the first is named
@example(segments=[])
def test_order_check_matches_per_segment_loop(fmt, segments):
    ptr = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(seg) for seg in segments], out=ptr[1:])
    index = np.array([i for seg in segments for i in seg], dtype=np.int64)
    values = np.ones(index.size)
    if fmt == "csr":
        expected = _loop_order_error(ptr, index, "column", "row")
        got = _order_outcome(lambda: CSRMatrix((len(segments), 8), ptr, index, values))
    else:
        expected = _loop_order_error(ptr, index, "row", "column")
        got = _order_outcome(lambda: CSCMatrix((8, len(segments)), ptr, index, values))
    assert got == expected
