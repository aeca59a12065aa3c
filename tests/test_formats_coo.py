"""Tests for the COO format."""

import numpy as np
import pytest

from repro.formats.base import FormatError
from repro.formats.coo import COOMatrix


class TestConstruction:
    def test_from_dense_round_trip(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        np.testing.assert_allclose(coo.to_dense(), small_dense)

    def test_from_triplets(self):
        coo = COOMatrix.from_triplets((3, 3), [(0, 1, 2.0), (2, 2, 3.0)])
        dense = coo.to_dense()
        assert dense[0, 1] == 2.0
        assert dense[2, 2] == 3.0
        assert coo.nnz == 2

    def test_from_triplets_sums_duplicates(self):
        coo = COOMatrix.from_triplets(
            (2, 2), [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)], sum_duplicates=True
        )
        assert coo.nnz == 2
        assert coo.to_dense()[0, 0] == 3.0

    def test_rejects_duplicates_without_flag(self):
        with pytest.raises(FormatError):
            COOMatrix.from_triplets((2, 2), [(0, 0, 1.0), (0, 0, 2.0)])

    def test_rejects_unsorted_duplicates(self):
        # The duplicate is neither adjacent nor in row-major order: the
        # check must sort, not just compare neighbours as given.
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [2, 0, 1, 2], [1, 2, 0, 1], [1.0, 2.0, 3.0, 4.0])

    def test_empty_triplets(self):
        coo = COOMatrix.from_triplets((4, 5), [])
        assert coo.nnz == 0
        assert coo.shape == (4, 5)

    def test_rejects_out_of_bounds_row(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [5], [0], [1.0])

    def test_rejects_out_of_bounds_col(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [0], [7], [1.0])

    def test_rejects_negative_indices(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [-1], [0], [1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), [0, 1], [0], [1.0, 2.0])


class TestOperations:
    def test_sorted_by_row_orders_row_major(self):
        coo = COOMatrix((3, 3), [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        ordered = coo.sorted_by_row()
        assert ordered.row.tolist() == [0, 1, 2]
        np.testing.assert_allclose(ordered.to_dense(), coo.to_dense())

    def test_transpose(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        np.testing.assert_allclose(coo.transpose().to_dense(), small_dense.T)

    def test_transpose_shape_for_rectangular(self):
        coo = COOMatrix.from_triplets((2, 5), [(1, 4, 1.0)])
        transposed = coo.transpose()
        assert transposed.shape == (5, 2)
        assert transposed.to_dense()[4, 1] == 1.0

    def test_iter_triplets(self):
        triplets = [(0, 1, 2.0), (2, 2, 3.0)]
        coo = COOMatrix.from_triplets((3, 3), triplets)
        assert sorted(coo.iter_triplets()) == sorted(triplets)

    def test_storage_bytes(self):
        coo = COOMatrix.from_triplets((4, 4), [(0, 0, 1.0), (1, 1, 2.0)])
        # Two entries, each 4 + 4 index bytes + 8 value bytes.
        assert coo.storage_bytes() == 2 * 16

    def test_scipy_cross_check(self, small_dense):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        coo = COOMatrix.from_dense(small_dense)
        reference = scipy_sparse.coo_matrix(small_dense)
        assert coo.nnz == reference.nnz
        np.testing.assert_allclose(coo.to_dense(), reference.toarray())
