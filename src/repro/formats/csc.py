"""Compressed Sparse Column (CSC) format.

CSC mirrors CSR with column-major storage. The paper's inner-product SpMM
baseline compresses matrix ``A`` with CSR and matrix ``B`` with CSC so that
rows of ``A`` and columns of ``B`` can be streamed during index matching
(Section 2.1.2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.formats.base import (
    INDEX_BYTES,
    VALUE_BYTES,
    FormatError,
    MatrixFormat,
    as_index_array,
    as_value_array,
    check_segments_increasing,
    check_shape,
)


class CSCMatrix(MatrixFormat):
    """Compressed Sparse Column storage."""

    def __init__(self, shape: Tuple[int, int], col_ptr, row_ind, values) -> None:
        self.shape = check_shape(shape)
        self.col_ptr = as_index_array(col_ptr, length=self.shape[1] + 1)
        self.row_ind = as_index_array(row_ind)
        self.values = as_value_array(values, length=self.row_ind.size)
        self._validate()

    def _validate(self) -> None:
        rows, _cols = self.shape
        if self.col_ptr[0] != 0:
            raise FormatError("col_ptr must start at 0")
        if self.col_ptr[-1] != self.row_ind.size:
            raise FormatError("col_ptr must end at nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise FormatError("col_ptr must be non-decreasing")
        if self.row_ind.size:
            if self.row_ind.min() < 0 or self.row_ind.max() >= rows:
                raise FormatError("row index out of bounds")
        check_segments_increasing(self.col_ptr, self.row_ind, "row", "column")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Compress a dense array into CSC."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        rows, cols = dense.shape
        col_ptr = np.zeros(cols + 1, dtype=np.int64)
        row_ind_parts = []
        value_parts = []
        for j in range(cols):
            nz_rows = np.nonzero(dense[:, j])[0]
            col_ptr[j + 1] = col_ptr[j] + nz_rows.size
            row_ind_parts.append(nz_rows)
            value_parts.append(dense[nz_rows, j])
        row_ind = np.concatenate(row_ind_parts) if row_ind_parts else np.zeros(0, np.int64)
        values = np.concatenate(value_parts) if value_parts else np.zeros(0, np.float64)
        return cls((rows, cols), col_ptr, row_ind, values)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def col_nnz(self, j: int) -> int:
        """Number of non-zero elements stored in column ``j``."""
        return int(self.col_ptr[j + 1] - self.col_ptr[j])

    def col_slice(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(row_ind, values)`` views for column ``j``."""
        start, end = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_ind[start:end], self.values[start:end]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for j in range(self.cols):
            rows, vals = self.col_slice(j)
            dense[rows, j] = vals
        return dense

    def storage_bytes(self) -> int:
        return (
            self.col_ptr.size * INDEX_BYTES
            + self.row_ind.size * INDEX_BYTES
            + self.values.size * VALUE_BYTES
        )
