"""Compressed Sparse Row (CSR) format — the paper's primary baseline."""

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


class CSRMatrix(MatrixFormat):
    """Compressed Sparse Row storage (Section 2.1 of the paper).

    Three arrays describe the matrix:

    * ``row_ptr`` — length ``rows + 1``; entry ``i`` is the offset of the
      first non-zero of row ``i`` inside ``col_ind``/``values``.
    * ``col_ind`` — the column index of every non-zero, row-major order.
    * ``values`` — the non-zero values themselves.

    Discovering a non-zero's position requires the indirect, data-dependent
    loads that SMASH is designed to eliminate; the instrumented kernels in
    :mod:`repro.kernels` account for those loads explicitly.
    """

    def __init__(self, shape: Tuple[int, int], row_ptr, col_ind, values) -> None:
        self.shape = check_shape(shape)
        self.row_ptr = as_index_array(row_ptr, length=self.shape[0] + 1)
        self.col_ind = as_index_array(col_ind)
        self.values = as_value_array(values, length=self.col_ind.size)
        self._validate()

    def _validate(self) -> None:
        _rows, cols = self.shape
        if self.row_ptr[0] != 0:
            raise FormatError("row_ptr must start at 0")
        if self.row_ptr[-1] != self.col_ind.size:
            raise FormatError("row_ptr must end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise FormatError("row_ptr must be non-decreasing")
        if self.col_ind.size:
            if self.col_ind.min() < 0 or self.col_ind.max() >= cols:
                raise FormatError("column index out of bounds")
        check_segments_increasing(self.row_ptr, self.col_ind, "column", "row")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Compress a dense array into CSR."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        rows, cols = dense.shape
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        col_ind_parts = []
        value_parts = []
        for i in range(rows):
            nz_cols = np.nonzero(dense[i])[0]
            row_ptr[i + 1] = row_ptr[i] + nz_cols.size
            col_ind_parts.append(nz_cols)
            value_parts.append(dense[i, nz_cols])
        col_ind = np.concatenate(col_ind_parts) if col_ind_parts else np.zeros(0, np.int64)
        values = np.concatenate(value_parts) if value_parts else np.zeros(0, np.float64)
        return cls((rows, cols), row_ptr, col_ind, values)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def row_nnz(self, i: int) -> int:
        """Number of non-zero elements stored in row ``i``."""
        return int(self.row_ptr[i + 1] - self.row_ptr[i])

    def row_slice(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(col_ind, values)`` views for row ``i``."""
        start, end = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_ind[start:end], self.values[start:end]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for i in range(self.rows):
            cols, vals = self.row_slice(i)
            dense[i, cols] = vals
        return dense

    def storage_bytes(self) -> int:
        return (
            self.row_ptr.size * INDEX_BYTES
            + self.col_ind.size * INDEX_BYTES
            + self.values.size * VALUE_BYTES
        )

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Vectorized reference SpMV (used for functional validation only)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise FormatError(f"vector length {x.shape} does not match cols {self.cols}")
        y = np.zeros(self.rows, dtype=np.float64)
        products = self.values * x[self.col_ind]
        np.add.at(y, np.repeat(np.arange(self.rows), np.diff(self.row_ptr)), products)
        return y
