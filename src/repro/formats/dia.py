"""Diagonal (DIA) format.

DIA is the representative of the *structure-specialized* compression formats
the paper discusses in Section 2.3: it is extremely efficient when all
non-zeros lie on a few diagonals and wasteful otherwise. It is included in the
substrate so the examples and tests can demonstrate the generality argument
SMASH makes against specialized formats.
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
    check_shape,
    sorted_unique,
)


class DIAMatrix(MatrixFormat):
    """Diagonal storage: a dense band per stored diagonal offset."""

    def __init__(self, shape: Tuple[int, int], offsets, data) -> None:
        self.shape = check_shape(shape)
        self.offsets = as_index_array(offsets)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise FormatError("DIA data must be 2-dimensional (ndiags x cols)")
        if data.shape != (self.offsets.size, self.shape[1]):
            raise FormatError(
                f"DIA data must have shape ({self.offsets.size}, {self.shape[1]})"
            )
        if sorted_unique(self.offsets).size != self.offsets.size:
            raise FormatError("duplicate diagonal offsets")
        self.data = data

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "DIAMatrix":
        """Compress a dense array into DIA, storing every non-empty diagonal."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        rows, cols = dense.shape
        row_idx, col_idx = np.nonzero(dense)
        offsets = sorted_unique(col_idx - row_idx)
        data = np.zeros((offsets.size, cols), dtype=np.float64)
        for k, off in enumerate(offsets):
            for i in range(rows):
                j = i + off
                if 0 <= j < cols and dense[i, j] != 0.0:
                    data[k, j] = dense[i, j]
        return cls((rows, cols), offsets, data)

    @property
    def n_diagonals(self) -> int:
        """Number of stored diagonals."""
        return int(self.offsets.size)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    def to_dense(self) -> np.ndarray:
        rows, cols = self.shape
        dense = np.zeros((rows, cols), dtype=np.float64)
        for k, off in enumerate(self.offsets):
            for j in range(cols):
                i = j - off
                if 0 <= i < rows and self.data[k, j] != 0.0:
                    dense[i, j] = self.data[k, j]
        return dense

    def storage_bytes(self) -> int:
        return self.offsets.size * INDEX_BYTES + self.data.size * VALUE_BYTES
