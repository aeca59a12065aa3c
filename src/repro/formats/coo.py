"""Coordinate (COO) sparse matrix format."""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.formats.base import (
    INDEX_BYTES,
    VALUE_BYTES,
    FormatError,
    MatrixFormat,
    as_index_array,
    as_value_array,
    check_shape,
    sorted_unique,
)


class COOMatrix(MatrixFormat):
    """Coordinate-list format: parallel ``(row, col, value)`` arrays.

    COO is the interchange format of the reproduction: the synthetic workload
    generators emit COO, which is then converted to CSR/CSC/BCSR or to the
    SMASH hierarchical-bitmap encoding. Duplicate coordinates are not allowed;
    use :meth:`from_triplets` with ``sum_duplicates=True`` to coalesce them.
    """

    def __init__(self, shape: Tuple[int, int], row, col, values) -> None:
        self.shape = check_shape(shape)
        self.row = as_index_array(row)
        self.col = as_index_array(col, length=self.row.size)
        self.values = as_value_array(values, length=self.row.size)
        self._validate()

    def _validate(self) -> None:
        rows, cols = self.shape
        if self.row.size:
            if self.row.min() < 0 or self.row.max() >= rows:
                raise FormatError("row index out of bounds")
            if self.col.min() < 0 or self.col.max() >= cols:
                raise FormatError("column index out of bounds")
        keys = self.row * self.shape[1] + self.col
        if sorted_unique(keys).size != keys.size:
            raise FormatError("duplicate coordinates in COO matrix")

    @classmethod
    def from_triplets(
        cls,
        shape: Tuple[int, int],
        triplets: Iterable[Tuple[int, int, float]],
        sum_duplicates: bool = False,
    ) -> "COOMatrix":
        """Build a COO matrix from an iterable of ``(row, col, value)``."""
        triplets = list(triplets)
        if not triplets:
            return cls(shape, [], [], [])
        row = np.array([t[0] for t in triplets], dtype=np.int64)
        col = np.array([t[1] for t in triplets], dtype=np.int64)
        val = np.array([t[2] for t in triplets], dtype=np.float64)
        if sum_duplicates:
            rows, cols = check_shape(shape)
            keys = row * cols + col
            order = np.argsort(keys, kind="stable")
            keys, row, col, val = keys[order], row[order], col[order], val[order]
            unique_keys, start = np.unique(keys, return_index=True)
            summed = np.add.reduceat(val, start)
            row = unique_keys // cols
            col = unique_keys % cols
            val = summed
        return cls(shape, row, col, val)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix containing the non-zero entries of ``dense``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        row, col = np.nonzero(dense)
        return cls(dense.shape, row, col, dense[row, col])

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.row, self.col] = self.values
        return dense

    def storage_bytes(self) -> int:
        return self.nnz * (2 * INDEX_BYTES + VALUE_BYTES)

    def sorted_by_row(self) -> "COOMatrix":
        """Return a copy whose entries are sorted in row-major order."""
        keys = self.row * self.shape[1] + self.col
        order = np.argsort(keys, kind="stable")
        return COOMatrix(self.shape, self.row[order], self.col[order], self.values[order])

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix, still in COO format."""
        return COOMatrix((self.cols, self.rows), self.col, self.row, self.values)

    def iter_triplets(self):
        """Yield ``(row, col, value)`` tuples in storage order."""
        for r, c, v in zip(self.row, self.col, self.values):
            yield int(r), int(c), float(v)
