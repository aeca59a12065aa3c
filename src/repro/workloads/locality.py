"""Locality-of-sparsity metric and controlled-locality matrix generation.

Section 7.2.3 of the paper defines *locality of sparsity* as the average
number of non-zero elements per NZA block divided by the block size,
expressed as a percentage: 100 % means every block is completely full, and
``100 / block_size`` % means every block holds exactly one non-zero. The
sensitivity study (Figures 16 and 17) sweeps this metric while keeping the
total number of non-zeros fixed; :func:`matrix_with_locality` generates
matrices for that sweep.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.coo import COOMatrix
from repro.formats.base import MatrixFormat, sorted_unique


def locality_of_sparsity(
    matrix: Union[MatrixFormat, np.ndarray],
    block_size: int,
) -> float:
    """Locality of sparsity (percent) of ``matrix`` for a given block size.

    The matrix is linearized in row-major order and cut into blocks of
    ``block_size`` elements; the metric is the average fill of the non-empty
    blocks. Sparse inputs are measured directly from their coordinates in
    O(nnz) — the metric only depends on the linear positions of the
    non-zeros, so no dense O(rows*cols) detour is ever materialized (the
    figure 16/17 sweeps call this on every generated matrix).
    """
    if block_size < 1:
        raise ValueError("block size must be at least 1")
    if isinstance(matrix, SMASHMatrix) and matrix.block_size == block_size:
        return matrix.locality_of_sparsity()
    if isinstance(matrix, COOMatrix):
        nonzero = matrix.values != 0.0
        linear = matrix.row[nonzero].astype(np.int64) * matrix.cols + matrix.col[nonzero]
    elif isinstance(matrix, MatrixFormat):
        coo = matrix.to_coo() if hasattr(matrix, "to_coo") else None
        if coo is not None:
            return locality_of_sparsity(coo, block_size)
        dense = matrix.to_dense()
        linear = np.flatnonzero(dense.reshape(-1))
    else:
        linear = np.flatnonzero(np.asarray(matrix, float).reshape(-1))
    return _locality_from_linear(linear, block_size)


def _locality_from_linear(linear: np.ndarray, block_size: int) -> float:
    """Average fill (percent) of the occupied blocks, from linear positions."""
    if linear.size == 0:
        return 0.0
    _, per_block = np.unique(linear // block_size, return_counts=True)
    return 100.0 * float(per_block.mean()) / block_size


def matrix_with_locality(
    rows: int,
    cols: int,
    nnz: int,
    block_size: int,
    locality_percent: float,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Generate a matrix with (approximately) the requested locality of sparsity.

    ``locality_percent`` is interpreted against ``block_size``: the generator
    fills each occupied block with ``round(block_size * locality / 100)``
    non-zeros (at least one), choosing block positions uniformly at random, so
    that the total number of non-zeros is close to ``nnz`` while the per-block
    fill matches the requested locality.
    """
    if nnz < 0:
        raise ValueError("nnz must be non-negative")
    if block_size < 1:
        raise ValueError("block size must be at least 1")
    min_locality = 100.0 / block_size
    if not min_locality - 1e-9 <= locality_percent <= 100.0 + 1e-9:
        raise ValueError(
            f"locality must be within [{min_locality:.2f}, 100] for block size {block_size}"
        )
    rng = np.random.default_rng(seed)
    total = rows * cols
    if nnz == 0 or total == 0:
        return COOMatrix((rows, cols), [], [], [])

    per_block = max(1, min(block_size, int(round(block_size * locality_percent / 100.0))))
    n_blocks_total = total // block_size
    n_occupied = max(1, min(n_blocks_total, -(-nnz // per_block)))
    chosen_blocks = rng.choice(n_blocks_total, size=n_occupied, replace=False)

    linear_positions = []
    remaining = nnz
    for block_index in chosen_blocks:
        count = min(per_block, remaining)
        if count <= 0:
            break
        offsets = rng.choice(block_size, size=count, replace=False)
        linear_positions.append(block_index * block_size + offsets)
        remaining -= count
    linear = sorted_unique(np.concatenate(linear_positions))
    rows_arr = linear // cols
    cols_arr = linear % cols
    values = rng.uniform(0.1, 1.0, size=linear.size)
    return COOMatrix((rows, cols), rows_arr, cols_arr, values)
