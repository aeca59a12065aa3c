"""Synthetic sparse matrix generators.

All generators return :class:`~repro.formats.coo.COOMatrix` objects and accept
a ``seed`` so experiments are reproducible. Values are drawn uniformly from
(0.1, 1.0] so that no generated entry is accidentally zero.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.formats.base import sorted_unique
from repro.formats.coo import COOMatrix


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.1, 1.0, size=n)


def _coo_from_linear(shape: Tuple[int, int], linear: np.ndarray, rng: np.random.Generator) -> COOMatrix:
    linear = sorted_unique(linear)
    rows = linear // shape[1]
    cols = linear % shape[1]
    return COOMatrix(shape, rows, cols, _values(rng, linear.size))


def uniform_random_matrix(
    rows: int,
    cols: int,
    density: float,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Non-zeros placed uniformly at random (low locality of sparsity)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = _rng(seed)
    total = rows * cols
    target = int(round(density * total))
    if target == 0:
        return COOMatrix((rows, cols), [], [], [])
    target = min(target, total)
    linear = rng.choice(total, size=target, replace=False)
    return _coo_from_linear((rows, cols), linear, rng)


def clustered_matrix(
    rows: int,
    cols: int,
    density: float,
    cluster_size: int = 8,
    cluster_height: int = 4,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Non-zeros placed in small two-dimensional patches.

    Each patch is ``cluster_height`` rows by ``cluster_size`` columns of
    contiguous non-zeros, which is the structure finite-element and
    structural-analysis matrices exhibit: high locality of sparsity both
    along rows (filling SMASH's NZA blocks) and across rows (filling BCSR's
    square blocks).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if cluster_size < 1 or cluster_height < 1:
        raise ValueError("cluster dimensions must be at least 1")
    rng = _rng(seed)
    total = rows * cols
    target = int(round(density * total))
    if target == 0:
        return COOMatrix((rows, cols), [], [], [])
    target = min(target, total)
    patch_elems = cluster_size * cluster_height
    n_patches = max(1, -(-target // patch_elems))
    # One draw for every patch corner. Array bounds consume the generator
    # element by element, so this is the same stream as alternating scalar
    # top/left draws (a bound of 1 draws nothing in either form).
    bounds = [max(1, rows - cluster_height + 1), max(1, cols - cluster_size + 1)]
    corners = rng.integers(0, np.tile(bounds, n_patches)).reshape(n_patches, 2)
    # Every corner leaves room for a full patch, so all patches clip to the
    # same height and width (the matrix's own, when it is the smaller).
    dr = np.arange(min(cluster_height, rows), dtype=np.int64)
    dc = np.arange(min(cluster_size, cols), dtype=np.int64)
    starts = (corners[:, :1] + dr) * cols + corners[:, 1:]
    linear = sorted_unique(starts[:, :, None] + dc)
    if linear.size > target:
        # Keep the ``target`` lowest row-major positions: the excess comes
        # off the bottom rows, which may cut through a patch.
        linear = linear[:target]
    return _coo_from_linear((rows, cols), linear, rng)


def banded_matrix(
    rows: int,
    cols: int,
    bandwidth: int,
    density_in_band: float = 1.0,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Non-zeros confined to a diagonal band of half-width ``bandwidth``."""
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    if not 0.0 <= density_in_band <= 1.0:
        raise ValueError("density_in_band must be in [0, 1]")
    rng = _rng(seed)
    row_list = []
    col_list = []
    for i in range(rows):
        lo = max(0, i - bandwidth)
        hi = min(cols, i + bandwidth + 1)
        for j in range(lo, hi):
            if density_in_band >= 1.0 or rng.random() < density_in_band:
                row_list.append(i)
                col_list.append(j)
    rows_arr = np.array(row_list, dtype=np.int64)
    cols_arr = np.array(col_list, dtype=np.int64)
    return COOMatrix((rows, cols), rows_arr, cols_arr, _values(rng, rows_arr.size))


def diagonal_matrix(n: int, seed: Optional[int] = None) -> COOMatrix:
    """A strictly diagonal matrix (DIA's best case)."""
    rng = _rng(seed)
    idx = np.arange(n, dtype=np.int64)
    return COOMatrix((n, n), idx, idx, _values(rng, n))


def block_diagonal_matrix(
    n: int,
    block_size: int,
    fill: float = 1.0,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Dense (or partially filled) square blocks along the diagonal."""
    if block_size < 1:
        raise ValueError("block size must be at least 1")
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    rng = _rng(seed)
    row_list = []
    col_list = []
    for start in range(0, n, block_size):
        end = min(start + block_size, n)
        for i in range(start, end):
            for j in range(start, end):
                if fill >= 1.0 or rng.random() < fill:
                    row_list.append(i)
                    col_list.append(j)
    rows_arr = np.array(row_list, dtype=np.int64)
    cols_arr = np.array(col_list, dtype=np.int64)
    return COOMatrix((n, n), rows_arr, cols_arr, _values(rng, rows_arr.size))


def power_law_matrix(
    rows: int,
    cols: int,
    density: float,
    skew: float = 1.5,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Row populations follow a power law (graph-adjacency-like structure).

    A small number of rows hold most of the non-zeros, mimicking the degree
    distribution of social-network graphs such as the paper's com-Youtube.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if skew <= 0:
        raise ValueError("skew must be positive")
    rng = _rng(seed)
    total = rows * cols
    target = min(int(round(density * total)), total)
    if target == 0:
        return COOMatrix((rows, cols), [], [], [])
    weights = (np.arange(1, rows + 1, dtype=np.float64)) ** (-skew)
    rng.shuffle(weights)
    weights /= weights.sum()
    row_counts = rng.multinomial(target, weights)
    row_counts = np.minimum(row_counts, cols)
    row_list = []
    col_list = []
    for i, count in enumerate(row_counts):
        if count == 0:
            continue
        chosen = rng.choice(cols, size=count, replace=False)
        row_list.append(np.full(count, i, dtype=np.int64))
        col_list.append(np.sort(chosen).astype(np.int64))
    if not row_list:
        return COOMatrix((rows, cols), [], [], [])
    rows_arr = np.concatenate(row_list)
    cols_arr = np.concatenate(col_list)
    return COOMatrix((rows, cols), rows_arr, cols_arr, _values(rng, rows_arr.size))
