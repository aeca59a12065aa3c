"""Instrumented Sparse Matrix-Matrix multiplication kernels (batched engine).

All kernels compute the inner-product formulation ``C = A @ B`` the paper
uses (Code Listing 2 / Algorithm 2): the outer loops iterate over every
(row of A, column of B) pair and an index-matching merge determines which
non-zero pairs contribute to the dot product. The schemes differ in how that
index matching is performed:

* ``taco_csr`` / ``mkl_csr`` — merge the CSR ``col_ind`` of A's row with the
  CSC ``row_ind`` of B's column, element by element;
* ``ideal_csr`` — the matching positions are known for free (Figure 3);
* ``taco_bcsr`` — A is blocked 4x4; matching happens at block granularity
  against B's CSC column, at the cost of computing on block padding;
* ``smash_sw`` — both operands use the hierarchical bitmap encoding (B is
  encoded column-major, i.e. as the SMASH encoding of ``B^T``) and the block
  merge is driven by software bitmap scans;
* ``smash_hw`` — same data layout, but every scan step is a ``PBMAP``/
  ``RDIND`` pair executed by the BMU and the bitmaps are streamed into the
  BMU buffers by ``RDBMAP`` (Algorithm 2 of the paper).

The batched implementations loop in Python over the rows (block rows) of A
only. One row's merges against *every* column of B are computed at once by
:func:`segmented_merge` — a sort-and-searchsorted merge over composite
``column * width + index`` keys, whose per-column stop is a prefix mask — and
the row's accesses for all columns are scattered into one trace segment in
the order the per-pair loop nest issues them: the column's pointer (or
bitmap) load, the accesses of every merge step, then the ``C`` write.
Accumulators are left-to-right sums from ``0.0`` (:func:`sequential_sums`),
the order of the reference ``acc +=`` loop, because ``acc != 0.0`` decides
whether the write is traced. A row segment larger than the chunk budget is
split by the streaming trace builder (DESIGN.md section 10). Cost reports
are bit-identical to the per-element reference kernels in
:mod:`repro.kernels.legacy`, at any chunk size.

Every function returns ``(C, CostReport)`` where ``C`` is a dense result
array.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels._costs import (
    IDX,
    VAL,
    CSRCosts,
    MKLCosts,
    register_bcsr,
    register_csc,
    register_csr,
    register_smash,
)
from repro.kernels._smash import row_block_table
from repro.kernels.registry import register_kernel
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport, InstructionClass, KernelInstrumentation
from repro.sim.trace import (
    KIND_DEPENDENT,
    KIND_STREAM,
    KIND_WRITE,
    exclusive_cumsum,
    grouped_arange,
)

KernelOutput = Tuple[np.ndarray, CostReport]


def _check_dims(a_shape, b_shape) -> None:
    if a_shape[1] != b_shape[0]:
        raise ValueError(f"inner dimensions do not match: {a_shape} x {b_shape}")


# --------------------------------------------------------------------------- #
# Segmented merge and sequential accumulation
# --------------------------------------------------------------------------- #
def segment_keys(index: np.ndarray, ptr: np.ndarray, width: int) -> np.ndarray:
    """Composite keys ``segment * width + index`` of a segmented sorted array.

    Segment ``j`` is ``index[ptr[j]:ptr[j + 1]]``, sorted and unique with
    values in ``[0, width)``, so the keys are sorted and unique globally.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    segment = np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))
    return segment * width + np.asarray(index, dtype=np.int64)


def segmented_merge(
    row: np.ndarray, keys: np.ndarray, ptr: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-pointer merges of one sorted row against every segment at once.

    ``row`` holds sorted unique indices in ``[0, width)``; ``keys`` are the
    :func:`segment_keys` of a segmented array with boundaries ``ptr``. Per
    segment this is the ``while ka < la and kb < lb`` merge of ``row`` with
    the segment: step ``t`` visits the ``t``-th distinct value of their
    union, where each cursor has consumed its elements below that value. The
    merge stops once either cursor is exhausted, which cuts a prefix of the
    union within each segment, so one mask stops every merge exactly.

    Returns ``(seg, ka, kb, match, steps)``: for every step, in segment-major
    order, its segment, the cursor into ``row``, the *global* cursor into
    ``keys`` and whether the step is an index match; then the step count of
    every segment (zero for empty segments).
    """
    row = np.asarray(row, dtype=np.int64)
    ptr = np.asarray(ptr, dtype=np.int64)
    nonempty = np.flatnonzero(ptr[1:] > ptr[:-1])
    union = np.concatenate(((nonempty[:, None] * width + row).reshape(-1), keys))
    union.sort(kind="stable")  # two sorted runs: a single linear merge
    if union.size:
        fresh = np.empty(union.size, dtype=bool)
        fresh[0] = True
        np.not_equal(union[1:], union[:-1], out=fresh[1:])
        union = union[fresh]
    seg = union // width
    ka = np.searchsorted(row, union - seg * width)
    kb = np.searchsorted(keys, union)
    alive = (ka < row.size) & (kb < ptr[seg + 1])
    seg, ka, kb = seg[alive], ka[alive], kb[alive]
    match = keys[kb] == seg * width + row[ka]
    return seg, ka, kb, match, np.bincount(seg, minlength=ptr.size - 1)


def sequential_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Left-to-right sums ``((0.0 + v0) + v1) + ...`` of consecutive groups.

    ``values`` holds the groups back to back, ``counts[g]`` entries (rows)
    for group ``g``; the result has one entry (row) per group. This is the
    order of the reference kernels' ``acc +=`` loop, which pairwise
    summation (``np.add.reduceat``, ``.sum()``) does not reproduce bit for
    bit. The loop runs over the position inside a group, deepest groups
    first, so it is as long as the largest group, not the number of groups.
    """
    counts = np.asarray(counts, dtype=np.int64)
    out = np.zeros((counts.size,) + values.shape[1:], dtype=np.float64)
    if not counts.size or not values.shape[0]:
        return out
    order = np.argsort(-counts, kind="stable")
    depth = counts[order]
    first = exclusive_cumsum(counts)[order]
    active = np.searchsorted(-depth, -np.arange(int(depth[0])), side="left")
    acc = np.zeros_like(out)
    for k, n in enumerate(active.tolist()):
        acc[:n] += values[first[:n] + k]
    out[order] = acc
    return out


def _row_segment(head: int, lead: int, body: np.ndarray, tail: np.ndarray):
    """Allocate one row's trace segment and place its columns.

    The segment is ``head`` row-level accesses, then per column of B
    ``lead`` fixed accesses, ``body[j]`` merge accesses and ``tail[j]``
    writes. Returns ``(ids, offsets, kinds, starts)``: the segment's columns
    (kinds preset to streaming loads) and the position of each column's
    first access.
    """
    lengths = lead + body + tail
    starts = head + exclusive_cumsum(lengths)
    total = head + int(lengths.sum())
    return (
        np.empty(total, dtype=np.int64),
        np.empty(total, dtype=np.int64),
        np.full(total, KIND_STREAM, dtype=np.uint8),
        starts,
    )


def _step_positions(
    base: np.ndarray, seg: np.ndarray, step_len: np.ndarray, body: np.ndarray
) -> np.ndarray:
    """Position of each step's first access within its row segment.

    Steps are in segment-major order; step ``t`` of column ``seg[t]`` starts
    at the column's body start ``base[seg[t]]`` plus the accesses of the
    column's earlier steps (``body`` is the per-column total of
    ``step_len``).
    """
    return base[seg] + exclusive_cumsum(step_len) - exclusive_cumsum(body)[seg]


# --------------------------------------------------------------------------- #
# CSR x CSC inner product
# --------------------------------------------------------------------------- #
def _spmm_csr_like(
    a_csr: CSRMatrix,
    b_csc: CSCMatrix,
    scheme: str,
    costs: CSRCosts,
    ideal_indexing: bool,
    config: Optional[SimConfig],
) -> KernelOutput:
    _check_dims(a_csr.shape, b_csc.shape)
    instr = KernelInstrumentation("spmm", scheme, config)
    register_csr(instr, "A", a_csr)
    register_csc(instr, "B", b_csc)
    instr.register_array("C", a_csr.rows * b_csc.cols * VAL)

    n_cols = b_csc.cols
    c = np.zeros((a_csr.rows, n_cols), dtype=np.float64)
    builder = instr.trace_builder()
    id_aci = builder.structure_id("A_col_ind")
    id_bri = builder.structure_id("B_row_ind")
    id_av = builder.structure_id("A_values")
    id_bv = builder.structure_id("B_values")
    id_arp = builder.structure_id("A_row_ptr")
    id_bcp = builder.structure_id("B_col_ptr")
    id_c = builder.structure_id("C")

    width = max(1, b_csc.rows)
    b_ptr = b_csc.col_ptr.astype(np.int64, copy=False)
    b_rows = b_csc.row_ind.astype(np.int64, copy=False)
    b_keys = segment_keys(b_rows, b_ptr, width)
    b_col = b_keys // width
    col_ptr_offsets = (np.arange(n_cols, dtype=np.int64) + 1) * IDX

    pairs_visited = 0
    total_steps = 0
    total_matches = 0
    for i in range(a_csr.rows):
        a_start, a_end = int(a_csr.row_ptr[i]), int(a_csr.row_ptr[i + 1])
        if a_start == a_end:
            builder.add_one("A_row_ptr", (i + 1) * IDX, KIND_STREAM)
            continue
        pairs_visited += n_cols
        a_cols = a_csr.col_ind[a_start:a_end]
        if ideal_indexing:
            # Matching positions known a priori: only the matches are touched.
            pos = np.searchsorted(a_cols, b_rows)
            kb = np.flatnonzero(a_cols[np.minimum(pos, a_cols.size - 1)] == b_rows)
            mseg, mka, mkb = b_col[kb], pos[kb], kb
            counts = np.bincount(mseg, minlength=n_cols)
            body = 2 * counts
            value_len = np.full(kb.size, 2, dtype=np.int64)
        else:
            seg, ka, kb, match, steps = segmented_merge(a_cols, b_keys, b_ptr, width)
            total_steps += ka.size
            mseg, mka, mkb = seg[match], ka[match], kb[match]
            counts = np.bincount(mseg, minlength=n_cols)
            body = 2 * steps + 2 * counts
        total_matches += mka.size
        acc = sequential_sums(a_csr.values[a_start + mka] * b_csc.values[mkb], counts)
        written = np.flatnonzero(acc != 0.0)
        c[i, written] = acc[written]

        ids, offsets, kinds, starts = _row_segment(1, 1, body, acc != 0.0)
        ids[0] = id_arp
        offsets[0] = (i + 1) * IDX
        ids[starts] = id_bcp
        offsets[starts] = col_ptr_offsets
        if ideal_indexing:
            value_pos = _step_positions(starts + 1, mseg, value_len, body)
        else:
            # Index matching: load both indices and compare...
            pos = _step_positions(starts + 1, seg, 2 + 2 * match, body)
            ids[pos] = id_aci
            offsets[pos] = (a_start + ka) * IDX
            ids[pos + 1] = id_bri
            offsets[pos + 1] = kb * IDX
            value_pos = pos[match] + 2
        # ...then touch both values on a match.
        ids[value_pos] = id_av
        offsets[value_pos] = (a_start + mka) * VAL
        ids[value_pos + 1] = id_bv
        offsets[value_pos + 1] = mkb * VAL
        write_pos = starts[written] + 1 + body[written]
        ids[write_pos] = id_c
        offsets[write_pos] = (i * n_cols + written) * VAL
        kinds[write_pos] = KIND_WRITE
        builder.add_columns(ids, offsets, kinds)

    instr.replay_trace(builder.build())
    rows_visited = a_csr.rows
    per_step_index = 2 if not ideal_indexing else 0
    per_step_branch = costs.branch_per_nnz if not ideal_indexing else 0
    stores = int(np.count_nonzero(c))
    instr.count_batch(
        {
            InstructionClass.LOAD: rows_visited
            + pairs_visited
            + 2 * total_steps
            + 2 * total_matches,
            InstructionClass.INDEX: (rows_visited + pairs_visited) * costs.index_per_row
            + per_step_index * total_steps,
            InstructionClass.BRANCH: (rows_visited + pairs_visited) * costs.branch_per_row
            + per_step_branch * total_steps,
            InstructionClass.COMPUTE: (2 if ideal_indexing else costs.compute_per_nnz)
            * total_matches,
            InstructionClass.STORE: stores,
        }
    )
    return c, instr.report()


@register_kernel("spmm", "taco_csr")
def spmm_csr_instrumented(
    a_csr: CSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """TACO-style CSR x CSC inner-product SpMM (the paper's baseline)."""
    return _spmm_csr_like(a_csr, b_csc, "taco_csr", CSRCosts(), False, config)


@register_kernel("spmm", "ideal_csr")
def spmm_ideal_csr_instrumented(
    a_csr: CSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """SpMM with idealized (free) index matching, as in Figure 3."""
    return _spmm_csr_like(a_csr, b_csc, "ideal_csr", CSRCosts(), True, config)


@register_kernel("spmm", "mkl_csr")
def spmm_mkl_csr_instrumented(
    a_csr: CSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """MKL-like CSR x CSC SpMM: same traversal, lower loop overhead."""
    return _spmm_csr_like(a_csr, b_csc, "mkl_csr", MKLCosts(), False, config)


# --------------------------------------------------------------------------- #
# BCSR x CSC
# --------------------------------------------------------------------------- #
@register_kernel("spmm", "taco_bcsr")
def spmm_bcsr_instrumented(
    a_bcsr: BCSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """BCSR(A) x CSC(B) inner-product SpMM.

    Index matching happens at A's block granularity: for each block row of A
    and each column of B, every stored block of the block row is matched
    against the B entries whose row index falls inside the block's column
    range. Each match multiplies a full block column (including padding
    zeros) by the B value. Per block row, the advance/match structure of
    every (column, block) pair is derived from two searchsorted calls over
    B's composite column keys.
    """
    _check_dims(a_bcsr.shape, b_csc.shape)
    instr = KernelInstrumentation("spmm", "taco_bcsr", config)
    register_bcsr(instr, "A", a_bcsr)
    register_csc(instr, "B", b_csc)
    instr.register_array("C", a_bcsr.rows * b_csc.cols * VAL)

    br, bc = a_bcsr.block_shape
    block_elems = br * bc
    n_cols = b_csc.cols
    c = np.zeros((a_bcsr.block_rows * br, n_cols), dtype=np.float64)
    builder = instr.trace_builder()
    id_bci = builder.structure_id("A_block_col_ind")
    id_bri = builder.structure_id("B_row_ind")
    id_blk = builder.structure_id("A_blocks")
    id_bv = builder.structure_id("B_values")
    id_brp = builder.structure_id("A_block_row_ptr")
    id_bcp = builder.structure_id("B_col_ptr")
    id_c = builder.structure_id("C")
    match_unit = 1 + br + 1

    # Keys must separate columns even past the last block's padded edge.
    width = max(1, a_bcsr.block_cols * bc, b_csc.rows)
    b_ptr = b_csc.col_ptr.astype(np.int64, copy=False)
    b_rows = b_csc.row_ind.astype(np.int64, copy=False)
    b_keys = segment_keys(b_rows, b_ptr, width)
    nonempty = np.flatnonzero(b_ptr[1:] > b_ptr[:-1])
    col_ptr_offsets = (np.arange(n_cols, dtype=np.int64) + 1) * IDX
    lanes = np.arange(br, dtype=np.int64)

    block_rows_visited = a_bcsr.block_rows
    pairs_visited = 0
    blocks_visited = 0
    total_skips = 0
    total_matches = 0
    total_stores = 0
    for bi in range(a_bcsr.block_rows):
        blk_start, blk_end = int(a_bcsr.block_row_ptr[bi]), int(a_bcsr.block_row_ptr[bi + 1])
        if blk_start == blk_end:
            builder.add_one("A_block_row_ptr", (bi + 1) * IDX, KIND_STREAM)
            continue
        pairs_visited += n_cols
        blocks = np.arange(blk_start, blk_end, dtype=np.int64)
        col_lo = a_bcsr.block_col_ind[blk_start:blk_end].astype(np.int64) * bc
        # (non-empty column, block) grid, flattened column-major by column.
        grid_lo = (nonempty[:, None] * width + col_lo).reshape(-1)
        s_lo = np.searchsorted(b_keys, grid_lo)
        s_hi = np.searchsorted(b_keys, grid_lo + bc)
        kb_prev = np.empty_like(s_lo)
        if s_lo.size:
            kb_prev[1:] = s_lo[:-1]
            kb_prev[:: blocks.size] = b_ptr[nonempty]
        n_skip = s_lo - kb_prev
        n_match = s_hi - s_lo
        blocks_visited += s_lo.size
        total_skips += int(n_skip.sum())
        total_matches += int(n_match.sum())

        grid_seg = np.repeat(nonempty, blocks.size)
        block_len = 1 + n_skip + match_unit * n_match
        body = np.bincount(grid_seg, weights=block_len, minlength=n_cols).astype(np.int64)
        col_matches = np.bincount(grid_seg, weights=n_match, minlength=n_cols).astype(np.int64)
        touched = np.flatnonzero(col_matches)
        ids, offsets, kinds, starts = _row_segment(1, 1, body, br * (col_matches > 0))
        ids[0] = id_brp
        offsets[0] = (bi + 1) * IDX
        ids[starts] = id_bcp
        offsets[starts] = col_ptr_offsets
        # Per block: its column-index load...
        block_pos = _step_positions(starts + 1, grid_seg, block_len, body)
        grid_blocks = np.tile(blocks, nonempty.size)
        ids[block_pos] = id_bci
        offsets[block_pos] = grid_blocks * IDX
        # ...the B_row_ind loads that advance the column pointer...
        skip_rank = grouped_arange(n_skip)
        skip_pos = np.repeat(block_pos + 1, n_skip) + skip_rank
        ids[skip_pos] = id_bri
        offsets[skip_pos] = (np.repeat(kb_prev, n_skip) + skip_rank) * IDX
        # ...and one match event per B entry inside the block's columns.
        match_rank = grouped_arange(n_match)
        event = np.repeat(block_pos + 1 + n_skip, n_match) + match_unit * match_rank
        kk = np.repeat(s_lo, n_match) + match_rank
        blk_of = np.repeat(grid_blocks, n_match)
        local_col = b_rows[kk] - np.repeat(np.tile(col_lo, nonempty.size), n_match)
        ids[event] = id_bri
        offsets[event] = kk * IDX
        span = event[:, None] + 1 + lanes
        ids[span] = id_blk
        offsets[span] = (
            blk_of[:, None] * block_elems + lanes * bc + local_col[:, None]
        ) * VAL
        ids[event + 1 + br] = id_bv
        offsets[event + 1 + br] = kk * VAL
        kinds[event + 1 + br] = KIND_DEPENDENT
        products = a_bcsr.blocks[blk_of, :, local_col] * b_csc.values[kk][:, None]
        acc = sequential_sums(products, col_matches)
        c[bi * br:(bi + 1) * br, touched] += acc[touched].T
        total_stores += br * touched.size
        write_pos = (starts[touched] + 1 + body[touched])[:, None] + lanes
        ids[write_pos] = id_c
        offsets[write_pos] = ((bi * br + lanes) * n_cols + touched[:, None]) * VAL
        kinds[write_pos] = KIND_WRITE
        builder.add_columns(ids, offsets, kinds)

    instr.replay_trace(builder.build())
    instr.count_batch(
        {
            InstructionClass.LOAD: block_rows_visited
            + pairs_visited
            + blocks_visited
            + total_skips
            + (1 + br + 1) * total_matches,
            InstructionClass.INDEX: 3 * block_rows_visited
            + 2 * pairs_visited
            + 2 * blocks_visited
            + 2 * total_skips
            + 2 * total_matches,
            InstructionClass.BRANCH: block_rows_visited
            + pairs_visited
            + blocks_visited
            + total_skips
            + total_matches,
            InstructionClass.COMPUTE: 2 * br * total_matches,
            InstructionClass.STORE: total_stores,
        }
    )
    return c[: a_bcsr.rows, :], instr.report()


# --------------------------------------------------------------------------- #
# SMASH (software-only and hardware-accelerated)
# --------------------------------------------------------------------------- #
def _spmm_smash_common(
    a: SMASHMatrix,
    b_transposed: SMASHMatrix,
    scheme: str,
    hardware: bool,
    config: Optional[SimConfig],
) -> KernelOutput:
    """Shared implementation of the two SMASH SpMM variants.

    ``b_transposed`` is the SMASH encoding of ``B^T``: its rows are B's
    columns, which is the access order the inner-product algorithm needs
    (the paper compresses B with a column-major bitmap for the same reason).
    """
    if a.cols != b_transposed.cols:
        raise ValueError(
            f"A has {a.cols} columns but B (transposed) rows have length {b_transposed.cols}"
        )
    if a.block_size != b_transposed.block_size:
        raise ValueError("both operands must use the same Bitmap-0 block size for SpMM")
    if a.cols % a.block_size != 0:
        raise ValueError(
            "the instrumented SMASH SpMM requires the row length to be a multiple of the "
            "Bitmap-0 block size so that NZA blocks never straddle row boundaries; "
            f"got {a.cols} columns with block size {a.block_size} "
            "(pad the matrix or pick a block size that divides the column count)"
        )
    instr = KernelInstrumentation("spmm", scheme, config)
    register_smash(instr, "A", a)
    register_smash(instr, "B", b_transposed)
    instr.register_array("A_bitmap0", a.hierarchy.base.storage_bytes())
    instr.register_array("B_bitmap0", b_transposed.hierarchy.base.storage_bytes())
    n_rows, n_cols = a.rows, b_transposed.rows
    instr.register_array("C", n_rows * n_cols * VAL)

    block = a.block_size
    a_bounds, a_offsets, a_nza = row_block_table(a)
    b_bounds, b_offsets, b_nza = row_block_table(b_transposed)
    a_data = a.nza.data.reshape(-1, block) if a.nza.n_blocks else a.nza.data.reshape(0, block)
    b_data = (
        b_transposed.nza.data.reshape(-1, block)
        if b_transposed.nza.n_blocks
        else b_transposed.nza.data.reshape(0, block)
    )
    c = np.zeros((n_rows, n_cols), dtype=np.float64)
    builder = instr.trace_builder()
    id_an = builder.structure_id("A_nza")
    id_bn = builder.structure_id("B_nza")
    id_abm = builder.structure_id("A_bitmap0")
    id_bbm = builder.structure_id("B_bitmap0")
    id_c = builder.structure_id("C")

    width = max(1, a.cols)
    b_keys = segment_keys(b_offsets, b_bounds, width)
    bitmap_words_per_row = max(1, -(-(a.cols // block) // 64))
    # The BMU streams a bitmap window with one RDBMAP access; the software
    # scan loads every word of it.
    lead = 1 if hardware else bitmap_words_per_row
    window = np.arange(lead, dtype=np.int64) * 8
    col_windows = np.arange(n_cols, dtype=np.int64)[:, None] * bitmap_words_per_row * 8 + window
    elements = np.arange(block, dtype=np.int64)
    pairs_visited = 0
    total_steps = 0
    total_matches = 0
    stores = 0

    for i in range(n_rows):
        row_window = i * bitmap_words_per_row * 8 + window
        lo, hi = int(a_bounds[i]), int(a_bounds[i + 1])
        if lo == hi:
            builder.add("A_bitmap0", row_window, KIND_STREAM)
            continue
        pairs_visited += n_cols
        seg, ka, kb, match, _ = segmented_merge(a_offsets[lo:hi], b_keys, b_bounds, width)
        total_steps += ka.size
        mseg = seg[match]
        nza_a = a_nza[lo + ka[match]]
        nza_b = b_nza[kb[match]]
        total_matches += nza_a.size
        counts = np.bincount(mseg, minlength=n_cols)
        dots = np.einsum("ij,ij->i", a_data[nza_a], b_data[nza_b])
        acc = sequential_sums(dots, counts)
        written = np.flatnonzero(acc != 0.0)
        c[i, written] = acc[written]
        stores += written.size

        body = 2 * block * counts
        ids, offsets, kinds, starts = _row_segment(lead, lead, body, acc != 0.0)
        ids[:lead] = id_abm
        offsets[:lead] = row_window
        head = starts[:, None] + np.arange(lead)
        ids[head] = id_bbm
        offsets[head] = col_windows
        # Each matched block pair: its elements, interleaved A then B.
        match_pos = _step_positions(
            starts + lead, mseg, np.full(mseg.size, 2 * block, dtype=np.int64), body
        )
        span = match_pos[:, None] + 2 * elements
        ids[span] = id_an
        offsets[span] = (nza_a[:, None] * block + elements) * VAL
        ids[span + 1] = id_bn
        offsets[span + 1] = (nza_b[:, None] * block + elements) * VAL
        write_pos = starts[written] + lead + body[written]
        ids[write_pos] = id_c
        offsets[write_pos] = (i * n_cols + written) * VAL
        kinds[write_pos] = KIND_WRITE
        builder.add_columns(ids, offsets, kinds)

    instr.replay_trace(builder.build())
    window_reads = n_rows + pairs_visited
    counts = {
        InstructionClass.LOAD: (0 if hardware else bitmap_words_per_row * window_reads)
        + 2 * block * total_matches,
        InstructionClass.INDEX: (1 if hardware else 4) * total_steps,
        InstructionClass.BRANCH: total_steps,
        InstructionClass.COMPUTE: 2 * block * total_matches,
        InstructionClass.STORE: stores,
    }
    if hardware:
        # Setup (Algorithm 2 lines 2-5) plus one RDBMAP per bitmap-window
        # read and a PBMAP/RDIND pair per merge step.
        counts[InstructionClass.BMU] = (
            2 + a.config.levels + b_transposed.config.levels + window_reads + 2 * total_steps
        )
    instr.count_batch(counts)
    return c, instr.report()


@register_kernel("spmm", "smash_sw")
def spmm_smash_software_instrumented(
    a: SMASHMatrix, b_transposed: SMASHMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """Software-only SMASH SpMM: block-granular index matching in software."""
    return _spmm_smash_common(a, b_transposed, "smash_sw", False, config)


@register_kernel("spmm", "smash_hw")
def spmm_smash_hardware_instrumented(
    a: SMASHMatrix, b_transposed: SMASHMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """Hardware-accelerated SMASH SpMM (Algorithm 2 of the paper)."""
    return _spmm_smash_common(a, b_transposed, "smash_hw", True, config)
