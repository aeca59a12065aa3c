"""Instrumented Sparse Matrix Addition kernels (batched engine).

Sparse matrix addition ``C = A + B`` appears in the paper's motivation
experiment (Figure 3, "SpMatAdd"): like SpMV and SpMM it must discover the
positions of the non-zeros of both operands, which for CSR means a per-row
merge over ``col_ind`` arrays. The kernels here provide the CSR baseline, the
idealized-indexing variant used in Figure 3, and a SMASH variant that merges
the operands at NZA-block granularity through the BMU.

The batched implementations derive the whole matrix's merge sequence in one
pass -- the union of row-major ``row * cols + col`` keys for CSR, of Bitmap-0
block bits for SMASH -- from searchsorted arithmetic over the sorted index
arrays, and scatter the per-step loads/stores into one trace segment per
call. They reproduce the per-element reference kernels in
:mod:`repro.kernels.legacy` bit-exactly at any chunk budget: the builder
slices the segment to the budget of the bounded-memory chunked replay
(DESIGN.md section 10).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.base import sorted_unique
from repro.formats.csr import CSRMatrix
from repro.kernels._costs import IDX, VAL, register_csr, register_smash
from repro.kernels.registry import register_kernel
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport, InstructionClass, KernelInstrumentation
from repro.sim.trace import KIND_STREAM, KIND_WRITE, exclusive_cumsum, grouped_arange

KernelOutput = Tuple[np.ndarray, CostReport]


def _check_shapes(a_shape, b_shape) -> None:
    if a_shape != b_shape:
        raise ValueError(f"operand shapes do not match: {a_shape} vs {b_shape}")


def _row_major_keys(m: CSRMatrix) -> np.ndarray:
    """``row * cols + col`` of every stored element, in storage order."""
    rows_of = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.row_ptr))
    return rows_of * m.cols + m.col_ind


def _spadd_csr_like(
    a: CSRMatrix,
    b: CSRMatrix,
    scheme: str,
    ideal_indexing: bool,
    config: Optional[SimConfig],
) -> KernelOutput:
    _check_shapes(a.shape, b.shape)
    instr = KernelInstrumentation("spadd", scheme, config)
    register_csr(instr, "A", a)
    register_csr(instr, "B", b)
    instr.register_array("C", a.rows * a.cols * VAL)

    rows, cols = a.shape
    c = np.zeros(a.shape, dtype=np.float64)
    builder = instr.trace_builder()
    id_aci = builder.structure_id("A_col_ind")
    id_bci = builder.structure_id("B_col_ind")
    id_av = builder.structure_id("A_values")
    id_bv = builder.structure_id("B_values")
    id_c = builder.structure_id("C")
    id_arp = builder.structure_id("A_row_ptr")
    id_brp = builder.structure_id("B_row_ptr")

    # Row-major keys are sorted within each operand, so their union is every
    # row's merge sequence laid end to end; ties advance both sides.
    a_keys = _row_major_keys(a)
    b_keys = _row_major_keys(b)
    union = sorted_unique(np.concatenate([a_keys, b_keys]))
    row = union // cols
    # Global merge cursors: a side is live until it passes its row's end.
    ka = np.searchsorted(a_keys, union)
    kb = np.searchsorted(b_keys, union)
    load_a_idx = ka < a.row_ptr[row + 1]
    load_b_idx = kb < b.row_ptr[row + 1]
    take_a = load_a_idx.copy()
    take_a[load_a_idx] = a_keys[ka[load_a_idx]] == union[load_a_idx]
    take_b = load_b_idx.copy()
    take_b[load_b_idx] = b_keys[kb[load_b_idx]] == union[load_b_idx]
    total_steps = int(union.size)
    if ideal_indexing:
        lengths = take_a.astype(np.int64) + take_b + 1
        index_loads = 0
    else:
        lengths = load_a_idx.astype(np.int64) + load_b_idx + take_a + take_b + 1
        index_loads = int(load_a_idx.sum() + load_b_idx.sum())
    a_loads = int(take_a.sum())
    b_loads = int(take_b.sum())

    # Every row's two row_ptr loads precede its steps, empty rows included.
    done = np.zeros(total_steps + 1, dtype=np.int64)
    np.cumsum(lengths, out=done[1:])
    row_ids = np.arange(rows, dtype=np.int64)
    ptr_pos = done[np.searchsorted(row, row_ids)] + 2 * row_ids
    seg_len = int(done[-1]) + 2 * rows
    ids = np.empty(seg_len, dtype=np.int64)
    offsets = np.empty(seg_len, dtype=np.int64)
    kinds = np.full(seg_len, KIND_STREAM, dtype=np.uint8)
    ids[ptr_pos] = id_arp
    offsets[ptr_pos] = (row_ids + 1) * IDX
    ids[ptr_pos + 1] = id_brp
    offsets[ptr_pos + 1] = (row_ids + 1) * IDX

    cursor = done[:-1] + 2 * (row + 1)
    if not ideal_indexing:
        # Position discovery: load and compare the column indices.
        pos = cursor[load_a_idx]
        ids[pos] = id_aci
        offsets[pos] = ka[load_a_idx] * IDX
        cursor[load_a_idx] += 1
        pos = cursor[load_b_idx]
        ids[pos] = id_bci
        offsets[pos] = kb[load_b_idx] * IDX
        cursor[load_b_idx] += 1
    pos = cursor[take_a]
    ids[pos] = id_av
    offsets[pos] = ka[take_a] * VAL
    cursor[take_a] += 1
    pos = cursor[take_b]
    ids[pos] = id_bv
    offsets[pos] = kb[take_b] * VAL
    cursor[take_b] += 1
    ids[cursor] = id_c
    offsets[cursor] = union * VAL
    kinds[cursor] = KIND_WRITE
    builder.add_columns(ids, offsets, kinds)

    values = np.zeros(total_steps, dtype=np.float64)
    values[take_a] += a.values[ka[take_a]]
    values[take_b] += b.values[kb[take_b]]
    c.reshape(-1)[union] = values

    instr.replay_trace(builder.build())
    instr.count_batch(
        {
            InstructionClass.LOAD: 2 * rows + index_loads + a_loads + b_loads,
            InstructionClass.INDEX: rows * (1 if ideal_indexing else 2)
            + (0 if ideal_indexing else 3) * total_steps,
            InstructionClass.BRANCH: rows + (0 if ideal_indexing else 1) * total_steps,
            InstructionClass.COMPUTE: total_steps,
            InstructionClass.STORE: total_steps,
        }
    )
    return c, instr.report()


@register_kernel("spadd", "taco_csr", "mkl_csr")
def spadd_csr_instrumented(
    a: CSRMatrix, b: CSRMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """CSR sparse addition with per-row index merging (the baseline)."""
    return _spadd_csr_like(a, b, "taco_csr", False, config)


@register_kernel("spadd", "ideal_csr")
def spadd_ideal_csr_instrumented(
    a: CSRMatrix, b: CSRMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """Sparse addition with idealized (free) position discovery (Figure 3)."""
    return _spadd_csr_like(a, b, "ideal_csr", True, config)


@register_kernel("spadd", "smash_hw")
def spadd_smash_hardware_instrumented(
    a: SMASHMatrix, b: SMASHMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """SMASH sparse addition: the BMU supplies block positions of both operands.

    The two Bitmap-0 streams are merged at block granularity; matching blocks
    are added element-wise, unmatched blocks are copied. Each merge step
    costs one PBMAP/RDIND pair per advanced operand. The emission order (A
    before B on a tie) and the per-element conditional ``C`` stores are
    reproduced with a two-level scatter over the merged block stream.
    """
    _check_shapes(a.shape, b.shape)
    if a.block_size != b.block_size:
        raise ValueError("both operands must use the same Bitmap-0 block size")
    instr = KernelInstrumentation("spadd", "smash_hw", config)
    register_smash(instr, "A", a)
    register_smash(instr, "B", b)
    instr.register_array("C", a.rows * a.cols * VAL)

    block = a.block_size
    rows, cols = a.shape
    total = rows * cols
    c = np.zeros(a.shape, dtype=np.float64)
    builder = instr.trace_builder()
    id_an = builder.structure_id("A_nza")
    id_bn = builder.structure_id("B_nza")
    id_c = builder.structure_id("C")

    a_bits = a.hierarchy.base.set_bit_array()
    b_bits = b.hierarchy.base.set_bit_array()
    merge_steps = int(np.union1d(a_bits, b_bits).size)

    # Emission stream: every stored block of both operands, ordered by block
    # bit with A first on ties (the legacy merge emits A then B on a match).
    em_bits = np.concatenate([a_bits, b_bits])
    em_which = np.concatenate(
        [np.zeros(a_bits.size, np.int64), np.ones(b_bits.size, np.int64)]
    )
    em_nza = np.concatenate(
        [np.arange(a_bits.size, dtype=np.int64), np.arange(b_bits.size, dtype=np.int64)]
    )
    order = np.lexsort((em_which, em_bits))
    em_bits, em_which, em_nza = em_bits[order], em_which[order], em_nza[order]

    n_em = em_bits.size
    valid = np.minimum(block, total - em_bits * block)
    elem_of = np.repeat(np.arange(n_em, dtype=np.int64), valid)
    elem = grouped_arange(valid)
    nza_offsets = (em_nza[elem_of] * block + elem) * VAL
    linear = em_bits[elem_of] * block + elem
    values = np.empty(elem_of.size, dtype=np.float64)
    from_a = em_which[elem_of] == 0
    values[from_a] = a.nza.data[(em_nza[elem_of] * block + elem)[from_a]]
    values[~from_a] = b.nza.data[(em_nza[elem_of] * block + elem)[~from_a]]
    nonzero = values != 0.0

    # Per element: one NZA load, plus a C store when the value is non-zero.
    positions = exclusive_cumsum(1 + nonzero.astype(np.int64))
    seg_len = int(elem_of.size + nonzero.sum())
    ids = np.empty(seg_len, dtype=np.int64)
    offsets = np.empty(seg_len, dtype=np.int64)
    kinds = np.full(seg_len, KIND_STREAM, dtype=np.uint8)
    ids[positions] = np.where(from_a, id_an, id_bn)
    offsets[positions] = nza_offsets
    store_pos = positions[nonzero] + 1
    ids[store_pos] = id_c
    offsets[store_pos] = linear[nonzero] * VAL
    kinds[store_pos] = KIND_WRITE
    builder.add_columns(ids, offsets, kinds)
    instr.replay_trace(builder.build())

    np.add.at(c.reshape(-1), linear[nonzero], values[nonzero])

    instr.count_batch(
        {
            InstructionClass.BMU: 2 + a.config.levels + b.config.levels + 2 * merge_steps,
            InstructionClass.INDEX: merge_steps,
            InstructionClass.BRANCH: merge_steps,
            InstructionClass.LOAD: int(elem_of.size),
            InstructionClass.COMPUTE: int(elem_of.size),
            InstructionClass.STORE: int(nonzero.sum()),
        }
    )
    return c, instr.report()
