"""Property tests for the SpMM row-at-a-time helpers (hypothesis).

``segmented_merge`` replaces one two-pointer merge per (row, column) pair
with a single merge of a row against every column of B; each column's step
sequence must equal the plain ``while ka < la and kb < lb`` loop's.
``sequential_sums`` must add each group left to right from ``0.0``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels.spmm import segment_keys, segmented_merge, sequential_sums

WIDTH = 24


def two_pointer(row, col):
    """The reference merge loop: ``(ka, kb, match)`` at every step."""
    steps = []
    ka = kb = 0
    while ka < len(row) and kb < len(col):
        match = row[ka] == col[kb]
        steps.append((ka, kb, bool(match)))
        if match:
            ka += 1
            kb += 1
        elif row[ka] < col[kb]:
            ka += 1
        else:
            kb += 1
    return steps


indices = st.sets(st.integers(0, WIDTH - 1), max_size=WIDTH).map(sorted)


@settings(max_examples=200, deadline=None)
@given(row=indices, columns=st.lists(indices, max_size=6))
@example(row=[3, 7, 11], columns=[[], [2, 7], [], []])  # empty B columns
@example(row=[1, 5], columns=[[], [], []])  # all-empty B
@example(row=[0, 1, 2, 3], columns=[[10, 12, 20]])  # disjoint index ranges
@example(row=[2, 9, 15, 23], columns=[[2, 9, 15, 23]])  # identical arrays
@example(row=[0, 1, 2, 3, 4, 20], columns=[[1], [21, 22], [4, 5, 6, 7]])  # early exhaustion
@example(row=[6], columns=[[1, 6, 9], [0, 2], [7], []])  # single-element row
def test_segmented_merge_matches_two_pointer_loop(row, columns):
    ptr = np.concatenate(([0], np.cumsum([len(col) for col in columns]))).astype(np.int64)
    flat = np.array([i for col in columns for i in col], dtype=np.int64)
    keys = segment_keys(flat, ptr, WIDTH)
    seg, ka, kb, match, steps = segmented_merge(np.array(row, dtype=np.int64), keys, ptr, WIDTH)

    assert np.all(np.diff(seg) >= 0), "steps must be in column-major order"
    assert steps.tolist() == [len(two_pointer(row, col)) for col in columns]
    for j, col in enumerate(columns):
        here = seg == j
        got = list(zip(ka[here].tolist(), (kb[here] - ptr[j]).tolist(), match[here].tolist()))
        assert got == two_pointer(row, col), f"column {j}"


@settings(max_examples=100, deadline=None)
@given(
    groups=st.lists(
        st.lists(st.floats(-1e16, 1e16, allow_nan=False, allow_infinity=False), max_size=12),
        max_size=8,
    )
)
def test_sequential_sums_add_left_to_right_from_zero(groups):
    counts = np.array([len(g) for g in groups], dtype=np.int64)
    values = np.array([v for g in groups for v in g], dtype=np.float64)
    expected = []
    for group in groups:
        acc = 0.0
        for value in group:
            acc += value
        expected.append(acc)
    got = sequential_sums(values, counts)
    assert got.tolist() == expected
    # Row-valued groups (the BCSR block columns) sum lane by lane.
    lanes = np.stack([values, -values], axis=1)
    assert np.array_equal(sequential_sums(lanes, counts), np.stack([got, -got], axis=1))
