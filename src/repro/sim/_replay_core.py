"""Pluggable replay backends for :meth:`repro.sim.memory.MemoryHierarchy.replay`.

The memory hierarchy's batched replay has three interchangeable engines, all
operating on the *head* arrays the dispatcher in :mod:`repro.sim.memory`
prepares (coalesced accesses: one entry per run of consecutive same
structure/line/kind accesses):

* ``"reference"`` — the original per-head Python loop: for every head it
  consults the stride prefetcher, walks L1/L2/L3 with explicit LRU lists and
  accumulates stall cycles.  Simple, obviously sequential, and the ground
  truth the vectorized engine is tested against.
* ``"vectorized"`` — a phased, array-native engine (DESIGN.md section 12):

  1. *Prefetcher pass.*  Per-structure subsequences of streaming heads are
     extracted with ``np.flatnonzero``; stride confirmations are run-length
     encoded, so the ``covered`` flag of every head and the end-of-segment
     stream state fall out of a handful of array expressions.
  2. *Reuse-distance LRU.*  For a true-LRU set-associative cache an access
     hits iff the number of *distinct* lines mapped to its set since the
     line's previous access is smaller than the associativity (the classic
     stack-distance property).  Each level classifies its event stream with
     last-occurrence arrays per set and escalating bounded-window counting
     (deep sparse windows switch to block-sorted binary-search counting).
     Covered accesses *install* into L2/L3 ("touch only if absent"): an
     install landing on a resident line is a no-op whose skipped LRU update
     perturbs later reuse windows — the one genuinely sequential
     dependency.  Provably-no-op installs are removed and the affected
     *sets* reclassified (classification never crosses sets, so clean sets
     commit immediately); conflicts that survive the narrowing rounds take
     an exact per-set sequential walk.  L1 sees all heads, L2 the L1-miss
     subsequence, L3 the covered installs plus the L2 misses.
  3. *Bulk accumulation.*  Latencies come from ``np.where`` over the level
     classifications; stall totals use ``np.add.accumulate`` (a strictly
     sequential scan), so the floating-point sums are performed in exactly
     the reference loop's order and the results are bit-identical — every
     counter, every stall cycle, and the final cache/LRU and prefetcher
     state (both reconstructed exactly at the end of each segment, keeping
     the chunk-boundary contract of :mod:`repro.sim.trace` intact).

* ``"compiled"`` — numba-JIT transcriptions of the reference loop's three
  phases (see :mod:`repro.sim._replay_compiled`); registered only for
  selection here, falling back to ``"vectorized"`` with a one-time warning
  when numba is not importable (:func:`effective_backend`).

The array engines *delegate to the reference loop* whenever exactness
would be at risk or the array form cannot pay for itself: tiny segments
(below :data:`MIN_VECTORIZED_HEADS` / ``MIN_COMPILED_HEADS``, e.g. the
per-element ``access`` shim) and segments that would overflow the
prefetcher's stream table (the loop's arbitrary-eviction order is not worth
replicating in array form).  Results are identical either way; only the
wall clock changes.

Backends are registered in :data:`REPLAY_BACKENDS` (a
:class:`repro.api.registry.Registry`) and selected through
:class:`repro.api.config.RuntimeConfig` / the ``SMASH_REPRO_REPLAY_BACKEND``
environment variable, defaulting to ``"vectorized"``.  Like every runtime
knob, the backend cannot change a result and therefore does not participate
in the sweep-cache job key.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import Registry
from repro.formats.base import sorted_unique
from repro.sim.prefetcher import _StreamState
from repro.sim.trace import grouped_arange

#: Default backend name (the array-native engine).
DEFAULT_REPLAY_BACKEND = "vectorized"

#: Environment variable selecting the replay backend.  Parsed by
#: :meth:`repro.api.config.RuntimeConfig.from_env`, the library's single
#: environment-reading site.
REPLAY_BACKEND_ENV_VAR = "SMASH_REPRO_REPLAY_BACKEND"

#: Below this many heads the vectorized engine hands the segment to the
#: reference loop: fixed numpy overhead would dominate (the per-element
#: ``access`` shim replays one-head segments in a tight loop).  The cutoff is
#: a pure performance knob — both engines are bit-identical — and tests pin
#: it to 0 to force the array path onto tiny traces.
MIN_VECTORIZED_HEADS = 512

#: Registry of replay backends; each entry is a callable
#: ``backend(hierarchy, structures, head_ids, head_lines, head_kinds)``
#: returning the stall cycles the segment added.
REPLAY_BACKENDS = Registry("replay backend")

#: Cell budget of one reuse-window counting grid (queries x window); larger
#: batches are sliced so escalated windows cannot balloon memory.
_GRID_CELL_BUDGET = 1 << 22

_EMPTY_INDEX = np.zeros(0, dtype=np.int64)

_arange_cache = _EMPTY_INDEX
_arange32_cache = np.zeros(0, dtype=np.int32)


def _arange(n: int) -> np.ndarray:
    """A read-only-by-convention ``arange(n)`` slice from a grown-once cache."""
    global _arange_cache
    if _arange_cache.size < n:
        _arange_cache = np.arange(max(n, 2 * _arange_cache.size), dtype=np.int64)
    return _arange_cache[:n]


def _arange32(n: int) -> np.ndarray:
    """Like :func:`_arange` but int32 (positions always fit: n < 2**31)."""
    global _arange32_cache
    if _arange32_cache.size < n:
        _arange32_cache = np.arange(max(n, 2 * _arange32_cache.size), dtype=np.int32)
    return _arange32_cache[:n]

_NO_OVERRIDE = object()
_backend_override: object = _NO_OVERRIDE


def set_backend_override(name: Optional[str]) -> None:
    """Pin the replay backend for this process (worker-pool initializer hook).

    ``None`` restores the environment-derived default.  The override only
    changes which engine replays traces, never any report.
    """
    global _backend_override
    if name is None:
        _backend_override = _NO_OVERRIDE
    else:
        _backend_override = REPLAY_BACKENDS.resolve(name)


@contextlib.contextmanager
def backend_override(name: Optional[str]) -> Iterator[None]:
    """Temporarily pin the replay backend (serial in-process execution)."""
    global _backend_override
    previous = _backend_override
    _backend_override = REPLAY_BACKENDS.resolve(name) if name is not None else _NO_OVERRIDE
    try:
        yield
    finally:
        _backend_override = previous


def replay_backend_name() -> str:
    """The active backend name: explicit override, else the environment knob."""
    if _backend_override is not _NO_OVERRIDE:
        return _backend_override  # type: ignore[return-value]
    from repro.api.config import RuntimeConfig

    # Explicit arguments suppress the other knobs' environment reads, so a
    # malformed SMASH_REPRO_PROCESSES cannot break a kernel run that only
    # needs the backend name.
    return RuntimeConfig.from_env(processes=1, cache_dir=None, trace_chunk=None).replay_backend


def resolve_backend(name: Optional[str] = None):
    """The backend callable for ``name`` (default: the active backend)."""
    return REPLAY_BACKENDS.get(name if name is not None else replay_backend_name())


#: Backend the ``"compiled"`` tier degrades to when numba is unavailable.
_COMPILED_FALLBACK = "vectorized"

_fallback_warned = False


def effective_backend(name: Optional[str] = None) -> str:
    """The canonical backend name that will actually run for ``name``.

    Resolves aliases through the registry (unknown names raise the
    registry's did-you-mean error), then degrades ``"compiled"`` to the
    vectorized engine when its JIT dependency (numba) is unavailable — with
    a one-time warning rather than an error, so selecting the compiled tier
    in an environment without numba still produces bit-identical results,
    just without the speedup.
    """
    canonical = REPLAY_BACKENDS.resolve(
        name if name is not None else replay_backend_name()
    )
    if canonical == "compiled":
        from repro.sim import _replay_compiled

        if not _replay_compiled.kernels_available():
            global _fallback_warned
            if not _fallback_warned:
                _fallback_warned = True
                warnings.warn(
                    "replay backend 'compiled' requires numba, which is not "
                    f"installed; falling back to {_COMPILED_FALLBACK!r} "
                    "(results are bit-identical, only slower)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return _COMPILED_FALLBACK
    return canonical


# --------------------------------------------------------------------------- #
# Per-phase wall-clock profiling (RuntimeConfig.replay_profile)
# --------------------------------------------------------------------------- #
#: Active profile sink: phase name -> accumulated seconds.  ``None`` (the
#: default) keeps the timing hooks completely out of the replay hot paths.
_profile_sink: Optional[Dict[str, float]] = None


def _record_phase(phase: str, seconds: float) -> None:
    """Accumulate one phase timing into the active sink (if any)."""
    sink = _profile_sink
    if sink is not None:
        sink[phase] = sink.get(phase, 0.0) + seconds


@contextlib.contextmanager
def profile_collection() -> Iterator[Dict[str, float]]:
    """Collect per-phase replay wall-clock into the yielded dict.

    Phases are ``"prefetch"`` / ``"lru"`` / ``"stalls"`` for the array
    engines and ``"walk"`` for the reference loop (which fuses all three);
    values accumulate across every replay call inside the context.  Purely
    observational — results are unaffected.
    """
    global _profile_sink
    previous = _profile_sink
    _profile_sink = sink = {} if previous is None else previous
    try:
        yield sink
    finally:
        _profile_sink = previous


def stall_cycles_for(kind: int, latency: float, mlp: float, exposure: float) -> float:
    """Stall cycles one access contributes, given its kind and hit latency.

    The single latency→stall rule shared by every replay path (the reference
    backend, the vectorized backend's bulk computation, and the
    mixed-line-size sequential walk): stores (kind 2) retire through the
    store buffer and never stall; dependent loads (kind 1) expose
    ``latency * exposure`` cycles; streaming loads overlap across the
    memory-level parallelism, ``latency / mlp``.
    """
    if kind == 2:
        return 0.0
    if kind == 1:
        return float(latency) * exposure
    return float(latency) / mlp


# --------------------------------------------------------------------------- #
# Reference backend: the per-head Python loop
# --------------------------------------------------------------------------- #
@REPLAY_BACKENDS.register("reference", aliases=("loop",))
def replay_reference(
    h,
    structures: Sequence[str],
    head_ids: np.ndarray,
    head_lines: np.ndarray,
    head_kinds: np.ndarray,
) -> float:
    """Sequentially walk the hierarchy head by head (the original engine)."""
    profiling = _profile_sink is not None
    t0 = time.perf_counter() if profiling else 0.0
    l1c, l2c, l3c = h.l1.config, h.l2.config, h.l3.config
    set1 = (head_lines % l1c.n_sets).tolist()
    set2 = (head_lines % l2c.n_sets).tolist()
    set3 = (head_lines % l3c.n_sets).tolist()
    head_ids = head_ids.tolist()
    head_kinds = head_kinds.tolist()
    head_lines = head_lines.tolist()
    stats = h.stats

    # Hot loop: everything below is plain-int work on hoisted locals.
    names = list(structures)
    l1_sets, l2_sets, l3_sets = h.l1._sets, h.l2._sets, h.l3._sets
    l1_assoc, l2_assoc, l3_assoc = l1c.associativity, l2c.associativity, l3c.associativity
    l2_lat, l3_lat = l2c.latency_cycles, l3c.latency_cycles
    dram_lat = h.config.dram.latency_cycles
    mlp = h.config.cpu.memory_level_parallelism
    exposure = h.config.cpu.dependent_miss_exposure
    streams = h.prefetcher._streams
    max_streams = h.prefetcher.max_streams
    threshold = h.prefetcher.threshold
    new_stream = _StreamState
    stall_for = stall_cycles_for
    l1_acc = l1_hit = l1_miss = l1_evi = 0
    l2_acc = l2_hit = l2_miss = l2_evi = 0
    l3_acc = l3_hit = l3_miss = l3_evi = 0
    prefetch_hits = 0
    covered_count = 0
    dram = 0
    running = stats.stall_cycles
    dep_running = stats.dependent_stall_cycles
    added = 0.0

    for i in range(len(head_lines)):
        line = head_lines[i]
        kind = head_kinds[i]
        covered = False
        if kind == 0:  # streaming: consult/train the stride prefetcher
            state = streams.get(names[head_ids[i]])
            if state is None:
                if len(streams) >= max_streams:
                    streams.pop(next(iter(streams)))
                streams[names[head_ids[i]]] = new_stream(last_line=line)
            else:
                stride = line - state.last_line
                if stride == 0:
                    pass
                elif state.stride == stride and state.confirmations >= threshold:
                    covered = True
                    prefetch_hits += 1
                elif state.stride == stride:
                    state.confirmations += 1
                else:
                    state.stride = stride
                    state.confirmations = 1
                state.last_line = line
        l1_acc += 1
        ways = l1_sets[set1[i]]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            l1_hit += 1
            continue  # zero latency: the 0.0 stall is an exact no-op
        l1_miss += 1
        if len(ways) >= l1_assoc:
            ways.pop(0)
            l1_evi += 1
        ways.append(line)
        if covered:
            covered_count += 1
            ways = l2_sets[set2[i]]
            if line not in ways:
                if len(ways) >= l2_assoc:
                    ways.pop(0)
                    l2_evi += 1
                ways.append(line)
            ways = l3_sets[set3[i]]
            if line not in ways:
                if len(ways) >= l3_assoc:
                    ways.pop(0)
                    l3_evi += 1
                ways.append(line)
            latency = l2_lat
        else:
            l2_acc += 1
            ways = l2_sets[set2[i]]
            if line in ways:
                ways.remove(line)
                ways.append(line)
                l2_hit += 1
                latency = l2_lat
            else:
                l2_miss += 1
                if len(ways) >= l2_assoc:
                    ways.pop(0)
                    l2_evi += 1
                ways.append(line)
                l3_acc += 1
                ways = l3_sets[set3[i]]
                if line in ways:
                    ways.remove(line)
                    ways.append(line)
                    l3_hit += 1
                    latency = l3_lat
                else:
                    l3_miss += 1
                    if len(ways) >= l3_assoc:
                        ways.pop(0)
                        l3_evi += 1
                    ways.append(line)
                    dram += 1
                    latency = dram_lat
        if kind == 2:
            continue  # stores retire through the store buffer
        stall = stall_for(kind, latency, mlp, exposure)
        if kind == 1:
            dep_running += stall
        running += stall
        added += stall

    l1s, l2s, l3s = h.l1.stats, h.l2.stats, h.l3.stats
    l1s.accesses += l1_acc
    l1s.hits += l1_hit
    l1s.misses += l1_miss
    l1s.evictions += l1_evi
    l2s.accesses += l2_acc
    l2s.hits += l2_hit
    l2s.misses += l2_miss
    l2s.evictions += l2_evi
    l3s.accesses += l3_acc
    l3s.hits += l3_hit
    l3s.misses += l3_miss
    l3s.evictions += l3_evi
    h.prefetcher.covered_accesses += prefetch_hits
    h.prefetcher.issued_prefetches += prefetch_hits
    stats.prefetch_covered += covered_count
    stats.dram_accesses += dram
    stats.stall_cycles = running
    stats.dependent_stall_cycles = dep_running
    if profiling:
        _record_phase("walk", time.perf_counter() - t0)
    return added


# --------------------------------------------------------------------------- #
# Vectorized backend
# --------------------------------------------------------------------------- #
class _Delegate(Exception):
    """Internal: hand this segment to the reference loop (exactness guard)."""


def _sequential_sum(initial: float, values: np.ndarray) -> float:
    """``initial + v0 + v1 + ...`` in strict left-to-right IEEE order.

    ``np.add.accumulate`` is a sequential scan (unlike ``np.sum``'s pairwise
    reduction), so the result is bit-identical to the reference loop's
    running ``+=`` accumulation.
    """
    if values.size == 0:
        return initial
    buf = np.empty(values.size + 1, dtype=np.float64)
    buf[0] = initial
    buf[1:] = values
    return float(np.add.accumulate(buf)[-1])


def _stream_covered(
    lines: np.ndarray,
    state: Optional[_StreamState],
    threshold: int,
) -> Tuple[np.ndarray, Tuple[int, Optional[int], int]]:
    """Run one stream's stride state machine over its line sequence.

    ``lines`` are the streaming-head lines of one prefetcher stream in
    program order; ``state`` its entry state (``None`` for a stream created
    by this segment's first access).  Returns the per-access ``covered``
    flags and the exit state ``(last_line, stride, confirmations)``.

    Strides are run-length encoded: within a maximal run of ``r`` equal
    non-zero strides entered with confirmation count ``c``, access ``j``
    (1-based) is covered iff ``c + j - 1 >= threshold``; a run that changes
    the stride resets ``c`` to 1 on its first access.  Zero strides are
    transparent (they change neither stride nor confirmations).
    """
    covered = np.zeros(lines.size, dtype=bool)
    if state is None:
        if lines.size < 2:
            return covered, (int(lines[-1]), None, 0)
        strides = np.diff(lines)
        strided_covered = covered[1:]  # a view: first access only creates the stream
        stride0: Optional[int] = None
        conf0 = 0
    else:
        strides = np.empty(lines.size, dtype=np.int64)
        strides[0] = int(lines[0]) - state.last_line
        if lines.size > 1:
            np.subtract(lines[1:], lines[:-1], out=strides[1:])
        strided_covered = covered
        stride0 = state.stride
        conf0 = state.confirmations

    nonzero = np.flatnonzero(strides)
    if nonzero.size == 0:
        return covered, (int(lines[-1]), stride0, conf0)
    values = strides[nonzero]
    run_head = np.empty(values.size, dtype=bool)
    run_head[0] = True
    np.not_equal(values[1:], values[:-1], out=run_head[1:])
    run_id = np.cumsum(run_head) - 1
    run_starts = np.flatnonzero(run_head)
    in_run = np.arange(values.size, dtype=np.int64) - run_starts[run_id] + 1  # 1-based
    needed = np.full(values.size, threshold, dtype=np.int64)
    continuing = stride0 is not None and int(values[0]) == stride0
    if continuing:
        needed[run_id == 0] = threshold - conf0
    strided_covered[nonzero] = in_run > needed

    last_run_len = int(values.size - run_starts[-1])
    if continuing and run_id[-1] == 0:
        conf_end = min(conf0 + last_run_len, threshold)
    else:
        conf_end = min(last_run_len, threshold)
    return covered, (int(lines[-1]), int(values[-1]), conf_end)


def _prefetch_pass(
    h,
    structures: Sequence[str],
    head_ids: np.ndarray,
    head_lines: np.ndarray,
    head_kinds: np.ndarray,
) -> Tuple[np.ndarray, int, List[Tuple[str, Tuple[int, Optional[int], int]]]]:
    """Phase 1: covered flags for every head plus the streams' exit states.

    Returns ``(covered, prefetch_hits, updates)`` where ``updates`` pairs
    stream names (in first-appearance order, so the dict insertion order
    matches the loop's) with their exit state.  Raises :class:`_Delegate`
    when the segment would overflow the stream table — the loop's
    arbitrary-eviction order is not worth replicating in array form.
    """
    covered = np.zeros(head_lines.size, dtype=bool)
    streaming = head_kinds == 0
    if not streaming.any():
        return covered, 0, []
    stream_positions = np.flatnonzero(streaming)
    stream_sids = head_ids[stream_positions]
    # First streaming position per structure id: reversed scatter-assign, so
    # the earliest occurrence is the one that sticks.
    first_seen = np.full(len(structures), -1, dtype=np.int64)
    first_seen[stream_sids[::-1]] = np.arange(stream_sids.size - 1, -1, -1, dtype=np.int64)
    # Group structure ids by stream *name* (the prefetcher's key), keeping
    # first-appearance order so stream creation order matches the loop's.
    present_sids = np.flatnonzero(first_seen >= 0)
    name_order: List[str] = []
    name_sids: dict = {}
    for sid in present_sids[np.argsort(first_seen[present_sids])].tolist():
        name = structures[sid]
        if name not in name_sids:
            name_sids[name] = []
            name_order.append(name)
        name_sids[name].append(sid)

    streams = h.prefetcher._streams
    fresh = [name for name in name_order if name not in streams]
    if len(streams) + len(fresh) > h.prefetcher.max_streams:
        raise _Delegate  # stream eviction: replay the loop's exact order
    threshold = h.prefetcher.threshold

    updates: List[Tuple[str, Tuple[int, Optional[int], int]]] = []
    if len(name_sids) != len(present_sids) or len(structures) > np.iinfo(np.int16).max:
        # Duplicate stream names across structure ids (or structure *ids*
        # beyond the radix sort's int16 range — the ids are the values
        # being sorted): fall back to per-stream masks in time order.
        for name in name_order:
            sids = name_sids[name]
            mask = (
                stream_sids == sids[0]
                if len(sids) == 1
                else np.isin(stream_sids, sids)
            )
            positions = stream_positions[mask]
            flags, exit_state = _stream_covered(
                head_lines[positions], streams.get(name), threshold
            )
            covered[positions] = flags
            updates.append((name, exit_state))
        return covered, int(covered.sum()), updates

    # Names are unique per sid (the normal case): one stable radix sort
    # groups every stream's positions into a slice, time order intact, and
    # the stride/run-length confirmation logic runs globally — slice
    # boundaries break the runs, entry states patch the boundary strides,
    # and exit states read off each slice's final run.
    order = np.argsort(stream_sids.astype(np.int16), kind="stable")
    grouped_positions = stream_positions[order]
    grouped_lines = head_lines[grouped_positions]
    counts = np.bincount(stream_sids, minlength=len(structures))
    bounds = np.cumsum(counts)
    slices = {
        sid: (int(bounds[sid] - counts[sid]), int(bounds[sid]))
        for sid in present_sids.tolist()
    }
    total = grouped_positions.size
    grouped_flags = np.zeros(total, dtype=bool)
    strides = np.empty(total, dtype=np.int64)
    strides[0] = 0
    np.subtract(grouped_lines[1:], grouped_lines[:-1], out=strides[1:])
    ordered = sorted(
        (slices[name_sids[name][0]], name) for name in name_order
    )  # ascending by slice start
    starts = np.asarray([lo for (lo, _hi), _name in ordered], dtype=np.int64)
    entries: List[Tuple[Optional[int], int]] = []
    for (lo, _hi), name in ordered:
        state = streams.get(name)
        if state is None:
            # Creation consumes the first access; a zero stride is
            # transparent, exactly "set last_line only".
            strides[lo] = 0
            entries.append((None, 0))
        else:
            strides[lo] = int(grouped_lines[lo]) - state.last_line
            entries.append((state.stride, state.confirmations))
    nonzero = np.flatnonzero(strides)
    values = run_id = in_run = None
    first_run_continues = [False] * len(ordered)
    if nonzero.size:
        values = strides[nonzero]
        group_of = np.searchsorted(starts, nonzero, side="right") - 1
        run_head = np.empty(nonzero.size, dtype=bool)
        run_head[0] = True
        run_head[1:] = (values[1:] != values[:-1]) | (group_of[1:] != group_of[:-1])
        run_starts = np.flatnonzero(run_head)
        run_id = np.cumsum(run_head) - 1
        in_run = np.arange(nonzero.size, dtype=np.int64) - run_starts[run_id] + 1
        needed = np.full(nonzero.size, threshold, dtype=np.int64)
        # A stream whose first non-zero stride extends its confirmed stride
        # enters that run with the carried confirmation count.
        group_heads = np.flatnonzero(
            np.concatenate(([True], group_of[1:] != group_of[:-1]))
        )
        run_ends = np.append(run_starts[1:], nonzero.size)
        for pos in group_heads.tolist():
            entry_stride, entry_conf = entries[int(group_of[pos])]
            if entry_stride is not None and int(values[pos]) == entry_stride:
                first_run_continues[int(group_of[pos])] = True
                needed[pos : run_ends[run_id[pos]]] = threshold - entry_conf
        grouped_flags[nonzero] = in_run > needed
    covered[grouped_positions] = grouped_flags  # one scatter for all streams
    # Exit states, one per stream, reported in first-appearance order.
    exit_states = {}
    for g, ((lo, hi), name) in enumerate(ordered):
        last_line = int(grouped_lines[hi - 1])
        entry_stride, entry_conf = entries[g]
        if nonzero.size:
            span_lo, span_hi = np.searchsorted(nonzero, [lo, hi])
        else:
            span_lo = span_hi = 0
        if span_hi == span_lo:  # no non-zero strides in this slice
            exit_states[name] = (last_line, entry_stride, entry_conf)
            continue
        last = span_hi - 1
        run_len = int(in_run[last])
        if first_run_continues[g] and run_id[last] == run_id[span_lo]:
            conf_end = min(entry_conf + run_len, threshold)
        else:
            conf_end = min(run_len, threshold)
        exit_states[name] = (last_line, int(values[last]), conf_end)
    updates = [(name, exit_states[name]) for name in name_order]
    return covered, int(covered.sum()), updates


#: Block size of the deep-window counting structure, and the width beyond
#: which a query is routed to it (any 2B consecutive slots contain a full
#: aligned block, so every routed query has at least one).
_DEEP_BLOCK = 128
_DEEP_WIDTH = 2 * _DEEP_BLOCK


def _present_by_blocks(
    u_live: np.ndarray,
    q: np.ndarray,
    p: np.ndarray,
    width: np.ndarray,
    pending: np.ndarray,
    assoc: int,
    present_out: np.ndarray,
    gap_bound: Optional[np.ndarray],
) -> None:
    """Decide deep reuse queries exactly via block-sorted live counts.

    A slot ``j`` is live at ``q`` iff its next same-line touch ``nl[j]`` is
    ``>= q`` — a per-*query* threshold, so full blocks of the set-grouped
    layout answer "how many live" with one binary search into their sorted
    ``nl`` values.  Only the two partial blocks at the window edges are
    scanned cell by cell, making a deep window cost O(width/B + B) instead
    of O(width).
    """
    m = u_live.size
    B = _DEEP_BLOCK
    nl = u_live + _arange32(m)  # next-touch position per slot
    n_blocks = -(-m // B)
    padded = np.full(n_blocks * B, -1, dtype=np.int32)
    padded[:m] = nl
    sorted_blocks = np.sort(padded.reshape(n_blocks, B), axis=1)
    # Globally sorted composite keys: block-major, value-minor.
    stride_key = np.int64(m + 4)
    keys = (
        sorted_blocks.astype(np.int64)
        + (np.arange(n_blocks, dtype=np.int64) * stride_key)[:, None]
        + 1
    ).ravel()
    left_offsets = np.arange(1, B + 1, dtype=np.int32)
    right_offsets = np.arange(B, 0, -1, dtype=np.int32)
    rows = max(1, _GRID_CELL_BUDGET // (4 * B))
    for lo in range(0, pending.size, rows):
        chunk = pending[lo : lo + rows]
        q_c = q[chunk].astype(np.int64)
        p_c = p[chunk].astype(np.int64)
        first_block = (p_c + B) // B  # first fully-inside aligned block
        last_block = q_c // B  # exclusive
        # Full blocks: one searchsorted over all (query, block) pairs.
        n_full = last_block - first_block
        pair_block = np.repeat(first_block, n_full) + grouped_arange(n_full)
        pair_keys = pair_block * stride_key + np.repeat(q_c, n_full) + 1
        live_in_block = (pair_block + 1) * B - np.searchsorted(keys, pair_keys)
        bounds = np.concatenate(([0], np.cumsum(n_full)[:-1]))
        counts = np.add.reduceat(live_in_block, bounds) if pair_block.size else np.zeros(chunk.size, dtype=np.int64)
        counts[n_full == 0] = 0  # reduceat artifacts on empty ranges
        # Left edge: slots (p, first_block * B), at most B of them.
        left_len = (first_block * B - p_c - 1).astype(np.int32)
        grid = p_c[:, None] + left_offsets
        live = (nl[grid] >= q_c[:, None]) & (left_offsets <= left_len[:, None])
        counts += np.count_nonzero(live, axis=1)
        # Right edge: slots [last_block * B, q), at most B of them.
        right_len = (q_c - last_block * B).astype(np.int32)
        live = (u_live[q_c[:, None] - right_offsets] >= right_offsets) & (
            right_offsets <= right_len[:, None]
        )
        counts += np.count_nonzero(live, axis=1)
        present_out[chunk[counts < assoc]] = True
        if gap_bound is not None:
            gap_bound[chunk] = np.minimum(counts, assoc)


def _present_by_window(
    u_live: np.ndarray,
    q: np.ndarray,
    p: np.ndarray,
    width: np.ndarray,
    pending: np.ndarray,
    assoc: int,
    present_out: np.ndarray,
    gap_bound: Optional[np.ndarray] = None,
) -> None:
    """Decide the pending reuse queries by counting live touches in windows.

    Counts over the last ``window`` slots of each query's reuse window —
    short reuse is the overwhelmingly common case, so most queries settle
    at the first window size.  Queries whose whole window fits are
    *decided* (their count is exact, written into ``present_out`` and, when
    given, ``gap_bound``); for the rest a count reaching ``assoc`` already
    proves a miss, anything else escalates to a 4x window.  Each query's
    slots are contiguous in the set-grouped layout, so a sliding-window
    view turns the (queries x window) gather into row-wise copies; batches
    are sliced to a bounded cell budget so escalated windows cannot balloon
    memory.
    """
    m = u_live.size
    window = max(4 * assoc, 32)
    while pending.size:
        if window > _DEEP_WIDTH:
            # Whatever the cheap suffix rounds could not settle has a deep,
            # sparse window: finish those exactly with block-sorted counting
            # instead of ballooning grids.  (Queries narrower than two
            # blocks stay on the grid — their window fits this round.)
            deep = width[pending] > _DEEP_WIDTH
            if deep.any():
                _present_by_blocks(
                    u_live, q, p, width, pending[deep], assoc, present_out, gap_bound
                )
                pending = pending[~deep]
                if not pending.size:
                    break
        window = min(window, m)
        offsets = np.arange(window, 0, -1, dtype=np.int32)  # o of each column
        # Pad the front with a never-live sentinel so a window reaching
        # before position 0 reads harmless slots; row q of the view then
        # holds exactly the slots (q - window, q].
        padded = np.concatenate(
            [np.full(window, np.iinfo(np.int32).min, dtype=np.int32), u_live]
        )
        windows_view = np.lib.stride_tricks.sliding_window_view(padded, window)
        fits = width[pending] <= window
        complete = pending[fits]
        rows = max(1, _GRID_CELL_BUDGET // window)
        for lo in range(0, complete.size, rows):
            chunk = complete[lo : lo + rows]
            live = (windows_view[q[chunk]] >= offsets) & (offsets <= width[chunk][:, None])
            counts = np.count_nonzero(live, axis=1)
            present_out[chunk[counts < assoc]] = True
            if gap_bound is not None:
                gap_bound[chunk] = np.minimum(counts, assoc)
        survivors: List[np.ndarray] = []
        incomplete = pending[~fits]
        for lo in range(0, incomplete.size, rows):
            chunk = incomplete[lo : lo + rows]
            # w > window, so every slot is in-window: no masking at all.
            counts = np.count_nonzero(windows_view[q[chunk]] >= offsets, axis=1)
            rest = chunk[counts < assoc]  # not yet provably missing
            if rest.size:
                survivors.append(rest)
        pending = np.concatenate(survivors) if survivors else _EMPTY_INDEX
        window *= 4


def _scatter_back(
    values_k: np.ndarray,
    key_order: np.ndarray,
    is_real: Optional[np.ndarray],
    n_virtual: int,
    n_real: int,
) -> np.ndarray:
    """Permute a key-order boolean column back to real-event order."""
    out = np.empty(n_real, dtype=bool)
    if is_real is None:
        out[key_order] = values_k
    else:
        out[key_order[is_real] - n_virtual] = values_k[is_real]
    return out


def _set_index(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """Per-line set index; a mask for the (usual) power-of-two set counts."""
    if n_sets & (n_sets - 1) == 0:
        return lines & (n_sets - 1)
    return lines % n_sets


def _stable_group_order(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """A stable argsort of small non-negative integer codes.

    Uses the radix path of ``np.argsort(kind="stable")`` when the codes fit
    in int16 (they do for every realistic set count), falling back to a
    quicksort over unique composite keys otherwise.
    """
    if n_codes <= np.iinfo(np.int16).max:
        return np.argsort(codes.astype(np.int16), kind="stable")
    m = codes.size
    return np.argsort(codes * m + np.arange(m, dtype=np.int64))


def _key_time_order(lines: np.ndarray) -> np.ndarray:
    """Events grouped by cache line, time-ordered within each group.

    Address spaces are compact, so the rebased lines usually fit in int16
    and take numpy's radix path; otherwise a single quicksort over the
    unique composite ``line * m + index`` keys (falling back to a stable
    sort for astronomically large lines).  The set index is a pure function
    of the line, so grouping by line is grouping by ``(set, line)``.
    """
    m = lines.size
    low = int(lines.min(initial=0))
    high = int(lines.max(initial=0))
    if high - low <= np.iinfo(np.int16).max:
        return np.argsort((lines - low).astype(np.int16), kind="stable")
    if high < (2**62) // (m + 1):
        return np.argsort(lines * m + np.arange(m, dtype=np.int64))
    return np.argsort(lines, kind="stable")


class _LevelResult:
    """Classification of one cache level's event stream."""

    __slots__ = ("present", "evictions", "stacks", "per_set_evictions")

    def __init__(self, present, evictions, stacks, per_set_evictions=None):
        self.present = present  # bool per real event: resident at access time
        self.evictions = evictions  # total evictions across the segment
        self.stacks = stacks  # {set index: final way list, LRU->MRU}
        self.per_set_evictions = per_set_evictions  # array, or None (walked)


class _InstallConflict:
    """A conflicted round: some installs landed on seemingly resident lines.

    Carries the round's full (assumption-based) ``result``, which stays
    *exact for every set without a conflict* — classification never crosses
    sets — plus the ``dirty_sets`` that must be redone and the installs
    *proven* to be no-ops (``mask``).  The proof must not lean on the
    install's immediate predecessor having made the line most-recently-used
    — a predecessor that is itself a no-op install leaves the line's
    recency stale — so presence is certified through a chain bound: along
    each line's event chain, the per-window distinct counts (each an upper
    bound on the *true* touches in that gap) are summed from the line's
    last certain touch; a sum below the associativity proves the line never
    left the set.  The caller commits the clean sets, removes the proven
    no-ops, and reclassifies only the dirty sets' surviving events;
    removals are monotone and the scope shrinks every round.
    """

    __slots__ = ("mask", "result", "dirty_sets")

    def __init__(self, mask, result, dirty_sets):
        self.mask = mask  # bool per real event: certainly-no-op install
        self.result = result  # assumption-based _LevelResult (clean sets exact)
        self.dirty_sets = dirty_sets  # set indices containing conflicts


def _no_op_installs(
    install_k: np.ndarray,
    has_prev: np.ndarray,
    gap_bound: np.ndarray,
    run_head: np.ndarray,
    assoc: int,
    conflicts: np.ndarray,
    q: np.ndarray,
    u_live: np.ndarray,
) -> np.ndarray:
    """Certified-present installs, in key order.

    First pass — chain bound: ``gap_bound[t]`` bounds (from above) the
    distinct lines truly touched between event ``t`` and its chain
    predecessor.  A *known* touch — an access, a virtual way, or a cold
    install (which certainly inserts) — resets the line's recency, so the
    running bound restarts right after one; an install's own effect is
    unknown, so the bound accumulates through it (a true insert would only
    make the line younger than the bound assumes).  ``bound < assoc``
    certifies fewer distinct touches than ways since the line provably
    became most-recently-used: present.

    Second pass — conflicted installs the (overcounting) sum could not
    certify get an *exact* distinct count over the single window back to
    the chain's last known touch, which alternation-heavy windows pass
    even though the per-gap sum saturates.
    """
    m = install_k.size
    known_touch = ~install_k | ~has_prev  # access/virtual, or cold install
    seg_head = np.empty(m, dtype=bool)
    seg_head[0] = True
    seg_head[1:] = known_touch[:-1]
    seg_head |= run_head
    csum = np.cumsum(gap_bound, dtype=np.int64)
    base_at_head = csum - gap_bound  # cumsum *before* each position
    head_positions = np.flatnonzero(seg_head)
    seg_id = np.cumsum(seg_head) - 1
    running = csum - base_at_head[head_positions][seg_id]
    proofs = install_k & has_prev & (running < assoc)

    second = np.flatnonzero(conflicts & ~proofs)
    if second.size:
        heads_of = head_positions[seg_id[second]]
        anchored = ~run_head[heads_of]  # head's predecessor: same line, known touch
        second = second[anchored]
        if second.size:
            anchors = heads_of[anchored] - 1
            p_star = np.empty(m, dtype=np.int32)
            width_star = np.empty(m, dtype=np.int32)
            p_star[second] = q[anchors]
            width_star[second] = q[second] - q[anchors] - 1
            _present_by_window(u_live, q, p_star, width_star, second, assoc, proofs)
    return proofs


def _classify_with_loop(
    cache,
    event_lines: np.ndarray,
    install: Optional[np.ndarray],
) -> _LevelResult:
    """Walk one level's event stream sequentially (exact by construction).

    The escape hatch for event streams whose covered installs land on
    resident lines: a present install leaves the LRU order untouched, so
    later reuse windows depend on earlier install outcomes and the one-shot
    array classification above does not apply.  This loop performs exactly
    the reference backend's per-level list operations — but only for this
    level's (already filtered) events, on scratch copies of the touched
    sets, so the surrounding phases stay pure and the other levels stay
    vectorized.
    """
    n_sets = cache.config.n_sets
    assoc = cache.config.associativity
    n_real = event_lines.size
    sets_list = _set_index(event_lines, n_sets).tolist()
    lines_list = event_lines.tolist()
    installs = install.tolist() if install is not None else [False] * n_real
    cache_sets = cache._sets
    scratch: List[Optional[list]] = [None] * n_sets
    touched: List[int] = []
    presence = bytearray(n_real)
    evictions = 0
    i = 0
    for s, line, installing in zip(sets_list, lines_list, installs):
        ways = scratch[s]
        if ways is None:
            ways = scratch[s] = list(cache_sets[s])
            touched.append(s)
        if line in ways:
            presence[i] = 1
            if not installing:
                ways.remove(line)
                ways.append(line)
        else:
            if len(ways) >= assoc:
                ways.pop(0)
                evictions += 1
            ways.append(line)
        i += 1
    present = np.frombuffer(presence, dtype=bool).copy()
    return _LevelResult(present, evictions, {s: scratch[s] for s in touched})


def _classify_level(
    cache,
    event_lines: np.ndarray,
    install: Optional[np.ndarray],
    real_key_order: Optional[np.ndarray] = None,
    report_conflicts: bool = False,
) -> "_LevelResult | _InstallConflict":
    """Reuse-distance LRU classification of one level's event stream.

    ``event_lines`` are the lines of the level's events in program order;
    ``install`` marks covered installs ("touch only if absent") or is
    ``None`` when every event is a plain access (L1).  The current cache
    contents enter as per-set *virtual* events prepended in LRU→MRU order,
    so reuse windows seamlessly extend across segment boundaries.
    ``real_key_order``, when given, is the precomputed (line, time) sort of
    the real events — the caller derives it once per segment and filters it
    per level, since subsetting a sorted order preserves it.

    An event is classified *present* iff its line was touched before and
    fewer than ``associativity`` distinct lines of its set were touched
    since (the stack-distance property of true LRU) — counted over *live*
    touches (those not re-touched inside the window) with escalating
    bounded-window grids, so the common short reuse distances cost a few
    array passes while pathologically long windows stay exact.  The count
    assumes every event touches, which holds for accesses and for installs
    of absent lines; *present* verdicts are exact regardless (over-counting
    touches only shrinks presence).  If any install turns out present (it
    would *not* have touched, perturbing later windows), the conflict set is
    either reported back for no-op removal (``report_conflicts``, see
    :func:`_classify_with_removal`) or the level is reclassified by
    :func:`_classify_with_loop` — the one genuinely sequential dependency.
    """
    n_sets = cache.config.n_sets
    assoc = cache.config.associativity
    n_real = event_lines.size
    if n_real == 0:
        return _LevelResult(np.zeros(0, dtype=bool), 0, {})
    real_sets = _set_index(event_lines, n_sets)

    # Current contents as virtual touch events, grouped by set in LRU->MRU
    # order ahead of all real events.
    set_counts = np.bincount(real_sets, minlength=n_sets)
    cache_sets = cache._sets
    virtual_lines: List[int] = []
    virtual_sets: List[int] = []
    for s in np.flatnonzero(set_counts).tolist():
        ways = cache_sets[s]
        if ways:
            virtual_lines.extend(ways)
            virtual_sets.extend([s] * len(ways))
    n_virtual = len(virtual_lines)
    if n_virtual:
        occupancy0 = np.bincount(
            np.asarray(virtual_sets, dtype=np.int64), minlength=n_sets
        )
        lines = np.concatenate([np.asarray(virtual_lines, dtype=np.int64), event_lines])
        sets = np.concatenate([np.asarray(virtual_sets, dtype=np.int64), real_sets])
    else:  # fresh caches (fresh hierarchy, or flushed between runs)
        occupancy0 = 0
        lines = event_lines
        sets = real_sets
    m = lines.size

    # Static orders: set-grouped (windows are contiguous runs in it) and
    # line-grouped time order (reuse chains are adjacent in it).  Positions
    # and widths are int32 throughout: half the memory traffic of the many
    # elementwise passes below, and every value fits (m < 2**31).
    set_order = _stable_group_order(sets, n_sets)
    set_pos = np.empty(m, dtype=np.int32)
    set_pos[set_order] = _arange32(m)
    if real_key_order is None:
        key_order = _key_time_order(lines)
    elif n_virtual:
        # Merge the virtual events into the precomputed real order: each
        # virtual line (distinct by construction — one resident copy per
        # line) slots in ahead of its line's first real event.
        virtual_order = np.argsort(np.asarray(virtual_lines, dtype=np.int64))
        insert_at = np.searchsorted(
            event_lines[real_key_order], lines[virtual_order]
        )
        key_order = np.insert(real_key_order + n_virtual, insert_at, virtual_order)
    else:
        key_order = real_key_order
    key_lines = lines[key_order]
    run_head = np.empty(m, dtype=bool)
    run_head[0] = True
    np.not_equal(key_lines[1:], key_lines[:-1], out=run_head[1:])
    run_tail = np.empty(m, dtype=bool)
    run_tail[-1] = True
    run_tail[:-1] = run_head[1:]
    key_set_pos = set_pos[key_order]

    # The classification round assumes every event touches (installs
    # included), which makes the reuse chains plain shifts of the key order:
    # previous/next touch of the same line are simply the run neighbours.
    # Everything stays in key order until the final scatter — queries are
    # position-independent, so no intermediate back-permutation is needed.
    q = key_set_pos
    p = np.empty(m, dtype=np.int32)
    p[0] = -1
    p[1:] = key_set_pos[:-1]
    p[run_head] = -1
    next_touch = np.empty(m, dtype=np.int32)
    next_touch[:-1] = key_set_pos[1:]
    next_touch[run_tail] = m + 1
    # Live test, rebased: window slot at distance `o` behind the query holds
    # a live touch iff next_touch >= q, i.e. iff u = next_touch - slot >= o —
    # a per-*column* constant in the counting grids below, and int32-narrow.
    u_live = np.empty(m, dtype=np.int32)
    u_live[key_set_pos] = next_touch - key_set_pos

    has_prev = p >= 0
    width = q - p - 1
    # Fewer window slots than ways: present without counting.
    present_k = has_prev & (width < assoc)
    if n_virtual:
        is_real = key_order >= n_virtual
        pending = np.flatnonzero(is_real & has_prev & (width >= assoc))
    else:
        is_real = None
        pending = np.flatnonzero(has_prev & (width >= assoc))
    if install is not None:
        if is_real is None:
            install_k = install[key_order]
        else:
            install_k = np.zeros(m, dtype=bool)
            install_k[is_real] = install[key_order[is_real] - n_virtual]
    pending0 = pending if install is not None else None
    _present_by_window(u_live, q, p, width, pending, assoc, present_k)

    conflict: Optional[Tuple[np.ndarray, np.ndarray]] = None
    if install is not None:
        conflicts = install_k & present_k
        if bool(conflicts.any()):
            # Only now is the per-gap distinct bound needed for the no-op
            # chain proofs: rebuild it by re-running the (idempotent)
            # window counting with capture on.  Conflict rounds are rare
            # and narrowed, so this beats capturing on every clean round.
            gap_bound = np.minimum(width, assoc)
            _present_by_window(u_live, q, p, width, pending0, assoc, present_k, gap_bound)
            # A present install would not have touched, invalidating the
            # all-touch windows of everything after it — but only within
            # its own set: classification never crosses sets.  Certify the
            # provable no-ops and report them with this round's result
            # (exact for the clean sets); without a reporting caller, take
            # the exact walk for the whole level.
            if not report_conflicts:
                return _classify_with_loop(cache, event_lines, install)
            proofs = _no_op_installs(
                install_k, has_prev, gap_bound, run_head, assoc, conflicts, q, u_live
            )
            conflict = (
                _scatter_back(proofs, key_order, is_real, n_virtual, n_real),
                sorted_unique(_set_index(key_lines[np.flatnonzero(conflicts)], n_sets)),
            )

    present = _scatter_back(present_k, key_order, is_real, n_virtual, n_real)

    inserts = np.bincount(real_sets[~present], minlength=n_sets)
    per_set_evictions = np.maximum(0, inserts - (assoc - occupancy0))
    evictions = int(per_set_evictions.sum())

    # Final contents per touched set: the `assoc` most recently touched
    # distinct lines, in last-touch order (ascending = LRU->MRU), read off
    # each line run's tail.  Only the newest `assoc` entries per set are
    # materialized as Python lists.
    tail_touch = key_set_pos[run_tail]
    tail_lines = key_lines[run_tail]
    tail_sets = _set_index(tail_lines, n_sets)
    # Set blocks are contiguous ascending in the set-grouped layout, so
    # sorting by position alone already yields (set, recency) order.
    order = np.argsort(tail_touch)
    tail_counts = np.bincount(tail_sets, minlength=n_sets)
    stack_sets = np.flatnonzero(tail_counts)
    seg_counts = tail_counts[stack_sets]
    seg_ends = np.cumsum(seg_counts)
    keep = np.minimum(seg_counts, assoc)
    pick = np.repeat(seg_ends - keep, keep) + grouped_arange(keep)
    kept_lines = tail_lines[order[pick]].tolist()
    bounds = np.cumsum(keep).tolist()
    stacks: dict = {}
    start = 0
    for i, s in enumerate(stack_sets.tolist()):
        end = bounds[i]
        stacks[s] = kept_lines[start:end]
        start = end
    result = _LevelResult(present, evictions, stacks, per_set_evictions)
    if conflict is not None:
        return _InstallConflict(conflict[0], result, conflict[1])
    return result


def _classify_with_removal(
    cache,
    event_lines: np.ndarray,
    install: np.ndarray,
    real_key_order: np.ndarray,
    max_rounds: int = 6,
) -> _LevelResult:
    """Classify a level, iteratively resolving conflicted sets.

    Each round classifies the surviving stream and *commits* every clean
    set's verdicts (classification never crosses sets); installs proven to
    be no-ops are dropped — which can only shrink reuse windows, exposing
    further no-ops — and only the dirty sets' surviving events go into the
    next round.  Removals are monotone and the scope narrows every round,
    so the iteration cannot oscillate; when a round ends conflict-free the
    all-touch classification of its survivors is consistent, hence exact.
    If conflicts outlive the round budget (or nothing is provable), the
    remaining events — dirty sets only, by then — take the exact walk.
    """
    n = event_lines.size
    n_sets = cache.config.n_sets
    present = np.ones(n, dtype=bool)  # removed no-op installs stay present
    stacks: dict = {}
    evictions = 0
    remaining = None  # indices into the original stream; None = all
    lines, installs, key_order = event_lines, install, real_key_order
    for _ in range(max_rounds):
        res = _classify_level(cache, lines, installs, key_order, report_conflicts=True)
        if isinstance(res, _LevelResult):
            if remaining is None:
                return res
            present[remaining] = res.present
            evictions += res.evictions
            stacks.update(res.stacks)
            return _LevelResult(present, evictions, stacks)
        # Commit the clean sets; narrow to the dirty sets' unproven events.
        is_dirty = np.zeros(n_sets, dtype=bool)
        is_dirty[res.dirty_sets] = True
        event_sets = _set_index(lines, n_sets)
        dirty_events = is_dirty[event_sets]
        clean_events = ~dirty_events
        base = res.result
        if remaining is None:
            remaining = _arange(n).copy()
        present[remaining[clean_events]] = base.present[clean_events]
        evictions += int(base.per_set_evictions[~is_dirty].sum())
        for s, ways in base.stacks.items():
            if not is_dirty[s]:
                stacks[s] = ways
        keep = dirty_events & ~res.mask  # proven no-ops drop out (present)
        remaining = remaining[keep]
        lines = lines[keep]
        installs = installs[keep]
        renumber = np.cumsum(keep) - 1
        key_order = renumber[key_order[keep[key_order]]]
        if not np.any(res.mask):
            break  # nothing provable: the walk below finishes the job
    if remaining is not None and remaining.size:
        walked = _classify_with_loop(cache, lines, installs)
        present[remaining] = walked.present
        evictions += walked.evictions
        stacks.update(walked.stacks)
    return _LevelResult(present, evictions, stacks)


def _commit_stacks(cache, result: _LevelResult) -> None:
    """Overwrite the touched sets' way lists with the reconstructed state."""
    cache_sets = cache._sets
    for s, ways in result.stacks.items():
        cache_sets[s] = ways


@REPLAY_BACKENDS.register("vectorized", aliases=("array",))
def replay_vectorized(
    h,
    structures: Sequence[str],
    head_ids: np.ndarray,
    head_lines: np.ndarray,
    head_kinds: np.ndarray,
) -> float:
    """Phased array-native replay; bit-identical to :func:`replay_reference`."""
    if head_lines.size < MIN_VECTORIZED_HEADS:
        return replay_reference(h, structures, head_ids, head_lines, head_kinds)
    profiling = _profile_sink is not None
    t0 = time.perf_counter() if profiling else 0.0
    try:
        # Phases 1-3 are pure: nothing on `h` mutates until the commit
        # block, so delegation can always restart from pristine state.
        covered, prefetch_hits, stream_updates = _prefetch_pass(
            h, structures, head_ids, head_lines, head_kinds
        )
        if profiling:
            now = time.perf_counter()
            _record_phase("prefetch", now - t0)
            t0 = now

        # One (line, time) sort serves every level: the set index is a pure
        # function of the line, and filtering a sorted order keeps it sorted.
        head_key_order = _key_time_order(head_lines)

        level1 = _classify_level(
            h.l1, head_lines, install=None, real_key_order=head_key_order
        )
        l1_miss = ~level1.present

        l2_positions = np.flatnonzero(l1_miss)
        install2 = covered[l2_positions]
        renumber = np.cumsum(l1_miss) - 1
        l2_key_order = renumber[head_key_order[l1_miss[head_key_order]]]
        level2 = _classify_with_removal(
            h.l2, head_lines[l2_positions], install2, l2_key_order
        )
        l2_present = np.zeros(head_lines.size, dtype=bool)
        l2_present[l2_positions] = level2.present

        # Covered heads install into L3; uncovered L2 misses access it.
        l3_mask = l1_miss & (covered | ~l2_present)
        l3_positions = np.flatnonzero(l3_mask)
        install3 = covered[l3_positions]
        renumber = np.cumsum(l3_mask) - 1
        l3_key_order = renumber[head_key_order[l3_mask[head_key_order]]]
        level3 = _classify_with_removal(
            h.l3, head_lines[l3_positions], install3, l3_key_order
        )
        l3_present = np.zeros(head_lines.size, dtype=bool)
        l3_present[l3_positions] = level3.present
        if profiling:
            now = time.perf_counter()
            _record_phase("lru", now - t0)
            t0 = now
    except _Delegate:
        return replay_reference(h, structures, head_ids, head_lines, head_kinds)

    # Phase 3: latencies and strictly-ordered stall accumulation.
    l2_lat = h.l2.config.latency_cycles
    l3_lat = h.l3.config.latency_cycles
    dram_lat = h.config.dram.latency_cycles
    latency = np.full(head_lines.size, float(l2_lat))  # covered or L2 hit
    deep = l1_miss & ~covered & ~l2_present
    latency[deep & l3_present] = float(l3_lat)
    dram_mask = deep & ~l3_present
    latency[dram_mask] = float(dram_lat)

    stalling = l1_miss & (head_kinds != 2)
    stall_kinds = head_kinds[stalling]
    dependent = stall_kinds == 1
    cpu = h.config.cpu
    stalls = np.where(
        dependent,
        latency[stalling] * cpu.dependent_miss_exposure,
        latency[stalling] / cpu.memory_level_parallelism,
    )
    added = _sequential_sum(0.0, stalls)

    # ---- Commit ----
    stats = h.stats
    n_heads = int(head_lines.size)
    l1_hits = int(level1.present.sum())
    access2 = ~install2
    access3 = ~install3
    l1s, l2s, l3s = h.l1.stats, h.l2.stats, h.l3.stats
    l1s.accesses += n_heads
    l1s.hits += l1_hits
    l1s.misses += n_heads - l1_hits
    l1s.evictions += level1.evictions
    l2s.accesses += int(access2.sum())
    l2s.hits += int((level2.present & access2).sum())
    l2s.misses += int((~level2.present & access2).sum())
    l2s.evictions += level2.evictions
    l3s.accesses += int(access3.sum())
    l3s.hits += int((level3.present & access3).sum())
    l3s.misses += int((~level3.present & access3).sum())
    l3s.evictions += level3.evictions
    h.prefetcher.covered_accesses += prefetch_hits
    h.prefetcher.issued_prefetches += prefetch_hits
    stats.prefetch_covered += int(install2.sum())
    stats.dram_accesses += int((~level3.present & access3).sum())
    stats.stall_cycles = _sequential_sum(stats.stall_cycles, stalls)
    stats.dependent_stall_cycles = _sequential_sum(
        stats.dependent_stall_cycles, stalls[dependent]
    )
    _commit_stacks(h.l1, level1)
    _commit_stacks(h.l2, level2)
    _commit_stacks(h.l3, level3)
    streams = h.prefetcher._streams
    for name, (last_line, stride, confirmations) in stream_updates:
        state = streams.get(name)
        if state is None:
            streams[name] = _StreamState(last_line, stride, confirmations)
        else:
            state.last_line = last_line
            state.stride = stride
            state.confirmations = confirmations
    if profiling:
        _record_phase("stalls", time.perf_counter() - t0)
    return added


# The compiled tier registers itself on import; importing it last keeps its
# dependencies (the registry and the reference loop above) fully defined.
from repro.sim import _replay_compiled as _replay_compiled  # noqa: E402,F401
