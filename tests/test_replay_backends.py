"""Replay-backend equivalence: vectorized vs reference, bit for bit.

The array replay engine (``repro.sim._replay_core``) must be
indistinguishable from the reference loop on *every* observable: the added stall cycles returned by
each ``replay`` call, every statistics counter (including the exact
floating-point stall totals), the final cache contents *in LRU order*, and
the prefetcher stream states — across random traces, random chunk cuts,
and every configured cache geometry.  The suite fuzzes ~50 random traces
over several trace shapes (random addresses, strided streams, mixtures
with repeats, tight alternation with deep reuse windows, periodic rescans
that drive covered installs onto resident lines) plus directed edge cases,
with the array paths forced even for tiny traces.
"""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import repro.sim._replay_core as replay_core
from repro.api.config import RuntimeConfig
from repro.sim._replay_core import REPLAY_BACKENDS, backend_override, replay_backend_name
from repro.sim.config import CacheConfig, SimConfig
from repro.sim.memory import AccessType, MemoryHierarchy, MemoryRequest

#: Every engine that must match the reference loop bit for bit.
ARRAY_BACKENDS = ("vectorized",)


@pytest.fixture(autouse=True)
def force_array_paths(monkeypatch):
    """Tiny fuzz traces must exercise the array engine, not the size cutoff."""
    monkeypatch.setattr(replay_core, "MIN_VECTORIZED_HEADS", 0)


def tiny_sim(l1=(1024, 2, 2), l2=(4096, 4, 8), l3=(8192, 4, 20)):
    """A deliberately small hierarchy: lots of evictions and aliasing."""
    return SimConfig(
        l1=CacheConfig("L1", *l1),
        l2=CacheConfig("L2", *l2),
        l3=CacheConfig("L3", *l3),
    )


SIMS = [
    SimConfig.scaled(16),
    tiny_sim(),
    tiny_sim((512, 4, 1), (2048, 8, 6), (16384, 16, 30)),
]


def random_trace(rng, n_structures, n):
    """One random columnar trace covering a specific access-pattern shape."""
    names = [f"s{i}" for i in range(n_structures)]
    struct_ids = rng.integers(0, n_structures, n)
    style = rng.integers(0, 6)
    if style == 0:  # uniformly random addresses (set aliasing, cold misses)
        addresses = rng.integers(0, 1 << rng.integers(10, 22), n) * 8
    elif style == 1:  # constant-stride streams per structure (prefetcher food)
        addresses = np.zeros(n, dtype=np.int64)
        for s in range(n_structures):
            mask = struct_ids == s
            stride = int(rng.integers(1, 200))
            addresses[mask] = np.arange(mask.sum()) * stride * 8 + s * 100_000
    elif style == 2:  # random walk with repeats and occasional page jumps
        steps = rng.choice([0, 0, 8, 64, -64, 4096], size=n, p=[0.3, 0.1, 0.3, 0.15, 0.1, 0.05])
        addresses = np.abs(np.cumsum(steps))
    elif style == 3:  # tight alternation over few lines: deep reuse windows
        addresses = rng.integers(0, 6, n) * 64 + (np.arange(n) // 500) * 64 * 17
    elif style == 4:  # periodic rescan: covered installs land on resident lines
        period = int(rng.integers(8, 200))
        addresses = (np.arange(n) % period) * 64
    else:  # same-set alternation (conflict-heavy deep windows)
        addresses = rng.integers(0, 10, n) * 64 * 4
    kinds = rng.choice([0, 0, 0, 1, 2], size=n).astype(np.uint8)
    return names, struct_ids.astype(np.int64), np.asarray(addresses, dtype=np.int64), kinds


def replay_in_chunks(backend, sim, names, struct_ids, addresses, kinds, cuts):
    """Replay one trace as consecutive segments through a fresh hierarchy."""
    hierarchy = MemoryHierarchy(sim, replay_backend=backend)
    added = []
    previous = 0
    for cut in list(cuts) + [len(addresses)]:
        if cut > previous:
            added.append(
                hierarchy.replay(
                    names,
                    struct_ids[previous:cut],
                    addresses[previous:cut],
                    kinds[previous:cut],
                )
            )
        previous = cut
    return hierarchy, added


def observable_state(hierarchy):
    """Everything the two backends must agree on, exactly."""
    h = hierarchy
    return (
        h.stats.requests,
        h.stats.dram_accesses,
        h.stats.prefetch_covered,
        h.stats.stall_cycles,
        h.stats.dependent_stall_cycles,
        tuple(sorted(h.stats.per_structure_accesses.items())),
        tuple(
            (c.stats.accesses, c.stats.hits, c.stats.misses, c.stats.evictions)
            for c in (h.l1, h.l2, h.l3)
        ),
        tuple(tuple(map(tuple, c._sets)) for c in (h.l1, h.l2, h.l3)),
        h.prefetcher.covered_accesses,
        h.prefetcher.issued_prefetches,
        tuple(
            (name, s.last_line, s.stride, s.confirmations)
            for name, s in h.prefetcher._streams.items()
        ),
    )


def assert_backends_agree(sim, names, struct_ids, addresses, kinds, cuts, tag=""):
    ref, added_ref = replay_in_chunks("reference", sim, names, struct_ids, addresses, kinds, cuts)
    state_ref = observable_state(ref)
    for backend in ARRAY_BACKENDS:
        alt, added_alt = replay_in_chunks(backend, sim, names, struct_ids, addresses, kinds, cuts)
        assert added_ref == added_alt, f"{tag} [{backend}]: per-call stall cycles differ"
        for field_ref, field_alt in zip(state_ref, observable_state(alt)):
            assert field_ref == field_alt, f"{tag} [{backend}]: {field_ref} != {field_alt}"


class TestFuzzEquivalence:
    """~50 random traces x random chunk cuts: everything bit-identical."""

    @pytest.mark.parametrize("trial", range(50))
    def test_random_trace(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(50, 4000))
        # Every tenth trial floods the stream table past max_streams to
        # exercise the wholesale delegation to the reference loop.
        n_structures = int(rng.integers(1, 8)) if trial % 10 else 40
        sim = SIMS[trial % len(SIMS)]
        names, struct_ids, addresses, kinds = random_trace(rng, n_structures, n)
        cuts = sorted(rng.integers(1, n, int(rng.integers(0, 5))).tolist())
        assert_backends_agree(
            sim, names, struct_ids, addresses, kinds, cuts, tag=f"trial {trial}"
        )


class TestDirectedEquivalence:
    """Hand-picked shapes targeting the vectorized engine's special cases."""

    def test_single_access_per_call(self):
        """The per-element access() shim path, one head per replay call."""
        for backend in ("reference",) + ARRAY_BACKENDS:
            h = MemoryHierarchy(SimConfig.scaled(16), replay_backend=backend)
            stalls = [
                h.access(MemoryRequest("a", i * 64, AccessType.STREAMING))
                for i in range(64)
            ]
            if backend == "reference":
                expected = stalls
                expected_state = observable_state(h)
            else:
                assert stalls == expected
                assert observable_state(h) == expected_state

    def test_pure_write_trace(self):
        """Writes walk the caches but never stall or train the prefetcher."""
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 4096, 500) * 8
        kinds = np.full(500, 2, dtype=np.uint8)
        ids = np.zeros(500, dtype=np.int64)
        assert_backends_agree(tiny_sim(), ["w"], ids, addresses, kinds, [], "writes")

    def test_confirmed_stride_covers(self):
        """A long perfect stride exercises covered installs at L2/L3."""
        addresses = np.arange(4000, dtype=np.int64) * 64
        ids = np.zeros(4000, dtype=np.int64)
        kinds = np.zeros(4000, dtype=np.uint8)
        assert_backends_agree(SimConfig.scaled(16), ["v"], ids, addresses, kinds, [1000], "stride")

    def test_rescan_installs_on_resident_lines(self):
        """Periodic rescans drive the no-op-install resolution machinery."""
        addresses = (np.arange(6000, dtype=np.int64) % 96) * 64
        ids = np.zeros(6000, dtype=np.int64)
        kinds = np.zeros(6000, dtype=np.uint8)
        assert_backends_agree(tiny_sim(), ["v"], ids, addresses, kinds, [2500], "rescan")

    def test_stream_table_overflow_delegates(self):
        """More streams than the table holds: exact arbitrary-eviction order."""
        rng = np.random.default_rng(3)
        n = 2000
        names = [f"s{i}" for i in range(40)]
        ids = rng.integers(0, 40, n).astype(np.int64)
        addresses = rng.integers(0, 1 << 16, n) * 8
        kinds = np.zeros(n, dtype=np.uint8)
        assert_backends_agree(tiny_sim(), names, ids, addresses, kinds, [700], "overflow")

    def test_duplicate_structure_names_share_a_stream(self):
        """Two structure ids with one name feed a single prefetcher stream.

        ``TraceBuilder`` dedups names, but ``replay`` accepts any table;
        this pins the per-stream fallback path of the prefetcher pass.
        """
        rng = np.random.default_rng(17)
        n = 1500
        names = ["shared", "other", "shared"]  # ids 0 and 2 are one stream
        ids = rng.integers(0, 3, n).astype(np.int64)
        addresses = np.arange(n, dtype=np.int64) * 64
        addresses[ids == 1] += 1 << 20
        kinds = np.zeros(n, dtype=np.uint8)
        assert_backends_agree(
            tiny_sim(), names, ids, addresses, kinds, [400], "duplicate names"
        )

    def test_chunk_cut_every_access(self):
        """Worst-case segmentation: every access its own replay call."""
        rng = np.random.default_rng(5)
        n = 120
        names, ids, addresses, kinds = random_trace(rng, 3, n)
        assert_backends_agree(
            tiny_sim(), names, ids, addresses, kinds, list(range(1, n)), "per-access cuts"
        )


class TestBackendSelection:
    """The knob plumbing: registry, env var, overrides, validation."""

    def test_registry_names(self):
        assert set(REPLAY_BACKENDS.names()) == {"reference", "vectorized"}
        assert REPLAY_BACKENDS.resolve("loop") == "reference"
        assert REPLAY_BACKENDS.resolve("array") == "vectorized"

    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("SMASH_REPRO_REPLAY_BACKEND", raising=False)
        assert replay_backend_name() == "vectorized"
        assert MemoryHierarchy(SimConfig.scaled(16)).replay_backend == "vectorized"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_BACKEND", "reference")
        assert MemoryHierarchy(SimConfig.scaled(16)).replay_backend == "reference"

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_BACKEND", "sequential")
        with pytest.raises(ValueError, match="SMASH_REPRO_REPLAY_BACKEND"):
            RuntimeConfig.from_env()

    def test_override_context(self, monkeypatch):
        monkeypatch.delenv("SMASH_REPRO_REPLAY_BACKEND", raising=False)
        with backend_override("reference"):
            assert replay_backend_name() == "reference"
            assert MemoryHierarchy(SimConfig.scaled(16)).replay_backend == "reference"
        assert replay_backend_name() == "vectorized"

    def test_runtime_config_normalizes_alias(self):
        assert RuntimeConfig(replay_backend="loop").replay_backend == "reference"

    def test_runtime_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="replay backend"):
            RuntimeConfig(replay_backend="per-element")

    def test_backend_not_in_job_key(self):
        """Like every runtime knob, the backend must not split the cache."""
        from repro.eval.runner import Job, job_key, suite_source

        job = Job("spmv", "taco_csr", suite_source("M2", 64), SimConfig.scaled(16))
        assert "backend" not in str(sorted(job.payload()))
        assert job_key(job) == job_key(job)

    def test_unknown_backend_suggests_a_name(self):
        """The registry's did-you-mean error reaches backend resolution."""
        from repro.api.registry import UnknownNameError

        with pytest.raises(UnknownNameError, match="did you mean 'vectorized'"):
            REPLAY_BACKENDS.resolve("vectorised")
        with pytest.raises(ValueError, match="replay backend"):
            RuntimeConfig(replay_backend="vectorised")

    @pytest.mark.parametrize("name", ["compiled", "numba", "jit"])
    def test_retired_compiled_names_are_rejected(self, name, monkeypatch):
        """The compiled tier and its aliases are gone: config, env and CLI refuse them."""
        known = re.escape("['reference', 'vectorized']")
        with pytest.raises(ValueError, match=f"must be one of {known}, got '{name}'"):
            RuntimeConfig(replay_backend=name)
        monkeypatch.setenv("SMASH_REPRO_REPLAY_BACKEND", name)
        with pytest.raises(ValueError, match="SMASH_REPRO_REPLAY_BACKEND"):
            RuntimeConfig.from_env()
        monkeypatch.delenv("SMASH_REPRO_REPLAY_BACKEND")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        cli = subprocess.run(
            [sys.executable, "-m", "repro.eval", "run", "figure10", "--quick",
             "--no-cache", "--replay-backend", name],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert cli.returncode == 2, cli.stderr


class TestWorkerPoolPinning:
    """The resolved backend must reach pool workers, not just the parent."""

    def test_explicit_backend_pins_workers(self):
        from repro.eval.runner import SweepRunner, kernel_job, suite_source

        sim = SimConfig.scaled(16)
        jobs = [
            kernel_job("spmv", scheme, suite_source("M2", 48), sim)
            for scheme in ("taco_csr", "smash_hw")
        ]
        with SweepRunner(processes=1, cache_dir=None, replay_backend="reference") as serial:
            expected = serial.run(jobs)
        with SweepRunner(processes=2, cache_dir=None, replay_backend="reference") as pooled:
            assert pooled.run(jobs) == expected

    def test_initializer_applies_override(self):
        """The initializer function itself pins the process-local override."""
        from repro.eval.runner import _init_worker_overrides

        _init_worker_overrides(False, None, True, "reference")
        try:
            assert replay_backend_name() == "reference"
        finally:
            replay_core.set_backend_override(None)


class TestKernelTraceEquivalence:
    """Real kernel traces through the array engines, at several chunk cuts."""

    @pytest.mark.parametrize("chunk", [0, 7, 4096])
    def test_spmv_schemes_match_reference(self, chunk):
        from repro.api import Session
        from repro.workloads.suite import generate_matrix

        coo = generate_matrix("M8", dim=48)
        reports = {}
        for backend in ("reference",) + ARRAY_BACKENDS:
            runtime = RuntimeConfig(
                processes=1,
                cache_dir=None,
                trace_chunk=chunk,
                replay_backend=backend,
            )
            with Session(sim=SimConfig.scaled(16), runtime=runtime) as session:
                reports[backend] = {
                    scheme: session.run_kernel("spmv", scheme, coo).report
                    for scheme in ("taco_csr", "smash_sw", "smash_hw")
                }
        for backend in ARRAY_BACKENDS:
            assert reports[backend] == reports["reference"], backend


class TestSnapshotStatsRegression:
    """snapshot_stats must return frozen copies, not aliases (bug fix)."""

    def test_snapshot_does_not_alias_live_counters(self):
        h = MemoryHierarchy(SimConfig.scaled(16))
        h.access(MemoryRequest("a", 0))
        before = h.snapshot_stats()
        l1_accesses = before.l1.accesses
        requests = before.requests
        per_structure = dict(before.per_structure_accesses)
        for i in range(1, 40):
            h.access(MemoryRequest("a", i * 4096, AccessType.DEPENDENT))
        # The snapshot is history: later replays must not mutate it.
        assert before.l1.accesses == l1_accesses
        assert before.requests == requests
        assert dict(before.per_structure_accesses) == per_structure
        after = h.snapshot_stats()
        assert after.l1.accesses > l1_accesses
        assert after.requests > requests

    def test_snapshot_carries_per_level_counters(self):
        h = MemoryHierarchy(SimConfig.scaled(16))
        h.access(MemoryRequest("a", 0))
        stats = h.snapshot_stats()
        assert stats.l1.accesses == h.l1.stats.accesses
        assert stats.l1 is not h.l1.stats
