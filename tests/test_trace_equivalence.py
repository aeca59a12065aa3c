"""Batched-trace vs per-element equivalence suite.

The batched kernels (``repro.kernels.spmv`` / ``spmm`` / ``spadd``) must
reproduce the per-element reference kernels (``repro.kernels.legacy``)
*exactly*: identical instruction counts per class, identical DRAM accesses,
identical cycles (issue and stall, compared with ``==`` on the floats),
identical per-structure traffic and metadata — for every scheme, every
kernel, and matrices exercising tails, empty rows, and different SMASH
configurations.

The chunked-replay suite (``TestChunkedEquivalence``) layers the
bounded-memory guarantee on top: for every kernel x scheme, replaying the
trace in chunks — at multiple chunk sizes, including ones small enough to
cut streaming runs mid-run — must produce reports bit-identical to the
monolithic build-then-replay path (and hence to the legacy kernels).
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import SMASHConfig
from repro.core.smash_matrix import SMASHMatrix
from repro.eval.experiments import DEFAULT_SPMM_DIM
from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csc, coo_to_csr
from repro.formats.csr import CSRMatrix
from repro.kernels import legacy, spadd, spmm, spmv
from repro.kernels.schemes import prepare_operand
from repro.sim.config import SimConfig
from repro.sim.instrumentation import InstructionClass
from repro.sim.trace import CHUNK_ENV_VAR, chunk_override
from repro.workloads.suite import generate_matrix, get_spec
from repro.workloads.synthetic import clustered_matrix, uniform_random_matrix

SIM = SimConfig.scaled(16)
SMASH_CONFIGS = {
    "b2.4.16": SMASHConfig((2, 4, 16)),
    "b2.4": SMASHConfig((2, 4)),
    "b4": SMASHConfig.single_level(4),
}

#: Chunk budgets for the chunked-replay equivalence sweep. 3 is smaller than
#: every kernel's interleaved loop body (and than the BCSR/SMASH block
#: bodies, whose consecutive same-line accesses form streaming runs), so it
#: is guaranteed to cut streaming runs mid-run; 64 exercises coarser
#: mid-trace boundaries.
CHUNK_SIZES = (3, 64)


def assert_reports_identical(batched, reference, tag=""):
    """Exact (not approximate) equality of two cost reports."""
    for cls in InstructionClass:
        assert batched.instructions.get(cls) == reference.instructions.get(cls), (
            f"{tag}: {cls.value} count"
        )
    assert batched.issue_cycles == reference.issue_cycles, f"{tag}: issue cycles"
    assert batched.memory_stall_cycles == reference.memory_stall_cycles, f"{tag}: stalls"
    assert batched.dram_accesses == reference.dram_accesses, f"{tag}: DRAM"
    assert batched.l1_miss_rate == reference.l1_miss_rate, f"{tag}: L1"
    assert batched.l2_miss_rate == reference.l2_miss_rate, f"{tag}: L2"
    assert batched.l3_miss_rate == reference.l3_miss_rate, f"{tag}: L3"
    assert dict(batched.per_structure_accesses) == dict(reference.per_structure_accesses), (
        f"{tag}: per-structure accesses"
    )
    assert dict(batched.metadata) == dict(reference.metadata), f"{tag}: metadata"


@pytest.fixture(
    params=["clustered", "uniform", "rectangular", "empty", "dense"], scope="module"
)
def workload(request):
    """COO matrices covering clustering, tails, emptiness and full density."""
    return {
        "clustered": clustered_matrix(
            32, 32, density=0.06, cluster_size=4, cluster_height=2, seed=7
        ),
        "uniform": uniform_random_matrix(24, 24, density=0.05, seed=11),
        "rectangular": uniform_random_matrix(16, 24, density=0.08, seed=3),
        "empty": uniform_random_matrix(8, 8, density=0.0, seed=1),
        "dense": uniform_random_matrix(6, 6, density=1.0, seed=2),
    }[request.param]


class TestSpMVEquivalence:
    CSR_PAIRS = [
        (spmv.spmv_csr_instrumented, legacy.spmv_csr_instrumented),
        (spmv.spmv_ideal_csr_instrumented, legacy.spmv_ideal_csr_instrumented),
        (spmv.spmv_mkl_csr_instrumented, legacy.spmv_mkl_csr_instrumented),
    ]

    def test_csr_family(self, workload):
        csr = coo_to_csr(workload)
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        for batched_fn, reference_fn in self.CSR_PAIRS:
            y_new, r_new = batched_fn(csr, x, SIM)
            y_old, r_old = reference_fn(csr, x, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            np.testing.assert_allclose(y_new, y_old)

    def test_bcsr(self, workload):
        bcsr = BCSRMatrix.from_coo(workload, (4, 4))
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        y_new, r_new = spmv.spmv_bcsr_instrumented(bcsr, x, SIM)
        y_old, r_old = legacy.spmv_bcsr_instrumented(bcsr, x, SIM)
        assert_reports_identical(r_new, r_old, "spmv_bcsr")
        np.testing.assert_allclose(y_new, y_old)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_smash(self, workload, config_name):
        matrix = SMASHMatrix.from_coo(workload, SMASH_CONFIGS[config_name])
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        for batched_fn, reference_fn in [
            (spmv.spmv_smash_software_instrumented, legacy.spmv_smash_software_instrumented),
            (spmv.spmv_smash_hardware_instrumented, legacy.spmv_smash_hardware_instrumented),
        ]:
            y_new, r_new = batched_fn(matrix, x, SIM)
            y_old, r_old = reference_fn(matrix, x, SIM)
            assert_reports_identical(r_new, r_old, f"{batched_fn.__name__}/{config_name}")
            np.testing.assert_allclose(y_new, y_old)

    def test_smash_hw_with_buffer_reloads(self):
        """A Bitmap-0 larger than the 2048-bit BMU window forces reloads.

        96x96 with block size 2 gives a 4608-bit Bitmap-0, so the PBMAP scan
        must refill its SRAM window at least once; the clustered pattern also
        exercises the upper-level all-zero-span skip. The workloads above are
        all window-resident, so without this case the reload/skip path of
        ``hardware_scan_plan`` would go untested.
        """
        workload = clustered_matrix(
            96, 96, density=0.02, cluster_size=5, cluster_height=2, seed=13
        )
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        matrix = SMASHMatrix.from_coo(workload, SMASHConfig((2, 4, 16)))
        y_new, r_new = spmv.spmv_smash_hardware_instrumented(matrix, x, SIM)
        y_old, r_old = legacy.spmv_smash_hardware_instrumented(matrix, x, SIM)
        assert r_old.metadata["bmu_buffer_reloads"] > 0, "workload must trigger reloads"
        assert_reports_identical(r_new, r_old, "spmv_smash_hw/reloads")
        np.testing.assert_allclose(y_new, y_old)


class TestSpMMEquivalence:
    CSR_PAIRS = [
        (spmm.spmm_csr_instrumented, legacy.spmm_csr_instrumented),
        (spmm.spmm_ideal_csr_instrumented, legacy.spmm_ideal_csr_instrumented),
        (spmm.spmm_mkl_csr_instrumented, legacy.spmm_mkl_csr_instrumented),
    ]

    def _operands(self, workload):
        b = (
            uniform_random_matrix(workload.cols, workload.rows, density=0.07, seed=77)
            if workload.rows != workload.cols
            else workload
        )
        return workload, b

    def test_csr_family(self, workload):
        a, b = self._operands(workload)
        a_csr, b_csc = coo_to_csr(a), coo_to_csc(b)
        for batched_fn, reference_fn in self.CSR_PAIRS:
            c_new, r_new = batched_fn(a_csr, b_csc, SIM)
            c_old, r_old = reference_fn(a_csr, b_csc, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            # Both sum each pair's products left to right: exact equality.
            assert np.array_equal(c_new, c_old), batched_fn.__name__

    def test_csr_family_sums_in_sequential_order(self):
        """Mixed-sign dot products whose value depends on summation order.

        Row 0's sequential sum is 7 where pairwise and reversed summation
        give 14 and 8; row 1's is 7 where pairwise gives 0, which would also
        drop its traced C write.
        """
        products = np.array(
            [[1e16] + [1.0] * 7 + [-1e16] + [1.0] * 7, [1.0, 1e16, -1e16, 1.0] * 4]
        )
        signs = np.where(np.arange(16) % 2, -1.0, 1.0)
        a_csr = coo_to_csr(COOMatrix.from_dense(products * signs))
        b_csc = coo_to_csc(COOMatrix.from_dense(signs[:, None]))
        sequential = [0.0, 0.0]
        for i, row in enumerate(products):
            for value in row:
                sequential[i] += value
        assert sequential == [7.0, 7.0]
        assert [float(np.sum(row)) for row in products] == [14.0, 0.0]
        assert float(np.sum(products[0][::-1])) != sequential[0]
        for batched_fn, reference_fn in self.CSR_PAIRS:
            c_new, r_new = batched_fn(a_csr, b_csc, SIM)
            c_old, r_old = reference_fn(a_csr, b_csc, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            assert c_new[:, 0].tolist() == sequential, batched_fn.__name__
            assert np.array_equal(c_new, c_old), batched_fn.__name__

    def test_bcsr(self, workload):
        a, b = self._operands(workload)
        bcsr = BCSRMatrix.from_coo(a, (4, 4))
        b_csc = coo_to_csc(b)
        c_new, r_new = spmm.spmm_bcsr_instrumented(bcsr, b_csc, SIM)
        c_old, r_old = legacy.spmm_bcsr_instrumented(bcsr, b_csc, SIM)
        assert_reports_identical(r_new, r_old, "spmm_bcsr")
        np.testing.assert_allclose(c_new, c_old)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_smash(self, workload, config_name):
        config = SMASH_CONFIGS[config_name]
        if workload.cols % config.block_size:
            pytest.skip("row length must be a multiple of the block size")
        a, b = self._operands(workload)
        a_sm = SMASHMatrix.from_coo(a, config)
        bt_sm = SMASHMatrix.from_coo(b.transpose(), config)
        for batched_fn, reference_fn in [
            (spmm.spmm_smash_software_instrumented, legacy.spmm_smash_software_instrumented),
            (spmm.spmm_smash_hardware_instrumented, legacy.spmm_smash_hardware_instrumented),
        ]:
            c_new, r_new = batched_fn(a_sm, bt_sm, SIM)
            c_old, r_old = reference_fn(a_sm, bt_sm, SIM)
            assert_reports_identical(r_new, r_old, f"{batched_fn.__name__}/{config_name}")
            np.testing.assert_allclose(c_new, c_old)


#: One suite matrix per structural class, at the SpMM experiments' dimension:
#: banded, clustered, power-law, block and uniform.
SUITE_SPMM_KEYS = ("M3", "M5", "M11", "M14", "M4")

#: Every SpMM scheme with its batched kernel and the per-element oracle.
SPMM_SCHEMES = [
    ("taco_csr", spmm.spmm_csr_instrumented, legacy.spmm_csr_instrumented),
    ("ideal_csr", spmm.spmm_ideal_csr_instrumented, legacy.spmm_ideal_csr_instrumented),
    ("mkl_csr", spmm.spmm_mkl_csr_instrumented, legacy.spmm_mkl_csr_instrumented),
    ("taco_bcsr", spmm.spmm_bcsr_instrumented, legacy.spmm_bcsr_instrumented),
    ("smash_sw", spmm.spmm_smash_software_instrumented, legacy.spmm_smash_software_instrumented),
    ("smash_hw", spmm.spmm_smash_hardware_instrumented, legacy.spmm_smash_hardware_instrumented),
]


class TestSpAddEquivalence:
    def _operands(self, workload):
        if workload.rows != workload.cols:
            pytest.skip("spadd needs equal shapes; covered by the square workloads")
        b = uniform_random_matrix(workload.rows, workload.cols, density=0.05, seed=5)
        return workload, b

    def test_csr_family(self, workload):
        a, b = self._operands(workload)
        a_csr, b_csr = coo_to_csr(a), coo_to_csr(b)
        for batched_fn, reference_fn in [
            (spadd.spadd_csr_instrumented, legacy.spadd_csr_instrumented),
            (spadd.spadd_ideal_csr_instrumented, legacy.spadd_ideal_csr_instrumented),
        ]:
            c_new, r_new = batched_fn(a_csr, b_csr, SIM)
            c_old, r_old = reference_fn(a_csr, b_csr, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            np.testing.assert_array_equal(c_new, c_old)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_smash_hw(self, workload, config_name):
        a, b = self._operands(workload)
        config = SMASH_CONFIGS[config_name]
        a_sm = SMASHMatrix.from_coo(a, config)
        b_sm = SMASHMatrix.from_coo(b, config)
        c_new, r_new = spadd.spadd_smash_hardware_instrumented(a_sm, b_sm, SIM)
        c_old, r_old = legacy.spadd_smash_hardware_instrumented(a_sm, b_sm, SIM)
        assert_reports_identical(r_new, r_old, f"spadd_smash/{config_name}")
        np.testing.assert_array_equal(c_new, c_old)


_CELL = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def spadd_operands(draw):
    """Dense ``(A, B)`` pairs with empty rows and every merge relation.

    B is drawn independently of A, equal to A (every merge step a tie), with
    a column set disjoint from A's, or both operands are zeroed. Outside the
    tie case each operand's rows are emptied at random, so a row can be empty
    in A only, in B only, or in both.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(hnp.arrays(np.float64, (rows, cols), elements=_CELL))
    relation = draw(st.sampled_from(["independent", "identical", "disjoint", "zero"]))
    a[draw(hnp.arrays(bool, rows))] = 0.0
    if relation == "identical":
        return a, a.copy()
    b = draw(hnp.arrays(np.float64, (rows, cols), elements=_CELL))
    b[draw(hnp.arrays(bool, rows))] = 0.0
    if relation == "disjoint":
        in_a = draw(hnp.arrays(bool, cols))
        a[:, ~in_a] = 0.0
        b[:, in_a] = 0.0
    elif relation == "zero":
        a[:], b[:] = 0.0, 0.0
    return a, b


class TestSpAddMergeProperties:
    """The all-rows CSR merge against the per-row legacy loop, exactly."""

    PAIRS = [
        (spadd.spadd_csr_instrumented, legacy.spadd_csr_instrumented),
        (spadd.spadd_ideal_csr_instrumented, legacy.spadd_ideal_csr_instrumented),
    ]

    @settings(max_examples=100, deadline=None)
    @given(operands=spadd_operands())
    @example(operands=(np.array([[1.5]]), np.array([[-2.0]])))
    @example(operands=(np.array([[0.0, 1.0, 0.0, 2.0]]), np.array([[3.0, 1.0, 0.0, 0.0]])))
    @example(operands=(np.array([[1.0], [0.0], [2.0]]), np.array([[0.0], [0.0], [4.0]])))
    @example(operands=(np.zeros((3, 4)), np.zeros((3, 4))))
    @example(
        # Row 0 empty in A only, row 3 in B only, rows 1 and 4 in both.
        operands=(
            np.array([[0, 0, 0], [0, 0, 0], [1, 0, 2], [3, 0, 0], [0, 0, 0.0]]),
            np.array([[0, 5, 0], [0, 0, 0], [0, 1, 2], [0, 0, 0], [0, 0, 0.0]]),
        )
    )
    @example(
        operands=(
            np.array([[0, 0, 0], [1, 0, 2], [0, 0, 0.0]]),
            np.array([[0, 0, 0], [1, 0, 2], [0, 0, 0.0]]),
        )
    )
    @example(operands=(np.array([[1, 0, 2, 0.0]] * 3), np.array([[0, 3, 0, 4.0]] * 3)))
    def test_csr_family_matches_legacy(self, operands):
        a = CSRMatrix.from_dense(operands[0])
        b = CSRMatrix.from_dense(operands[1])
        for batched_fn, reference_fn in self.PAIRS:
            c_old, r_old = reference_fn(a, b, SIM)
            for budget in (None, 3):
                scope = contextlib.nullcontext() if budget is None else chunk_override(budget)
                with scope:
                    c_new, r_new = batched_fn(a, b, SIM)
                tag = f"{batched_fn.__name__}/chunk={budget or 'default'}"
                assert_reports_identical(r_new, r_old, tag)
                np.testing.assert_array_equal(c_new, c_old, err_msg=tag)


class TestChunkedEquivalence:
    """Chunked replay == monolithic replay == legacy, for every kernel x scheme.

    Every batched kernel is run three times — monolithic (chunking
    disabled), and once per ``CHUNK_SIZES`` budget — and all reports must be
    exactly equal to each other and to the per-element reference kernel's.
    """

    def _run_modes(self, monkeypatch, fn, *args):
        reports = {}
        for label, chunk in [("monolithic", "0")] + [
            (f"chunk{c}", str(c)) for c in CHUNK_SIZES
        ]:
            monkeypatch.setenv(CHUNK_ENV_VAR, chunk)
            _, reports[label] = fn(*args, SIM)
        monkeypatch.delenv(CHUNK_ENV_VAR)
        return reports

    def _assert_all_equal(self, reports, reference, tag):
        for label, report in reports.items():
            assert_reports_identical(report, reference, f"{tag}/{label}")

    def test_spmv(self, workload, monkeypatch):
        csr = coo_to_csr(workload)
        bcsr = BCSRMatrix.from_coo(workload, (4, 4))
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        pairs = TestSpMVEquivalence.CSR_PAIRS + [
            (spmv.spmv_bcsr_instrumented, legacy.spmv_bcsr_instrumented)
        ]
        for batched_fn, reference_fn in pairs:
            operand = bcsr if batched_fn is spmv.spmv_bcsr_instrumented else csr
            reports = self._run_modes(monkeypatch, batched_fn, operand, x)
            _, reference = reference_fn(operand, x, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_spmv_smash(self, workload, config_name, monkeypatch):
        matrix = SMASHMatrix.from_coo(workload, SMASH_CONFIGS[config_name])
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        for batched_fn, reference_fn in [
            (spmv.spmv_smash_software_instrumented, legacy.spmv_smash_software_instrumented),
            (spmv.spmv_smash_hardware_instrumented, legacy.spmv_smash_hardware_instrumented),
        ]:
            reports = self._run_modes(monkeypatch, batched_fn, matrix, x)
            _, reference = reference_fn(matrix, x, SIM)
            self._assert_all_equal(reports, reference, f"{batched_fn.__name__}/{config_name}")

    def test_spmm(self, workload, monkeypatch):
        b = (
            uniform_random_matrix(workload.cols, workload.rows, density=0.07, seed=77)
            if workload.rows != workload.cols
            else workload
        )
        a_csr, b_csc = coo_to_csr(workload), coo_to_csc(b)
        pairs = TestSpMMEquivalence.CSR_PAIRS + [
            (spmm.spmm_bcsr_instrumented, legacy.spmm_bcsr_instrumented)
        ]
        bcsr = BCSRMatrix.from_coo(workload, (4, 4))
        for batched_fn, reference_fn in pairs:
            a = bcsr if batched_fn is spmm.spmm_bcsr_instrumented else a_csr
            reports = self._run_modes(monkeypatch, batched_fn, a, b_csc)
            _, reference = reference_fn(a, b_csc, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)

    def test_spmm_smash(self, workload, monkeypatch):
        config = SMASH_CONFIGS["b2.4.16"]
        if workload.cols % config.block_size:
            pytest.skip("row length must be a multiple of the block size")
        b = (
            uniform_random_matrix(workload.cols, workload.rows, density=0.07, seed=77)
            if workload.rows != workload.cols
            else workload
        )
        a_sm = SMASHMatrix.from_coo(workload, config)
        bt_sm = SMASHMatrix.from_coo(b.transpose(), config)
        for batched_fn, reference_fn in [
            (spmm.spmm_smash_software_instrumented, legacy.spmm_smash_software_instrumented),
            (spmm.spmm_smash_hardware_instrumented, legacy.spmm_smash_hardware_instrumented),
        ]:
            reports = self._run_modes(monkeypatch, batched_fn, a_sm, bt_sm)
            _, reference = reference_fn(a_sm, bt_sm, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)

    @pytest.mark.parametrize("key", SUITE_SPMM_KEYS)
    def test_spmm_suite_scale(self, key, monkeypatch):
        """Every SpMM scheme on a suite matrix at the SpMM experiments' size."""
        coo = generate_matrix(key, DEFAULT_SPMM_DIM)
        smash_config = get_spec(key).smash_config()
        for scheme, batched_fn, reference_fn in SPMM_SCHEMES:
            a = prepare_operand(coo, scheme, smash_config, orientation="row")
            b = prepare_operand(coo, scheme, smash_config, orientation="col")
            c_new, r_new = batched_fn(a, b, SIM)
            c_old, reference = reference_fn(a, b, SIM)
            assert_reports_identical(r_new, reference, f"{key}/{scheme}")
            if scheme.endswith("_csr"):
                assert np.array_equal(c_new, c_old), f"{key}/{scheme}"
            else:
                np.testing.assert_allclose(c_new, c_old)
            reports = self._run_modes(monkeypatch, batched_fn, a, b)
            self._assert_all_equal(reports, reference, f"{key}/{scheme}")

    def test_spadd(self, workload, monkeypatch):
        if workload.rows != workload.cols:
            pytest.skip("spadd needs equal shapes; covered by the square workloads")
        b = uniform_random_matrix(workload.rows, workload.cols, density=0.05, seed=5)
        a_csr, b_csr = coo_to_csr(workload), coo_to_csr(b)
        for batched_fn, reference_fn in [
            (spadd.spadd_csr_instrumented, legacy.spadd_csr_instrumented),
            (spadd.spadd_ideal_csr_instrumented, legacy.spadd_ideal_csr_instrumented),
        ]:
            reports = self._run_modes(monkeypatch, batched_fn, a_csr, b_csr)
            _, reference = reference_fn(a_csr, b_csr, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)
        config = SMASH_CONFIGS["b2.4.16"]
        a_sm = SMASHMatrix.from_coo(workload, config)
        b_sm = SMASHMatrix.from_coo(b, config)
        reports = self._run_modes(
            monkeypatch, spadd.spadd_smash_hardware_instrumented, a_sm, b_sm
        )
        _, reference = legacy.spadd_smash_hardware_instrumented(a_sm, b_sm, SIM)
        self._assert_all_equal(reports, reference, "spadd_smash_hw")

    def test_mid_run_split_is_exact(self):
        """A chunk cut inside a coalesced streaming run changes nothing.

        The trace interleaves a long same-line run (stride-0 repeats, which
        the monolithic replay coalesces into one head plus bulk L1 credits)
        with striding accesses; replaying it at chunk size 3 forces cuts
        inside the run, whose far side must score the same guaranteed L1
        hits and leave the prefetcher untouched.
        """
        from repro.sim.instrumentation import KernelInstrumentation

        def build(chunk):
            instr = KernelInstrumentation("k", "s", SIM, trace_chunk=chunk)
            instr.register_array("a", 4096)
            instr.register_array("b", 4096)
            builder = instr.trace_builder()
            builder.add("a", np.zeros(50, dtype=np.int64), 0)  # one line, 50 repeats
            builder.add("b", np.arange(20, dtype=np.int64) * 64, 0)
            builder.add("a", np.full(30, 8, dtype=np.int64), 1)  # dependent repeats
            instr.replay_trace(builder.build())
            return instr.report()

        assert_reports_identical(build(3), build(None), "mid-run split")
        assert_reports_identical(build(1), build(None), "every-access split")


class TestBatchApiEquivalence:
    """The batch instrumentation APIs must equal their per-element loops."""

    def _fresh(self):
        instr = __import__("repro.sim.instrumentation", fromlist=["KernelInstrumentation"])
        k = instr.KernelInstrumentation("k", "s", SIM)
        k.register_array("a", 4096)
        k.register_array("b", 4096)
        return k

    def test_load_batch_matches_loop(self):
        offsets = np.arange(0, 4096, 8, dtype=np.int64)
        one = self._fresh()
        one.load_batch("a", offsets, dependent=False)
        two = self._fresh()
        for off in offsets:
            two.load("a", int(off), dependent=False)
        assert_reports_identical(one.report(), two.report(), "load_batch")

    def test_store_batch_matches_loop(self):
        offsets = np.arange(0, 2048, 8, dtype=np.int64)
        one = self._fresh()
        one.store_batch("b", offsets)
        two = self._fresh()
        for off in offsets:
            two.store("b", int(off))
        assert_reports_identical(one.report(), two.report(), "store_batch")

    def test_interleaved_trace_matches_loop(self):
        rng = np.random.default_rng(0)
        offs_a = rng.integers(0, 4096 // 8, 200) * 8
        offs_b = rng.integers(0, 4096 // 8, 200) * 8
        one = self._fresh()
        builder = one.trace_builder()
        builder.add_interleaved([("a", offs_a, 0), ("b", offs_b, 1)])
        one.replay_trace(builder.build())
        two = self._fresh()
        for oa, ob in zip(offs_a, offs_b):
            two.load("a", int(oa), count_instruction=False)
            two.load("b", int(ob), dependent=True, count_instruction=False)
        assert_reports_identical(one.report(), two.report(), "interleaved")
