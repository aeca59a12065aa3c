"""Tests for the instrumented SpMV kernels."""

import numpy as np
import pytest

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.spmv import (
    spmv_bcsr_instrumented,
    spmv_csr_instrumented,
    spmv_ideal_csr_instrumented,
    spmv_mkl_csr_instrumented,
    spmv_smash_hardware_instrumented,
    spmv_smash_software_instrumented,
)
from repro.sim.config import SimConfig
from repro.sim.instrumentation import InstructionClass


@pytest.fixture
def dense(medium_coo):
    return medium_coo.to_dense()


@pytest.fixture
def x(dense, rng):
    return rng.uniform(0.5, 1.5, size=dense.shape[1])


@pytest.fixture
def sim():
    return SimConfig.scaled(16)


class TestCorrectness:
    def test_all_schemes_match_numpy(self, dense, x, sim, smash_config):
        expected = dense @ x
        csr = CSRMatrix.from_dense(dense)
        bcsr = BCSRMatrix.from_dense(dense, (4, 4))
        smash = SMASHMatrix.from_dense(dense, smash_config)
        for func, operand in (
            (spmv_csr_instrumented, csr),
            (spmv_ideal_csr_instrumented, csr),
            (spmv_mkl_csr_instrumented, csr),
            (spmv_bcsr_instrumented, bcsr),
            (spmv_smash_software_instrumented, smash),
            (spmv_smash_hardware_instrumented, smash),
        ):
            result, report = func(operand, x, sim)
            np.testing.assert_allclose(result, expected, err_msg=report.scheme)
            assert report.total_instructions > 0
            assert report.cycles > 0

    def test_wrong_vector_length_raises(self, dense, sim):
        csr = CSRMatrix.from_dense(dense)
        with pytest.raises(ValueError):
            spmv_csr_instrumented(csr, np.zeros(dense.shape[1] + 1), sim)

    def test_empty_matrix(self, sim):
        csr = CSRMatrix.from_dense(np.zeros((8, 8)))
        smash = SMASHMatrix.from_dense(np.zeros((8, 8)))
        result_csr, _ = spmv_csr_instrumented(csr, np.ones(8), sim)
        result_smash, _ = spmv_smash_hardware_instrumented(smash, np.ones(8), sim)
        np.testing.assert_array_equal(result_csr, np.zeros(8))
        np.testing.assert_array_equal(result_smash, np.zeros(8))


class TestCostModelStructure:
    def test_ideal_csr_removes_indexing_instructions(self, dense, x, sim):
        csr = CSRMatrix.from_dense(dense)
        _, baseline = spmv_csr_instrumented(csr, x, sim)
        _, ideal = spmv_ideal_csr_instrumented(csr, x, sim)
        assert ideal.total_instructions < baseline.total_instructions
        assert ideal.instructions.get(InstructionClass.INDEX) < baseline.instructions.get(
            InstructionClass.INDEX
        )
        # Figure 3: the idealized version is clearly faster.
        assert ideal.speedup_over(baseline) > 1.2

    def test_ideal_csr_has_no_col_ind_traffic(self, dense, x, sim):
        csr = CSRMatrix.from_dense(dense)
        _, ideal = spmv_ideal_csr_instrumented(csr, x, sim)
        assert "A_col_ind" not in ideal.per_structure_accesses

    def test_csr_x_accesses_are_dependent_smash_are_not(self, dense, x, sim, smash_config):
        csr = CSRMatrix.from_dense(dense)
        smash = SMASHMatrix.from_dense(dense, smash_config)
        _, csr_report = spmv_csr_instrumented(csr, x, sim)
        _, smash_report = spmv_smash_hardware_instrumented(smash, x, sim)
        assert csr_report.per_structure_accesses["x"] > 0
        assert smash_report.per_structure_accesses["x"] > 0

    def test_mkl_uses_fewer_instructions_than_taco(self, dense, x, sim):
        csr = CSRMatrix.from_dense(dense)
        _, taco = spmv_csr_instrumented(csr, x, sim)
        _, mkl = spmv_mkl_csr_instrumented(csr, x, sim)
        assert mkl.total_instructions < taco.total_instructions

    def test_smash_hw_uses_bmu_instructions_sw_does_not(self, dense, x, sim, smash_config):
        smash = SMASHMatrix.from_dense(dense, smash_config)
        _, hw = spmv_smash_hardware_instrumented(smash, x, sim)
        _, sw = spmv_smash_software_instrumented(smash, x, sim)
        assert hw.instructions.get(InstructionClass.BMU) > 0
        assert sw.instructions.get(InstructionClass.BMU) == 0

    def test_smash_hw_fewer_instructions_than_sw(self, dense, x, sim, smash_config):
        smash = SMASHMatrix.from_dense(dense, smash_config)
        _, hw = spmv_smash_hardware_instrumented(smash, x, sim)
        _, sw = spmv_smash_software_instrumented(smash, x, sim)
        assert hw.total_instructions < sw.total_instructions

    def test_smash_hw_faster_than_csr_on_clustered_matrix(self, dense, x, sim, smash_config):
        # The headline claim of the paper, on a matrix with good locality.
        csr = CSRMatrix.from_dense(dense)
        smash = SMASHMatrix.from_dense(dense, smash_config)
        _, csr_report = spmv_csr_instrumented(csr, x, sim)
        _, smash_report = spmv_smash_hardware_instrumented(smash, x, sim)
        assert smash_report.speedup_over(csr_report) > 1.0
        assert smash_report.total_instructions < csr_report.total_instructions

    def test_bcsr_trades_index_for_compute(self, dense, x, sim):
        csr = CSRMatrix.from_dense(dense)
        bcsr = BCSRMatrix.from_dense(dense, (4, 4))
        _, csr_report = spmv_csr_instrumented(csr, x, sim)
        _, bcsr_report = spmv_bcsr_instrumented(bcsr, x, sim)
        assert bcsr_report.instructions.get(InstructionClass.INDEX) < csr_report.instructions.get(
            InstructionClass.INDEX
        )
        assert bcsr_report.instructions.get(InstructionClass.COMPUTE) > csr_report.instructions.get(
            InstructionClass.COMPUTE
        )

    def test_hw_report_records_bmu_metadata(self, dense, x, sim, smash_config):
        smash = SMASHMatrix.from_dense(dense, smash_config)
        _, report = spmv_smash_hardware_instrumented(smash, x, sim)
        assert report.metadata["pbmap_count"] >= smash.n_nonzero_blocks

    def test_instruction_count_grows_with_nnz(self, sim, rng):
        def csr_for(nnz):
            dense = np.zeros((64, 64))
            idx = rng.choice(64 * 64, size=nnz, replace=False)
            dense[idx // 64, idx % 64] = 1.0
            return CSRMatrix.from_dense(dense)

        x = np.ones(64)
        _, small = spmv_csr_instrumented(csr_for(20), x, sim)
        _, large = spmv_csr_instrumented(csr_for(200), x, sim)
        assert large.total_instructions > small.total_instructions
