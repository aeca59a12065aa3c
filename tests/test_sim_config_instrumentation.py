"""Tests for the simulator configuration, instrumentation and CPU model."""

import pytest

from repro.sim.config import InstructionCosts, RealSystemConfig, SimConfig
from repro.sim.cpu import CPUModel
from repro.sim.instrumentation import (
    CostReport,
    InstructionClass,
    InstructionCounter,
    KernelInstrumentation,
    merge_reports,
)


class TestSimConfig:
    def test_default_matches_table2(self):
        config = SimConfig.default()
        assert config.cpu.issue_width == 4
        assert config.cpu.rob_entries == 128
        assert config.l1.size_bytes == 32 * 1024
        assert config.l2.size_bytes == 256 * 1024
        assert config.l3.size_bytes == 1024 * 1024
        assert config.dram.banks == 16

    def test_describe_covers_every_table2_row(self):
        rows = SimConfig.default().describe()
        assert set(rows) == {"CPU", "L1 Data + Inst. Cache", "L2 Cache", "L3 Cache", "DRAM"}
        assert "128-entry ROB" in rows["CPU"]
        assert "32 KB" in rows["L1 Data + Inst. Cache"]

    def test_scaled_shrinks_caches_only(self):
        scaled = SimConfig.scaled(16)
        assert scaled.l1.size_bytes == 2 * 1024
        assert scaled.l2.size_bytes == 16 * 1024
        assert scaled.l1.latency_cycles == SimConfig.default().l1.latency_cycles
        assert scaled.cpu == SimConfig.default().cpu

    def test_scaled_never_below_minimum(self):
        scaled = SimConfig.scaled(10_000)
        assert scaled.l1.size_bytes >= scaled.l1.associativity * scaled.l1.line_bytes

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            SimConfig.scaled(0)

    def test_with_costs_override(self):
        config = SimConfig.default().with_costs(bmu=5.0)
        assert config.costs.bmu == 5.0
        assert config.costs.index == 1.0

    def test_real_system_table5(self):
        rows = RealSystemConfig.default().describe()
        assert "Xeon Gold 5118" in rows["CPU"]
        assert rows["Main memory"] == "DDR4-2400"
        assert RealSystemConfig.default().to_sim_config().cpu.frequency_ghz == pytest.approx(2.30)

    def test_instruction_costs_as_dict(self):
        costs = InstructionCosts().as_dict()
        assert set(costs) == {"index", "compute", "load", "store", "branch", "bmu"}


class TestInstrumentation:
    def test_counts_accumulate(self):
        counter = InstructionCounter()
        counter.add(InstructionClass.INDEX, 3)
        counter.add(InstructionClass.INDEX, 2)
        counter.add(InstructionClass.COMPUTE)
        assert counter.get(InstructionClass.INDEX) == 5
        assert counter.total == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            InstructionCounter().add(InstructionClass.LOAD, -1)

    def test_merged_counters(self):
        a = InstructionCounter({"index": 2})
        b = InstructionCounter({"index": 3, "load": 1})
        merged = a.merged(b)
        assert merged.counts == {"index": 5, "load": 1}

    def test_kernel_instrumentation_report(self):
        instr = KernelInstrumentation("spmv", "taco_csr", SimConfig.scaled(16))
        instr.register_array("values", 1024)
        instr.count(InstructionClass.COMPUTE, 10)
        instr.load("values", 0)
        instr.store("values", 8)
        instr.note("extra", 1.0)
        report = instr.report()
        assert report.kernel == "spmv"
        assert report.total_instructions == 12
        assert report.cycles > 0
        assert report.metadata["extra"] == 1.0
        assert report.per_structure_accesses["values"] == 2

    def test_load_without_instruction_counting(self):
        instr = KernelInstrumentation("k", "s")
        instr.register_array("a", 64)
        instr.load("a", 0, count_instruction=False)
        assert instr.instructions.total == 0
        assert instr.memory.stats.requests == 1

    def test_issue_cycles_respect_costs_and_width(self):
        config = SimConfig.default().with_costs(bmu=4.0)
        instr = KernelInstrumentation("k", "s", config)
        instr.count(InstructionClass.BMU, 8)
        assert instr.issue_cycles() == pytest.approx(8 * 4.0 / config.cpu.issue_width)

    def test_speedup_and_instruction_ratio(self):
        def report_with(cycles, instructions):
            counter = InstructionCounter({"compute": instructions})
            return CostReport(
                kernel="k", scheme="s", instructions=counter,
                issue_cycles=cycles, memory_stall_cycles=0.0, dram_accesses=0,
                l1_miss_rate=0.0, l2_miss_rate=0.0, l3_miss_rate=0.0,
            )

        baseline = report_with(100.0, 1000)
        candidate = report_with(50.0, 600)
        assert candidate.speedup_over(baseline) == pytest.approx(2.0)
        assert candidate.instruction_ratio_over(baseline) == pytest.approx(0.6)

    def test_merge_reports_sums_costs(self):
        instr1 = KernelInstrumentation("k", "s")
        instr1.count(InstructionClass.COMPUTE, 5)
        instr2 = KernelInstrumentation("k", "s")
        instr2.count(InstructionClass.COMPUTE, 7)
        merged = merge_reports("k", "s", [instr1.report(), instr2.report()])
        assert merged.total_instructions == 12
        assert merged.issue_cycles == pytest.approx(
            instr1.report().issue_cycles + instr2.report().issue_cycles
        )

    def test_merge_reports_requires_input(self):
        with pytest.raises(ValueError):
            merge_reports("k", "s", [])


class TestCPUModel:
    def _report(self):
        instr = KernelInstrumentation("k", "s")
        instr.count(InstructionClass.COMPUTE, 400)
        return instr.report()

    def test_seconds_at_frequency(self):
        report = self._report()
        model = CPUModel(SimConfig.default())
        assert model.seconds(report) == pytest.approx(report.cycles / 3.6e9)

    def test_ipc(self):
        report = self._report()
        model = CPUModel()
        assert model.ipc(report) == pytest.approx(report.total_instructions / report.cycles)

    def test_summarize(self):
        summary = CPUModel().summarize(self._report())
        assert summary.instructions == 400
        assert summary.cycles > 0
        assert 0.0 <= summary.memory_stall_fraction <= 1.0

    def test_speedup(self):
        model = CPUModel()
        a, b = self._report(), self._report()
        assert model.speedup(a, b) == pytest.approx(1.0)
