"""System-level tests: multi-CPU differential checks, the report CLI,
scaling tables, and experiment-runner coverage."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    barrier_scaling_table,
    cpu_scaling_table,
    detailed_equalization_table,
    figure5_report,
    rmw_handoff_table,
    rollback_cost_table,
    traffic_table,
)
from repro.consistency import RC, SC
from repro.isa import ProgramBuilder, interpret
from repro.report import EXPERIMENTS
from repro.system import run_workload


# ----------------------------------------------------------------------
# Multi-CPU differential: disjoint address spaces
# ----------------------------------------------------------------------

ADDR_BASES = (0x1000, 0x2000)
REGS = ["r1", "r2", "r3"]


@st.composite
def disjoint_programs(draw):
    """Two programs over disjoint address ranges."""
    programs = []
    for cpu, base in enumerate(ADDR_BASES):
        b = ProgramBuilder()
        n = draw(st.integers(2, 8))
        for _ in range(n):
            kind = draw(st.sampled_from(["mov", "load", "store", "rmw"]))
            addr = base + 4 * draw(st.integers(0, 3))
            if kind == "mov":
                b.mov_imm(draw(st.sampled_from(REGS)), draw(st.integers(0, 30)))
            elif kind == "load":
                b.load(draw(st.sampled_from(REGS)), addr=addr)
            elif kind == "store":
                b.store(draw(st.sampled_from(REGS)), addr=addr)
            else:
                b.rmw(draw(st.sampled_from(REGS)), addr=addr, op="add",
                      src=draw(st.sampled_from(REGS)))
        programs.append(b.build())
    return programs


class TestMultiCpuDifferential:
    @given(programs=disjoint_programs(),
           model=st.sampled_from([SC, RC]),
           spec=st.booleans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_disjoint_cpus_match_interpreter(self, programs, model, spec):
        """CPUs over disjoint memory must each behave like the
        sequential interpreter, for any model/technique combination."""
        expected = [interpret(p) for p in programs]
        result = run_workload(programs, model=model, prefetch=spec,
                              speculation=spec, miss_latency=20,
                              max_cycles=300_000)
        for cpu, exp in enumerate(expected):
            for reg in REGS:
                assert result.machine.reg(cpu, reg) == exp.reg(reg), (cpu, reg)
            for addr, value in exp.memory.items():
                assert result.machine.read_word(addr) == value, (cpu, hex(addr))


# ----------------------------------------------------------------------
# Experiment-runner coverage
# ----------------------------------------------------------------------

class TestExperimentRunners:
    def test_figure5_report_pair(self):
        result, table = figure5_report()
        assert result.cycles > 0
        assert len(table.rows) >= 8

    def test_rollback_cost_rows(self):
        table = rollback_cost_table(inval_cycles=(5,))
        assert len(table.rows) == 3
        assert table.rows[0][0].startswith("conventional")

    def test_traffic_table_has_four_configs(self):
        table = traffic_table()
        assert len(table.rows) == 4

    def test_rmw_handoff_all_correct(self):
        table = rmw_handoff_table(iterations=1)
        assert all(row[3] == "yes" for row in table.rows)

    def test_detailed_equalization_contended_variant(self):
        table = detailed_equalization_table(iterations=1, private=False)
        assert "contended" in table.title
        assert len(table.rows) == 4

    def test_cpu_scaling_small(self):
        table = cpu_scaling_table(cpu_counts=(1, 2), iterations=1)
        assert all(row[4] == "yes" for row in table.rows)

    def test_barrier_scaling_small(self):
        table = barrier_scaling_table(cpu_counts=(2,), phases=1)
        assert all(row[4] == "yes" for row in table.rows)


class TestReportCli:
    def test_generate_with_filter(self, capsys):
        from repro.report import generate
        text, failed = generate(["E1"], verbose=False)
        assert "Figure 1" in text
        assert "Example 1" not in text  # filtered out
        assert failed == []

    def test_main_writes_output_file(self, tmp_path, capsys):
        from repro.report import main
        out = tmp_path / "report.txt"
        assert main(["E1", "--output", str(out), "--quiet"]) == 0
        assert "Figure 1" in out.read_text()
        captured = capsys.readouterr()
        assert "Figure 1" in captured.out
        assert "claim PASS E1-litmus:" in captured.out

    def test_sections_cover_all_experiment_ids(self):
        from repro.report import EXPERIMENTS
        ids = [exp.id for exp in EXPERIMENTS]
        assert len(ids) == len(set(ids))
        names = " ".join(ids)
        for eid in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                    "E9", "E10", "E11", "A1", "A7", "S1", "S2"):
            assert eid in names

    @pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.id)
    def test_experiment_builds_and_its_claim_holds(self, exp):
        """The paper-table gate: every registry entry, one test each."""
        table = exp.build()
        assert table.render()
        assert exp.claim.__doc__, "a claim states its expectation"
        assert exp.claim(table), exp.claim.__doc__

    def test_failed_claim_exits_1_and_names_the_id(self, monkeypatch, capsys):
        from repro import report
        monkeypatch.setattr(report, "EXPERIMENTS", [
            exp._replace(claim=lambda table: False) if exp.id == "E6" else exp
            for exp in report.EXPERIMENTS if exp.id in ("E6", "E8")])
        assert report.main(["--quiet"]) == 1
        captured = capsys.readouterr()
        assert "claim FAIL E6:" in captured.out
        assert "claim PASS E8:" in captured.out
        assert "1 claim(s) failed: E6" in captured.err
