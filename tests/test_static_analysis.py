"""Acceptance tests for the static race & ordering analyzer.

The acceptance triangle from the issue:

* Dekker and Example 1 are flagged racy under the relaxed models, with
  fence suggestions that provably restore SC;
* the properly synchronized producer/consumer pair is race-free;
* the static prediction covers everything the dynamic Section 6
  detector flags on the same litmus suite (cross-validation).
"""

from pathlib import Path

import pytest

from repro.analysis.static import (
    analyze_programs,
    apply_fence_suggestions,
    cross_validate,
)
from repro.analysis.static.cli import selfcheck
from repro.consistency import PC, RC, SC, WC
from repro.consistency.litmus import (
    STANDARD_TESTS,
    message_passing_sync,
    sb_with_sync,
    store_buffering,
)
from repro.isa import ProgramBuilder, assemble
from repro.system import run_workload

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "asm"
RELAXED = [PC, WC, RC]


def load_examples(*names):
    return [assemble((EXAMPLES / name).read_text()) for name in names]


# ----------------------------------------------------------------------
# Dekker
# ----------------------------------------------------------------------

class TestDekker:
    def programs(self):
        return load_examples("dekker.s", "dekker_mirror.s")

    def test_clean_under_sc(self):
        report = analyze_programs(self.programs(), SC)
        assert report.sc_guaranteed
        assert not report.races()

    @pytest.mark.parametrize("model", RELAXED, ids=lambda m: m.name)
    def test_racy_under_relaxed_models(self, model):
        report = analyze_programs(self.programs(), model)
        assert report.races(), report.render()
        assert not report.sc_guaranteed
        assert report.fence_suggestions()

    @pytest.mark.parametrize("model", RELAXED, ids=lambda m: m.name)
    def test_suggested_fences_restore_sc(self, model):
        programs = self.programs()
        report = analyze_programs(programs, model)
        patched = apply_fence_suggestions(programs,
                                          report.fence_suggestions())
        assert analyze_programs(patched, model).sc_guaranteed

    def test_suggested_fences_fix_the_machine_too(self):
        """The fix is not just on paper: running the patched programs on
        the detailed WC machine never shows the Dekker relaxation."""
        programs = self.programs()
        report = analyze_programs(programs, WC)
        patched = apply_fence_suggestions(programs,
                                          report.fence_suggestions())
        for skew in ((0, 0), (0, 25), (25, 0), (7, 3)):
            skewed = []
            for cpu, prog in enumerate(patched):
                b = ProgramBuilder()
                if skew[cpu]:
                    b.mov_imm("r20", 0)
                    for _ in range(skew[cpu]):
                        b.add_imm("r20", "r20", 1)
                for instr in prog.instructions:
                    b.emit(instr)
                skewed.append(b.build())
            result = run_workload(skewed, model=WC, miss_latency=40,
                                  initial_memory={0x100: 0, 0x110: 0},
                                  max_cycles=500_000)
            r1 = [result.machine.reg(c, "r1") for c in range(2)]
            assert r1 != [0, 0], f"Dekker outcome survived fences, skew {skew}"


# ----------------------------------------------------------------------
# Example 1 (the paper's optimistic lock)
# ----------------------------------------------------------------------

class TestExample1:
    def programs(self):
        return load_examples("example1.s", "example1.s")

    @pytest.mark.parametrize("model", RELAXED, ids=lambda m: m.name)
    def test_flagged_racy_with_ineffective_lock_warning(self, model):
        report = analyze_programs(self.programs(), model)
        assert report.races(), report.render()
        assert report.by_kind("ineffective-sync")

    @pytest.mark.parametrize("model", [WC, RC], ids=lambda m: m.name)
    def test_overlapping_writes_break_sc(self, model):
        assert not analyze_programs(self.programs(), model).sc_guaranteed

    def test_pc_keeps_sc_despite_the_race(self):
        """PC only relaxes W->R, so the critical-section writes stay in
        program order: the race is real but every execution is SC."""
        report = analyze_programs(self.programs(), PC)
        assert report.races()
        assert report.sc_guaranteed

    @pytest.mark.parametrize("model", RELAXED, ids=lambda m: m.name)
    def test_suggested_fences_restore_sc(self, model):
        programs = self.programs()
        report = analyze_programs(programs, model)
        patched = apply_fence_suggestions(programs,
                                          report.fence_suggestions())
        assert analyze_programs(patched, model).sc_guaranteed


# ----------------------------------------------------------------------
# Producer / consumer with real synchronization
# ----------------------------------------------------------------------

class TestProducerConsumer:
    @pytest.mark.parametrize("model", [SC] + RELAXED, ids=lambda m: m.name)
    def test_race_free(self, model):
        programs = load_examples("producer.s", "consumer.s")
        report = analyze_programs(programs, model)
        assert not report.races(), report.render()


# ----------------------------------------------------------------------
# Litmus integration: op "F", with_fences, to_programs
# ----------------------------------------------------------------------

class TestLitmusFences:
    @pytest.mark.parametrize("model", RELAXED, ids=lambda m: m.name)
    def test_with_fences_forbids_dekker_outcome_in_checker(self, model):
        sb = store_buffering()
        bad = (("r0", 0), ("r1", 0))
        assert bad in sb.outcomes(model)
        assert bad not in sb.with_fences().outcomes(model)

    def test_with_fences_analyzer_agrees(self):
        sb = store_buffering()
        plain, _ = sb.to_programs()
        fenced, _ = sb.with_fences().to_programs()
        assert not analyze_programs(plain, WC).sc_guaranteed
        assert analyze_programs(fenced, WC).sc_guaranteed

    def test_to_programs_outcome_matches_audit_slots(self):
        test = message_passing_sync()
        programs, audit_map = test.to_programs()
        assert set(audit_map) == {"r0", "r1"}
        result = run_workload(
            programs, model=RC, miss_latency=40,
            initial_memory={a: 0 for a in test.addresses().values()},
            max_cycles=500_000)
        outcome = tuple(sorted((r, result.machine.read_word(s))
                               for r, s in audit_map.items()))
        assert outcome in test.outcomes(RC)

    def test_fence_mnemonic_assembles(self):
        prog = assemble("fence\nfence 0x200\nhalt")
        assert prog.instructions[0].acquire and prog.instructions[0].release
        assert prog.instructions[1].offset == 0x200

    def test_builder_fence_orders_everything(self):
        prog = (ProgramBuilder()
                .store_imm(1, addr=0x100)
                .fence()
                .load("r1", addr=0x110)
                .build())
        report = analyze_programs([prog, prog], WC)
        # a single thread pair writing/reading different lines through a
        # fence: the W->R reordering is gone, so po is fully enforced
        assert all(report.po_fully_enforced)


# ----------------------------------------------------------------------
# Cross-validation: static analyzer vs dynamic detector
# ----------------------------------------------------------------------

class TestCrossValidation:
    def test_static_covers_dynamic_on_core_suite(self):
        tests = [STANDARD_TESTS["SB"](), STANDARD_TESTS["MP+sync"](),
                 sb_with_sync()]
        report = cross_validate(tests, models=[SC, WC, RC])
        assert report.ok, report.render()

    def test_dynamic_detector_actually_fires_somewhere(self):
        """Guard against vacuous agreement: the relaxed machine must
        dynamically flag the store-buffering race at least once."""
        report = cross_validate([STANDARD_TESTS["SB"]()], models=[WC])
        assert any(case.dynamic_lines for case in report.cases)

    def test_sc_machine_never_flagged(self):
        report = cross_validate([STANDARD_TESTS["SB"]()], models=[SC])
        for case in report.cases:
            assert not case.dynamic_lines
            assert not case.static_lines


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_selfcheck_passes_on_bundled_examples(self, capsys):
        assert selfcheck(str(EXAMPLES)) == 0
        assert "self-check passed" in capsys.readouterr().out

    def test_main_renders_report(self, capsys):
        from repro.analysis.static.cli import main
        rc = main([str(EXAMPLES / "dekker.s"), str(EXAMPLES / "dekker_mirror.s"),
                   "--model", "WC", "--fix"])
        out = capsys.readouterr().out
        assert rc == 1          # races found -> linter-style non-zero exit
        assert "data-race" in out
        assert "restores SC" in out
