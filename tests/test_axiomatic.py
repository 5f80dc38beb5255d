"""Tests for the axiomatic (herd-style) checker and its integrations.

The central contract: for every litmus test and every model, the
axiomatic outcome set exactly equals the interleaving enumerator's,
and every outcome the detailed simulator produces is a member.  The
rest exercises the worked examples the docs derive (SB/MP/IRIW), RMW
atomicity, the memoization discipline, the program-to-litmus bridge,
and the CLIs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis.axiomatic
from repro.analysis.axiomatic import (
    CandidateExecution,
    axiomatic_outcomes,
    axioms_for,
    build_events,
    candidate_executions,
    clear_caches,
    compare_with_enumerator,
    ppo_masks,
    render_axiom_table,
)
from repro.analysis.axiomatic import checker as checker_mod
from repro.analysis.static import (
    analyze_programs,
    axiomatic_verdict,
    litmus_from_programs,
)
from repro.consistency import PC, RC, SC, WC, LitmusTest, read, rmw, write
from repro.consistency.litmus import STANDARD_TESTS
from repro.consistency.models import ALL_MODELS, get_model
from repro.sim.errors import ConfigurationError
from repro.verify import (
    HarnessConfig,
    OracleDisagreement,
    RunConfig,
    check_named,
    check_test,
    generate_litmus,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

MODELS = [SC, PC, WC, RC]

#: trimmed harness config so simulator-membership tests stay fast
FAST = HarnessConfig(
    models=("SC", "RC"),
    techniques=((False, False), (True, True)),
    run_configs=(RunConfig(name="fast", miss_latency=20, skew=(0, 7),
                           warm_shared=True),),
)


def _has(outcomes, **regs):
    wanted = set(regs.items())
    return any(wanted <= set(o) for o in outcomes)


# ----------------------------------------------------------------------
# Worked examples (the derivations docs/axiomatic.md walks through)
# ----------------------------------------------------------------------

class TestWorkedExamples:
    def test_sb_dekker_outcome_needs_relaxation(self):
        test = STANDARD_TESTS["SB"]()
        assert not _has(axiomatic_outcomes(test, SC), r0=0, r1=0)
        for model in (PC, WC, RC):
            assert _has(axiomatic_outcomes(test, model), r0=0, r1=0), model.name

    def test_mp_stale_data_only_under_relaxation(self):
        test = STANDARD_TESTS["MP"]()
        assert not _has(axiomatic_outcomes(test, SC), r0=1, r1=0)
        for model in (WC, RC):
            assert _has(axiomatic_outcomes(test, model), r0=1, r1=0), model.name

    def test_mp_sync_labels_restore_ordering(self):
        test = STANDARD_TESTS["MP+sync"]()
        for model in MODELS:
            assert not _has(axiomatic_outcomes(test, model), r0=1, r1=0), \
                model.name

    def test_iriw_readers_never_disagree(self):
        """Section 2's write atomicity: the fr/rf/ppo cycle kills the
        disagreeing-readers outcome under every model."""
        test = STANDARD_TESTS["IRIW"]()
        for model in MODELS:
            assert not _has(axiomatic_outcomes(test, model),
                            r0=1, r1=0, r2=1, r3=0), model.name

    def test_coherence_program_order_per_location(self):
        test = STANDARD_TESTS["coherence"]()
        for model in MODELS:
            assert not _has(axiomatic_outcomes(test, model), r0=2, r1=1), \
                model.name

    def test_rmw_atomicity_excludes_intervening_write(self):
        """Two atomic swaps of the same lock cannot both read 0: the
        second-in-coherence RMW must read the first (fr;co exclusion)."""
        test = LitmusTest("lock", [
            [rmw("L", "a", 1)],
            [rmw("L", "b", 2)],
        ])
        for model in MODELS:
            outs = axiomatic_outcomes(test, model)
            assert not _has(outs, a=0, b=0), model.name
            assert outs == test.outcomes(model), model.name


# ----------------------------------------------------------------------
# The contract: exact equality with the enumerator, simulator membership
# ----------------------------------------------------------------------

class TestOracleEquality:
    @pytest.mark.parametrize("name", sorted(STANDARD_TESTS))
    def test_named_suite_equals_enumerator(self, name):
        test = STANDARD_TESTS[name]()
        for model in ALL_MODELS:
            comparison = compare_with_enumerator(test, model)
            assert comparison.agree, comparison.describe()

    def test_fuzz_slice_equals_enumerator(self):
        """A 500-test seeded slice: the two static semantics coincide
        on every generated test under all four models."""
        for seed in range(500):
            test = generate_litmus(seed)
            for model in ALL_MODELS:
                assert axiomatic_outcomes(test, model) == \
                    test.outcomes(model), (seed, model.name)

    @pytest.mark.parametrize("name", ["SB", "MP+sync", "IRIW"])
    def test_simulator_outcomes_are_members(self, name):
        result = check_test(STANDARD_TESTS[name](), FAST)
        assert result.ok, [d.describe() for d in result.divergences] + \
            [d.describe() for d in result.oracle_disagreements]
        assert result.num_runs > 0


# ----------------------------------------------------------------------
# Enumeration internals: candidates, caching
# ----------------------------------------------------------------------

class TestCandidates:
    def test_candidates_are_model_independent_and_cached(self):
        clear_caches()
        test = STANDARD_TESTS["SB"]()
        first = candidate_executions(test)
        again = candidate_executions(test)
        assert first is again  # cache hit on the same structure

    def test_structurally_equal_tests_share_cache(self):
        clear_caches()
        a = STANDARD_TESTS["MP"]()
        b = STANDARD_TESTS["MP"]()
        assert a is not b
        assert candidate_executions(a) is candidate_executions(b)

    def test_mutation_misses_cache(self):
        clear_caches()
        test = STANDARD_TESTS["MP"]()
        before = axiomatic_outcomes(test, WC)
        test.threads = [list(test.threads[0])]  # drop the consumer
        after = axiomatic_outcomes(test, WC)
        assert before != after

    def test_cache_is_bounded(self):
        clear_caches()
        for seed in range(checker_mod._CACHE_MAX + 40):
            candidate_executions(generate_litmus(seed))
        assert len(checker_mod._candidate_cache) <= checker_mod._CACHE_MAX

    def test_ppo_mirrors_enumerator_preds(self):
        """The ppo edge rule is exactly the enumerator's preds rule:
        same-address or delay-arc, same thread, program order."""
        test = STANDARD_TESTS["MP+sync"]()
        events = build_events(test)
        masks = ppo_masks(events, RC)
        for a in events:
            for b in events:
                expected = (a.tid == b.tid and a.idx < b.idx
                            and (a.op.addr == b.op.addr
                                 or RC.delay_arc(a.op.access_class(),
                                                 b.op.access_class())))
                assert bool(masks[a.eid] & (1 << b.eid)) == expected, \
                    (a.eid, b.eid)
                # ... and ``ordering`` is the same edges, transposed
                assert bool(test.ordering(RC)[b.eid] & (1 << a.eid)) \
                    == expected, (a.eid, b.eid)

    def test_candidate_limit_guards_enumeration(self):
        test = LitmusTest("wide", [[write("x", v)] for v in range(1, 9)]
                          + [[read("x", "r0")], [read("x", "r1")],
                             [read("x", "r2")], [read("x", "r3")]])
        old = checker_mod.CANDIDATE_LIMIT
        checker_mod.CANDIDATE_LIMIT = 100
        try:
            clear_caches()
            with pytest.raises(ConfigurationError):
                candidate_executions(test)
        finally:
            checker_mod.CANDIDATE_LIMIT = old
            clear_caches()


# ----------------------------------------------------------------------
# Axiom registry
# ----------------------------------------------------------------------

class TestAxioms:
    def test_every_paper_model_is_registered(self):
        for model in ALL_MODELS:
            axioms = axioms_for(model)
            assert axioms.model == model.name
            assert "acyclic" in axioms.axiom
            assert axioms.render()

    def test_axiom_table_renders(self):
        table = render_axiom_table(list(ALL_MODELS))
        for model in ALL_MODELS:
            assert model.name in table


# ----------------------------------------------------------------------
# Harness integration (the three-way oracle)
# ----------------------------------------------------------------------

class TestHarnessOracle:
    def test_axiomatic_mode_never_simulates(self):
        config = HarnessConfig(models=("SC", "RC"), oracle="axiomatic")
        result = check_test(STANDARD_TESTS["LB"](), config)
        assert result.ok
        assert result.num_runs == 0

    def test_unknown_oracle_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            check_test(STANDARD_TESTS["SB"](),
                       HarnessConfig(oracle="nonsense"))

    def test_check_named_runs_suite_entry(self):
        result = check_named((0, "SB", {"oracle": "axiomatic"}))
        assert result.test_name == "store-buffering"
        assert result.ok

    def test_check_named_rejects_unknown_test(self):
        with pytest.raises(ConfigurationError):
            check_named((0, "no-such-test", {}))

    def test_disagreement_surfaces_in_result(self, monkeypatch):
        """Poison the axiomatic oracle so the oracles disagree: the
        harness must report an OracleDisagreement, and a simulator
        outcome inside the enumerator set but outside the poisoned
        axiomatic set must be tagged with the axiomatic oracle."""
        test = STANDARD_TESTS["SB"]()
        monkeypatch.setattr(repro.analysis.axiomatic, "axiomatic_outcomes",
                            lambda test, model: frozenset())
        result = check_test(test, FAST)
        assert not result.ok
        assert len(result.oracle_disagreements) == len(FAST.models)
        dis = result.oracle_disagreements[0]
        assert isinstance(dis, OracleDisagreement)
        assert dis.missing and not dis.extra
        assert "differ" in dis.describe()
        assert result.divergences
        assert all(d.oracle == "axiomatic" for d in result.divergences)


# ----------------------------------------------------------------------
# The program-to-litmus bridge
# ----------------------------------------------------------------------

def _canon(test, outcomes):
    """Key outcomes by (thread, index) read position so tests with
    different register names compare."""
    pos = {op.reg: (t, i)
           for t, thread in enumerate(test.threads)
           for i, op in enumerate(thread) if op.reads}
    return {tuple(sorted((pos[r], v) for r, v in o)) for o in outcomes}


class TestBridge:
    @pytest.mark.parametrize("name", sorted(STANDARD_TESTS))
    def test_round_trip_preserves_outcomes(self, name):
        test = STANDARD_TESTS[name]()
        programs, _ = test.to_programs(audit=False)
        bridged = litmus_from_programs(programs, name=name)
        assert bridged.ok, bridged.reason
        for model in ALL_MODELS:
            assert _canon(bridged.test, bridged.test.outcomes(model)) == \
                _canon(test, test.outcomes(model)), model.name

    def test_fence_idiom_maps_back_to_fence(self):
        test = STANDARD_TESTS["SB"]().with_fences()
        programs, _ = test.to_programs(audit=False)
        bridged = litmus_from_programs(programs)
        assert bridged.ok, bridged.reason
        assert any(op.op == "F"
                   for thread in bridged.test.threads for op in thread)

    def test_refuses_control_flow(self):
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.mov_imm("r1", 1)
        b.label("spin")
        b.load("r2", addr=0x100)
        b.branch_zero("r2", "spin")
        result = litmus_from_programs([b.build()])
        assert not result.ok
        assert "control flow" in result.reason

    def test_refuses_non_static_store_value(self):
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.load("r1", addr=0x100)
        b.store("r1", addr=0x110)  # stores a loaded (unknown) value
        result = litmus_from_programs([b.build()])
        assert not result.ok
        assert "not statically known" in result.reason

    def test_verdict_on_unbridgeable_program_is_reported(self):
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.load("r1", addr=0x100)
        b.store("r1", addr=0x110)
        verdict = axiomatic_verdict([b.build()], get_model("RC"))
        assert not verdict.available
        assert "unavailable" in verdict.describe()

    def test_analyzer_report_cites_verdict(self):
        test = STANDARD_TESTS["MP"]()
        programs, _ = test.to_programs(audit=False)
        report = analyze_programs(programs, get_model("WC"))
        assert report.axiomatic_sc_equivalent is False
        assert "axioms admit" in report.axiomatic_verdict
        assert "axiomatic:" in report.render()
        races = report.races()
        assert races
        assert all("axiomatic checker" in d.message for d in races)


# ----------------------------------------------------------------------
# CLIs (subprocess, like the fuzzer's own CLI tests)
# ----------------------------------------------------------------------

def _run(module, *argv):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO_ROOT, timeout=600)


class TestCli:
    def test_named_suite_crosscheck_passes(self):
        proc = _run("repro.analysis.axiomatic", "SB", "MP", "IRIW",
                    "--all-models")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "axiomatic: OK" in proc.stdout

    def test_axioms_flag_prints_table(self):
        proc = _run("repro.analysis.axiomatic", "--axioms")
        assert proc.returncode == 0
        assert "acyclic" in proc.stdout

    def test_verbose_prints_witnesses(self):
        proc = _run("repro.analysis.axiomatic", "SB", "--model", "RC",
                    "--verbose")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "admitted" in proc.stdout

    def test_verify_suite_axiomatic_oracle(self):
        proc = _run("repro.verify", "--suite", "--oracle", "axiomatic")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verify: OK" in proc.stdout
        assert "0 oracle disagreements" in proc.stdout
