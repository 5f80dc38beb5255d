"""Property-based tests (hypothesis) over the core invariants.

Four families:

1. the analytical scheduler respects every constraint it is given and
   the techniques never slow a segment down;
2. litmus outcome sets grow monotonically with model relaxation;
3. the coherent memory system is a faithful memory (single-writer
   sequences read back what was written);
4. the detailed out-of-order simulator is architecturally equivalent to
   the reference interpreter on a single CPU, for every model and
   technique combination.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.consistency import (
    PC,
    RC,
    SC,
    WC,
    LitmusTest,
    get_model,
    read,
    write,
)
from repro.consistency.access_class import (
    ACQUIRE,
    PLAIN_LOAD,
    PLAIN_STORE,
    RELEASE,
)
from repro.core.timing import AccessSpec, AnalyticalTimingModel, TimingConfig
from repro.isa import ProgramBuilder, interpret
from repro.system import run_workload

# (ProgramBuilder labels must be unique per builder; the strategies
# below construct a fresh builder per example, so reuse is safe.)

MODELS = [SC, PC, WC, RC]

# ----------------------------------------------------------------------
# Strategy: random access segments for the analytical model
# ----------------------------------------------------------------------

CLASSES = [PLAIN_LOAD, PLAIN_STORE, ACQUIRE, RELEASE]


@st.composite
def segments(draw, max_len=10):
    n = draw(st.integers(min_value=1, max_value=max_len))
    specs = []
    read_labels = []
    for i in range(n):
        klass = draw(st.sampled_from(CLASSES))
        hit = draw(st.booleans())
        deps = ()
        if read_labels and draw(st.booleans()):
            deps = (draw(st.sampled_from(read_labels)),)
        label = f"a{i}"
        specs.append(AccessSpec(label, klass, hit=hit, deps=deps))
        if klass.is_load:
            read_labels.append(label)
    return specs


class TestAnalyticalSchedulerProperties:
    @given(segment=segments(), model=st.sampled_from(MODELS),
           prefetch=st.booleans(), speculation=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_schedule_respects_constraints(self, segment, model,
                                           prefetch, speculation):
        engine = AnalyticalTimingModel(TimingConfig(miss_latency=20))
        res = engine.schedule(segment, model, prefetch=prefetch,
                              speculation=speculation)
        timing = {t.label: t for t in res.timings}
        # value dependences are always respected
        for spec in segment:
            for dep in spec.deps:
                assert timing[spec.label].issue > timing[dep].complete
        # consistency arcs hold for non-speculative accesses
        for i, a in enumerate(segment):
            for b in segment[i + 1:]:
                b_speculates = (speculation and b.klass.is_load
                                and not b.klass.is_store)
                if not b_speculates and model.delay_arc(a.klass, b.klass):
                    assert timing[b.label].issue > timing[a.label].complete, \
                        f"{a.label} -> {b.label} arc violated"
        # one cache issue per cycle (demand + prefetch share the port)
        cycles = [t.issue for t in res.timings]
        cycles += [t.prefetch_issue for t in res.timings
                   if t.prefetch_issue is not None]
        assert len(cycles) == len(set(cycles)), "port oversubscribed"

    @given(segment=segments(), model=st.sampled_from(MODELS))
    @settings(max_examples=80, deadline=None)
    def test_techniques_never_slow_down(self, segment, model):
        engine = AnalyticalTimingModel(TimingConfig(miss_latency=20))
        base = engine.schedule(segment, model).total_cycles
        for pf, sp in ((True, False), (False, True), (True, True)):
            improved = engine.schedule(segment, model, prefetch=pf,
                                       speculation=sp).total_cycles
            assert improved <= base, (pf, sp)

    @given(segment=segments())
    @settings(max_examples=80, deadline=None)
    def test_relaxed_models_never_slower(self, segment):
        engine = AnalyticalTimingModel(TimingConfig(miss_latency=20))
        sc = engine.schedule(segment, SC).total_cycles
        rc = engine.schedule(segment, RC).total_cycles
        assert rc <= sc

    @given(segment=segments(), model=st.sampled_from(MODELS))
    @settings(max_examples=60, deadline=None)
    def test_schedule_deterministic(self, segment, model):
        engine = AnalyticalTimingModel(TimingConfig(miss_latency=20))
        a = engine.schedule(segment, model, prefetch=True, speculation=True)
        b = engine.schedule(segment, model, prefetch=True, speculation=True)
        assert [(t.issue, t.complete) for t in a.timings] == \
               [(t.issue, t.complete) for t in b.timings]


# ----------------------------------------------------------------------
# Litmus monotonicity
# ----------------------------------------------------------------------

@st.composite
def litmus_tests(draw):
    addrs = ["x", "y"]
    reg_counter = [0]

    def thread(tid):
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            addr = draw(st.sampled_from(addrs))
            if draw(st.booleans()):
                ops.append(write(addr, draw(st.integers(1, 3))))
            else:
                reg_counter[0] += 1
                ops.append(read(addr, f"r{tid}_{reg_counter[0]}"))
        return ops

    return LitmusTest("generated", [thread(0), thread(1)])


class TestLitmusProperties:
    @given(test=litmus_tests())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_outcome_sets_monotone_in_relaxation(self, test):
        sc = test.outcomes(SC)
        pc = test.outcomes(PC)
        wc = test.outcomes(WC)
        rc = test.outcomes(RC)
        assert sc <= pc <= wc <= rc

    @given(test=litmus_tests())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sc_outcomes_nonempty_and_deterministic(self, test):
        outcomes = test.outcomes(SC)
        assert outcomes
        assert outcomes == test.outcomes(SC)


# ----------------------------------------------------------------------
# Properties of the fuzzer's generated litmus tests (full op alphabet:
# loads, stores, RMWs, fences, acquire/release annotations)
# ----------------------------------------------------------------------

#: small enough that fencing every gap stays under the 12-access
#: enumeration cap (worst case 2*7 - 2 = 12)
_SMALL_GEN = None


def _small_gen():
    global _SMALL_GEN
    if _SMALL_GEN is None:
        from repro.verify import GeneratorConfig
        _SMALL_GEN = GeneratorConfig(max_cpus=3, max_ops_per_thread=3,
                                     max_total_ops=7)
    return _SMALL_GEN


class TestGeneratedLitmusProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_outcomes_monotone_in_relaxation(self, seed):
        """Relaxing the model only ever adds outcomes: every final
        state SC permits is permitted by PC, WC, and RC too."""
        from repro.verify import generate_litmus
        test = generate_litmus(seed)
        sc = test.outcomes(SC)
        for model in (PC, WC, RC):
            assert sc <= test.outcomes(model), model.name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fence_saturation_collapses_to_sc(self, seed):
        """With a full fence in every program-order gap, every model's
        outcome set collapses to exactly the unfenced SC set — the
        brute-force way to restore sequential consistency."""
        from repro.verify import generate_litmus
        test = generate_litmus(seed, _small_gen())
        sc = test.outcomes(SC)
        fenced = test.with_fences()
        for model in (SC, PC, WC, RC):
            assert fenced.outcomes(model) == sc, model.name


# ----------------------------------------------------------------------
# The axiomatic checker against the interleaving enumerator
# ----------------------------------------------------------------------

class TestAxiomaticProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_axiomatic_equals_enumerator(self, seed):
        """The declarative and interleaving semantics are the same
        function: identical outcome sets on every generated test."""
        from repro.analysis.axiomatic import axiomatic_outcomes
        from repro.verify import generate_litmus
        test = generate_litmus(seed)
        for model in (SC, PC, WC, RC):
            assert axiomatic_outcomes(test, model) == \
                test.outcomes(model), model.name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_axiomatic_sc_subset_of_weaker_models(self, seed):
        """Relaxation only shrinks ppo, so every SC-accepted candidate
        stays accepted: the axiomatic SC set is a subset of each weaker
        model's set."""
        from repro.analysis.axiomatic import axiomatic_outcomes
        from repro.verify import generate_litmus
        test = generate_litmus(seed)
        sc = axiomatic_outcomes(test, SC)
        for model in (PC, WC, RC):
            assert sc <= axiomatic_outcomes(test, model), model.name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_axiomatic_fence_saturation_collapses_to_sc(self, seed):
        """A full fence in every gap makes ppo total again: each
        model's axiomatic outcome set collapses to the unfenced
        axiomatic SC set."""
        from repro.analysis.axiomatic import axiomatic_outcomes
        from repro.verify import generate_litmus
        test = generate_litmus(seed, _small_gen())
        sc = axiomatic_outcomes(test, SC)
        fenced = test.with_fences()
        for model in (SC, PC, WC, RC):
            assert axiomatic_outcomes(fenced, model) == sc, model.name


class TestOneSolvePerRelation:
    """The static oracles solve each distinct ordering relation of a
    test once and hand the set to every model that yields it."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equal_orderings_have_equal_outcome_sets(self, seed):
        """Both semantics read nothing of a model but its ordering:
        solved separately (caches dropped before each solve), models
        with one ordering get one enumerated and one axiomatic set."""
        from repro.analysis.axiomatic import axiomatic_outcomes, clear_caches
        from repro.verify import generate_litmus
        test = generate_litmus(seed)
        by_relation = {}
        for model in MODELS:
            clear_caches()
            solved = (test.outcomes(model), axiomatic_outcomes(test, model))
            assert by_relation.setdefault(
                test.ordering(model), solved) == solved, model.name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sc_ordering_contains_every_other(self, seed):
        from repro.verify import generate_litmus
        test = generate_litmus(seed)
        strongest = test.ordering(SC)
        for model in (PC, WC, RC):
            assert all(weaker & ~strong == 0 for strong, weaker
                       in zip(strongest, test.ordering(model))), model.name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           poisoned=st.booleans())
    @example(seed=0, poisoned=True)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_harness_reports_what_independent_comparisons_report(
            self, seed, poisoned):
        """Sharing must not hide a disagreement: with an axiomatic
        oracle that loses an outcome, the shared wrong answer surfaces
        under every model name, exactly as four unshared comparisons
        report it."""
        import repro.analysis.axiomatic as axiomatic
        from repro.analysis.axiomatic import checker
        from repro.verify import HarnessConfig, check_test, generate_litmus

        real = checker.axiomatic_outcomes

        def oracle(test, model):
            outcomes = real(test, model)
            return frozenset(sorted(outcomes)[1:]) if poisoned else outcomes

        test = generate_litmus(seed)
        config = HarnessConfig(oracle="axiomatic")
        with mock.patch.object(axiomatic, "axiomatic_outcomes", oracle), \
                mock.patch.object(checker, "axiomatic_outcomes", oracle):
            axiomatic.clear_caches()
            result = check_test(test, config)
            independent = []
            for name in config.models:
                axiomatic.clear_caches()
                compared = checker.compare_with_enumerator(
                    test, get_model(name))
                if not compared.agree:
                    independent.append((name, tuple(sorted(compared.missing)),
                                        tuple(sorted(compared.extra))))
        assert [(d.model, d.missing, d.extra)
                for d in result.oracle_disagreements] == independent
        assert len(independent) == (len(config.models) if poisoned else 0)


# ----------------------------------------------------------------------
# Memory system as a faithful memory
# ----------------------------------------------------------------------

class TestMemorySystemProperties:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_writer_reads_back_its_writes(self, data):
        """One CPU issuing sequential accesses sees a normal memory."""
        from repro.memory import AccessKind, AccessRequest
        from repro.sim import Simulator
        from repro.system.fabric import MemoryFabric

        sim = Simulator()
        fabric = MemoryFabric(sim, num_cpus=1)
        reference = {}
        n_ops = data.draw(st.integers(3, 15))
        rid = 0
        for _ in range(n_ops):
            addr = data.draw(st.integers(0, 15))
            is_store = data.draw(st.booleans())
            rid += 1
            done = {}

            def cb(req, value, done=done):
                done["value"] = value

            if is_store:
                value = data.draw(st.integers(0, 99))
                req = AccessRequest(req_id=rid, kind=AccessKind.STORE,
                                    addr=addr, value=value, callback=cb)
                reference[addr] = value
            else:
                req = AccessRequest(req_id=rid, kind=AccessKind.LOAD,
                                    addr=addr, callback=cb)
            assert fabric.caches[0].access(req)
            sim.run(until=lambda: "value" in done, max_cycles=5000)
            if not is_store:
                assert done["value"] == reference.get(addr, 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_disjoint_cpus_do_not_interfere(self, seed):
        """CPUs writing disjoint ranges each see their own data."""
        from repro.memory import AccessKind, AccessRequest
        from repro.sim import Simulator
        from repro.system.fabric import MemoryFabric

        rng = random.Random(seed)
        sim = Simulator()
        fabric = MemoryFabric(sim, num_cpus=2)
        reference = [{}, {}]
        pending = []
        rid = 0
        for _ in range(20):
            cpu = rng.randrange(2)
            addr = cpu * 0x100 + rng.randrange(8)
            rid += 1
            value = rng.randrange(100)
            req = AccessRequest(req_id=rid, kind=AccessKind.STORE,
                                addr=addr, value=value,
                                callback=lambda r, v: pending.append(r.req_id))
            if fabric.caches[cpu].access(req):
                reference[cpu][addr] = value
            for _ in range(rng.randrange(1, 5)):
                sim.step()
        sim.run(until=fabric.is_quiescent, max_cycles=100_000)
        for cpu in (0, 1):
            for addr, value in reference[cpu].items():
                assert fabric.read_word(addr) == value


# ----------------------------------------------------------------------
# Detailed simulator == reference interpreter (single CPU)
# ----------------------------------------------------------------------

ADDRS = [0x10, 0x14, 0x20, 0x24]
REGS = ["r1", "r2", "r3", "r4"]


@st.composite
def straightline_programs(draw, max_len=12):
    b = ProgramBuilder()
    n = draw(st.integers(2, max_len))
    for _ in range(n):
        kind = draw(st.sampled_from(["mov", "add", "load", "store", "rmw"]))
        if kind == "mov":
            b.mov_imm(draw(st.sampled_from(REGS)), draw(st.integers(0, 50)))
        elif kind == "add":
            b.alu("add", draw(st.sampled_from(REGS)),
                  draw(st.sampled_from(REGS)),
                  imm=draw(st.integers(0, 9)))
        elif kind == "load":
            b.load(draw(st.sampled_from(REGS)), addr=draw(st.sampled_from(ADDRS)))
        elif kind == "store":
            b.store(draw(st.sampled_from(REGS)), addr=draw(st.sampled_from(ADDRS)))
        else:
            b.rmw(draw(st.sampled_from(REGS)), addr=draw(st.sampled_from(ADDRS)),
                  op=draw(st.sampled_from(["ts", "add", "swap"])),
                  src=draw(st.sampled_from(REGS)))
    return b.build()


@st.composite
def branching_programs(draw):
    """Straight-line blocks joined by forward branches and a counted
    loop — exercising prediction, squash, and refetch paths."""
    b = ProgramBuilder()
    # a counted loop accumulating into r1
    loop_count = draw(st.integers(1, 4))
    b.mov_imm("r1", 0)
    b.mov_imm("r2", loop_count)
    b.label("loop")
    addr = draw(st.sampled_from(ADDRS))
    if draw(st.booleans()):
        b.store("r2", addr=addr)
    b.add_imm("r1", "r1", draw(st.integers(1, 5)))
    b.alu("sub", "r2", "r2", imm=1)
    b.branch_nonzero("r2", "loop",
                     predict_taken=draw(st.sampled_from([None, True, False])))
    # a forward branch over a block
    b.load("r3", addr=draw(st.sampled_from(ADDRS)))
    b.branch_nonzero("r3", "skip",
                     predict_taken=draw(st.sampled_from([None, True, False])))
    b.mov_imm("r4", 99)
    b.store("r4", addr=draw(st.sampled_from(ADDRS)))
    b.label("skip")
    b.load("r5", addr=draw(st.sampled_from(ADDRS)))
    return b.build()


class TestDifferentialExecution:
    @given(program=straightline_programs(),
           model=st.sampled_from(MODELS),
           prefetch=st.booleans(), speculation=st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_detailed_sim_matches_interpreter(self, program, model,
                                              prefetch, speculation):
        expected = interpret(program)
        result = run_workload([program], model=model, prefetch=prefetch,
                              speculation=speculation, miss_latency=20,
                              max_cycles=200_000)
        machine = result.machine
        for reg in REGS:
            assert machine.reg(0, reg) == expected.reg(reg), reg
        for addr in ADDRS:
            assert machine.read_word(addr) == expected.word(addr), hex(addr)

    @given(program=branching_programs(),
           model=st.sampled_from(MODELS),
           spec=st.booleans())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_branching_programs_match_interpreter(self, program, model, spec):
        """Loops and (mis)predicted branches never change results."""
        expected = interpret(program)
        result = run_workload([program], model=model, prefetch=spec,
                              speculation=spec, miss_latency=20,
                              max_cycles=200_000)
        machine = result.machine
        for reg in ("r1", "r3", "r4", "r5"):
            assert machine.reg(0, reg) == expected.reg(reg), reg
        for addr in ADDRS:
            assert machine.read_word(addr) == expected.word(addr), hex(addr)
