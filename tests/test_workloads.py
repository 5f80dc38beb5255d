"""Tests for workload generators and the reference interpreter."""

import pytest

from repro.consistency import RC, SC
from repro.isa import interpret
from repro.system import run_workload
from repro.workloads import (
    critical_section_segment,
    critical_section_workload,
    example1_segment,
    example2_segment,
    figure5_segment,
    pointer_chase_segment,
    producer_consumer_workload,
    random_segment,
    random_sharing_workload,
)


class TestInterpreter:
    def test_interprets_arithmetic(self):
        from repro.isa import ProgramBuilder
        p = (ProgramBuilder().mov_imm("r1", 4).alu("mul", "r2", "r1", imm=3)
             .build())
        res = interpret(p)
        assert res.reg("r2") == 12

    def test_interprets_memory_and_rmw(self):
        from repro.isa import ProgramBuilder
        p = (ProgramBuilder()
             .mov_imm("r1", 5)
             .store("r1", addr=0x10)
             .rmw("r2", addr=0x10, op="add", src="r1")
             .load("r3", addr=0x10)
             .build())
        res = interpret(p, initial_memory={})
        assert res.reg("r2") == 5
        assert res.reg("r3") == 10

    def test_interprets_loops(self):
        from repro.isa import assemble
        p = assemble("""
            movi r1, 0
            movi r2, 5
        loop:
            add r1, r1, r2
            subi r2, r2, 1
            bnez r2, loop
            halt
        """)
        assert interpret(p).reg("r1") == 15

    def test_infinite_loop_detected(self):
        from repro.isa import assemble
        from repro.sim.errors import SimulationError
        p = assemble("x:\njmp x\n")
        with pytest.raises(SimulationError):
            interpret(p, max_steps=100)

    def test_initial_memory_respected(self):
        from repro.isa import ProgramBuilder
        p = ProgramBuilder().load("r1", addr=0x40).build()
        assert interpret(p, initial_memory={0x40: 9}).reg("r1") == 9


class TestSegmentGenerators:
    def test_critical_section_segment_shape(self):
        seg = critical_section_segment(reads=3, writes=2)
        assert seg[0].klass.acquire
        assert seg[-1].klass.release
        assert sum(1 for s in seg if s.klass.is_load and not s.klass.acquire) == 3

    def test_dependent_reads_form_chain(self):
        seg = critical_section_segment(reads=3, dependent_reads=2)
        reads = [s for s in seg if s.klass.is_load and not s.klass.acquire]
        assert reads[1].deps == (reads[0].label,)
        assert reads[2].deps == (reads[1].label,)

    def test_random_segment_reproducible(self):
        a = random_segment(length=12, rng=42)
        b = random_segment(length=12, rng=42)
        assert [(s.label, s.hit) for s in a] == [(s.label, s.hit) for s in b]

    def test_random_segment_sync_period(self):
        seg = random_segment(length=8, sync_period=4, rng=0)
        acquires = [s for s in seg if s.klass.acquire]
        releases = [s for s in seg if s.klass.release]
        assert len(acquires) == 2 and len(releases) == 2

    def test_random_segment_deps_point_backwards(self):
        seg = random_segment(length=30, dependence_fraction=0.8, rng=3)
        seen = set()
        for s in seg:
            for d in s.deps:
                assert d in seen
            seen.add(s.label)

    def test_pointer_chase_is_a_chain(self):
        seg = pointer_chase_segment(length=4)
        for i, s in enumerate(seg):
            assert s.deps == ((seg[i - 1].label,) if i else ())

    def test_segments_schedule_cleanly(self):
        from repro.core import AnalyticalTimingModel
        engine = AnalyticalTimingModel()
        for seg in (critical_section_segment(), random_segment(rng=5),
                    pointer_chase_segment(),
                    example1_segment(), example2_segment(), figure5_segment()):
            res = engine.schedule(seg, SC, prefetch=True, speculation=True)
            assert res.total_cycles > 0


class TestMultiprocessorWorkloads:
    def test_critical_section_expectations_match_interpreter(self):
        wl = critical_section_workload(num_cpus=1, iterations=2,
                                       shared_counters=2, private=True)
        res = interpret(wl.programs[0], initial_memory=wl.initial_memory)
        for addr, expected in wl.expectations:
            assert res.word(addr) == expected

    def test_critical_section_shared_counts_both_cpus(self):
        wl = critical_section_workload(num_cpus=3, iterations=2)
        assert wl.expectations[0][1] == 6

    def test_private_workload_disjoint_addresses(self):
        wl = critical_section_workload(num_cpus=2, iterations=1, private=True)
        addrs = [a for a, _ in wl.expectations]
        assert len(addrs) == len(set(addrs)) == 2

    def test_producer_consumer_runs_correctly(self):
        wl = producer_consumer_workload(values=(3, 4), chain=2)
        result = run_workload(wl.programs, model=RC, speculation=True,
                              prefetch=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=500_000)
        for addr, expected in wl.expectations:
            assert result.machine.read_word(addr) == expected

    def test_producer_consumer_rejects_short_chain(self):
        with pytest.raises(ValueError):
            producer_consumer_workload(chain=1)

    def test_random_sharing_workload_runs(self):
        wl = random_sharing_workload(num_cpus=2, ops_per_cpu=8, rng=1)
        result = run_workload(wl.programs, model=SC, max_cycles=500_000)
        assert result.cycles > 0
