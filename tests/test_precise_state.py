"""Precise-interrupt verification.

Section 4.2 leans on the reorder buffer providing precise interrupts:
at any rollback point, committed architectural state is exactly the
sequential-execution state at that instruction boundary, so execution
can restart transparently.  These tests weaponize that property: we
inject squashes at arbitrary cycles (re-fetching from the squashed
instruction, exactly like an interrupt-return) and require the final
architectural results to be bit-identical to an undisturbed run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import RC, SC
from repro.isa import assemble, interpret
from repro.memory import LatencyConfig
from repro.system.machine import MachineConfig, Multiprocessor

PROGRAM = """
    movi r1, 3
    st   r1, 0x10
    ld   r2, 0x10
    addi r2, r2, 10
    st   r2, 0x14
    ld   r3, 0x14
    rmw.add r4, 0x10, r1
    ld   r5, 0x10
    st   r5, 0x20
    ld   r6, 0x20
    halt
"""


def run_with_injected_squash(squash_cycle, model=SC, spec=True):
    program = assemble(PROGRAM)
    config = MachineConfig(
        model=model, enable_speculation=spec, enable_prefetch=spec,
        latencies=LatencyConfig.from_miss_latency(50),
    )
    machine = Multiprocessor([program], config)
    proc = machine.processors[0]
    injected = {"done": False}

    def inject():
        injected["done"] = True
        # squash the youngest *squashable* instruction: anything not yet
        # signalled to memory (signalled stores are committed)
        entries = proc.rob.entries()
        candidates = [e for e in entries if not e.signalled]
        if not candidates:
            return
        victim = candidates[-1]
        proc.squash_from(victim.seq, victim.pc, "injected interrupt")
        # the core's state changed outside its own tick
        machine.sim.wake(proc)

    # first thing in cycle N+1 is the end of cycle N
    machine.sim.schedule_at(squash_cycle + 1, inject)
    machine.run(max_cycles=200_000)
    return machine, injected["done"]


class TestInjectedSquashTransparency:
    @pytest.mark.parametrize("cycle", [2, 3, 5, 8, 13, 21, 40, 55, 70, 90])
    @pytest.mark.parametrize("model", [SC, RC], ids=lambda m: m.name)
    def test_state_identical_after_injection(self, cycle, model):
        expected = interpret(assemble(PROGRAM))
        machine, fired = run_with_injected_squash(cycle, model=model)
        for reg in ("r2", "r3", "r4", "r5", "r6"):
            assert machine.reg(0, reg) == expected.reg(reg), (cycle, reg)
        for addr in (0x10, 0x14, 0x20):
            assert machine.read_word(addr) == expected.word(addr)

    @given(cycle=st.integers(min_value=1, max_value=120),
           spec=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_any_cycle_any_technique(self, cycle, spec):
        expected = interpret(assemble(PROGRAM))
        machine, _ = run_with_injected_squash(cycle, model=SC, spec=spec)
        assert machine.reg(0, "r6") == expected.reg("r6")
        assert machine.read_word(0x20) == expected.word(0x20)

    def test_injection_actually_fires_sometimes(self):
        fired_any = False
        for cycle in (2, 5, 10, 20):
            _, fired = run_with_injected_squash(cycle)
            fired_any = fired_any or fired
        assert fired_any, "the injection never found a squashable entry"
