"""Decode once: the per-program decode table and what reads it."""

import gc
import pickle
import weakref

from repro.consistency.access_class import (
    ACQUIRE_RMW,
    PLAIN_LOAD,
    PLAIN_STORE,
    RELEASE,
)
from repro.consistency.models import SC
from repro.cpu import decode
from repro.cpu.decode import decode_table
from repro.isa import Instruction, ProgramBuilder
from repro.obs.accounting import StallCause
from repro.system import run_workload
from repro.workloads import critical_section_workload


def sample_program():
    return (ProgramBuilder()
            .label("top")
            .rmw("r1", addr=64, op="ts", acquire=True, tag="lock")
            .branch_nonzero("r1", "top", predict_taken=False)
            .load("r2", addr=128, tag="ld")
            .add_imm("r2", "r2", 1)
            .store("r2", addr=128, release=True, tag="unlock")
            .software_prefetch(addr=256, exclusive=True)
            .jump("end")
            .nop()
            .label("end")
            .halt()
            .build())


class TestDecodeTable:
    def test_one_row_per_instruction_in_pc_order(self):
        program = sample_program()
        rows = decode_table(program)
        assert [row.instr for row in rows] == program.instructions
        assert [row.kind for row in rows] == [
            decode.RMW, decode.BRANCH, decode.LOAD, decode.ALU, decode.STORE,
            decode.SW_PREFETCH, decode.JUMP, decode.NOP, decode.HALT]

    def test_rows_hold_what_the_ladder_used_to_derive(self):
        rmw, branch, load, alu, store, swpf, jump, nop, halt = (
            decode_table(sample_program()))
        assert [r.dst for r in (rmw, branch, load, alu, store, swpf, halt)] \
            == ["r1", None, "r2", "r2", None, None, None]
        assert (branch.target_pc, jump.target_pc, load.target_pc) == (0, 8, None)
        assert (rmw.klass, load.klass, store.klass, swpf.klass, alu.klass) \
            == (ACQUIRE_RMW, PLAIN_LOAD, RELEASE, PLAIN_STORE, None)
        assert (rmw.tag, load.tag, store.tag, alu.tag) \
            == ("lock", "ld", "unlock", None)
        assert [r.signals_store for r in (rmw, load, store, swpf)] \
            == [True, False, True, False]
        assert [r.is_memory for r in (rmw, load, store, swpf, alu)] \
            == [True, True, True, False, False]
        assert [r.is_halt for r in (nop, halt)] == [False, True]
        assert [r.head_blame for r in (rmw, load, store, swpf, alu, halt)] \
            == [StallCause.ACQUIRE, StallCause.READ, StallCause.WRITE,
                None, None, None]

    def test_memoized_per_program_object_and_released_with_it(self):
        program = sample_program()
        assert decode_table(program) is decode_table(program)
        assert decode_table(sample_program()) is not decode_table(program)
        alive = weakref.ref(program)
        del program
        gc.collect()
        assert alive() is None   # the memo does not keep a program alive

    def test_nothing_is_attached_to_the_program(self):
        program = sample_program()
        pickled = pickle.dumps(program)
        decode_table(program)
        assert pickle.dumps(program) == pickled


def test_an_instruction_is_described_once_not_once_per_execution(monkeypatch):
    """The loop bodies of a critical section execute their memory
    instructions many times over; what decode derives from one is
    derived once.  ``describe`` stands for the whole row: it was called
    for every dynamic memory op to build its trace tag."""
    wl = critical_section_workload(2, iterations=5, shared_counters=3,
                                   private=True)
    static = sum(len(program) for program in wl.programs)
    calls = []
    describe = Instruction.describe

    def counting(self):
        calls.append(self)
        return describe(self)

    monkeypatch.setattr(Instruction, "describe", counting)
    result = run_workload(wl.programs, model=SC, prefetch=True,
                          speculation=True, miss_latency=100,
                          initial_memory=wl.initial_memory)
    retired = sum(v for name, v in result.stats.counters().items()
                  if name.endswith("/instructions_retired"))
    assert retired > 4 * static      # the loops did go round
    assert len(calls) <= static
