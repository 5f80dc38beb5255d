"""Unit tests for the ISA: instructions, registers, programs, assembler."""

import pytest

from repro.isa import (
    Alu,
    Branch,
    Halt,
    Jump,
    Load,
    Nop,
    Program,
    ProgramBuilder,
    RegisterFile,
    Rmw,
    Store,
    assemble,
    destination_register,
    program_from_instructions,
    rmw_result,
    source_registers,
)
from repro.sim.errors import AssemblerError, IsaError


class TestRegisterFile:
    def test_registers_start_at_zero(self):
        rf = RegisterFile()
        assert rf.read("r5") == 0

    def test_write_and_read(self):
        rf = RegisterFile()
        rf.write("r3", 42)
        assert rf.read("r3") == 42

    def test_r0_is_hardwired_zero(self):
        rf = RegisterFile()
        rf.write("r0", 99)
        assert rf.read("r0") == 0

    def test_unknown_register_rejected(self):
        rf = RegisterFile()
        with pytest.raises(IsaError):
            rf.read("r99")
        with pytest.raises(IsaError):
            rf.write("x1", 0)

    def test_snapshot_roundtrip(self):
        rf = RegisterFile()
        rf.write("r7", 7)
        snap = rf.snapshot()
        rf.write("r7", 0)
        rf.load_snapshot(snap)
        assert rf.read("r7") == 7


class TestInstructionValidation:
    def test_load_validates_registers(self):
        with pytest.raises(IsaError):
            Load(dst="bogus", base="r0", offset=0)

    def test_rmw_rejects_unknown_op(self):
        with pytest.raises(IsaError):
            Rmw(dst="r1", base="r0", offset=0, op="cas")

    def test_alu_rejects_unknown_op(self):
        with pytest.raises(IsaError):
            Alu(op="div", dst="r1", src1="r2", imm=1)

    def test_alu_needs_exactly_one_of_src2_imm(self):
        with pytest.raises(IsaError):
            Alu(op="add", dst="r1", src1="r2")
        with pytest.raises(IsaError):
            Alu(op="add", dst="r1", src1="r2", src2="r3", imm=4)

    def test_alu_rejects_nonpositive_latency(self):
        with pytest.raises(IsaError):
            Alu(op="add", dst="r1", src1="r2", imm=1, latency=0)

    def test_branch_requires_target(self):
        with pytest.raises(IsaError):
            Branch(cond="r1", target="")

    def test_memory_classification(self):
        assert Load(dst="r1").is_memory and Load(dst="r1").is_load
        assert Store(src="r1").is_memory and Store(src="r1").is_store
        assert Rmw(dst="r1").is_memory and Rmw(dst="r1").is_rmw
        assert not Alu(op="mov", dst="r1", src1="r0", imm=0).is_memory

    def test_acquire_release_flags(self):
        assert Load(dst="r1", acquire=True).is_acquire
        assert Store(src="r1", release=True).is_release
        assert Rmw(dst="r1", acquire=True, release=True).is_acquire
        assert not Load(dst="r1").is_acquire


class TestInstructionSemantics:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 2, 3, 5),
            ("sub", 2, 3, -1),
            ("and", 6, 3, 2),
            ("or", 4, 1, 5),
            ("xor", 6, 3, 5),
            ("mul", 4, 5, 20),
            ("mov", 0, 9, 9),
            ("seq", 3, 3, 1),
            ("sne", 3, 3, 0),
            ("slt", 2, 3, 1),
            ("sgt", 2, 3, 0),
        ],
    )
    def test_alu_compute(self, op, a, b, expected):
        instr = Alu(op=op, dst="r1", src1="r2", imm=0)
        assert instr.compute(a, b) == expected

    def test_rmw_new_value(self):
        assert Rmw(dst="r1", op="ts").new_value(0, 7) == 1
        assert Rmw(dst="r1", op="swap").new_value(5, 7) == 7
        assert Rmw(dst="r1", op="add").new_value(5, 7) == 12

    def test_rmw_result_is_the_one_rmw_rule(self):
        # the memory side may carry no operand: it reads as 0
        assert rmw_result("ts", 5, None) == 1
        assert rmw_result("swap", 5, None) == 0
        assert rmw_result("add", 5, None) == 5
        with pytest.raises(IsaError):
            rmw_result("cas", 5, 1)

    def test_branch_outcome(self):
        b = Branch(cond="r1", target="t", when_nonzero=True)
        assert b.outcome(1) and not b.outcome(0)
        bz = Branch(cond="r1", target="t", when_nonzero=False)
        assert bz.outcome(0) and not bz.outcome(1)

    def test_dest_and_source_registers(self):
        assert destination_register(Load(dst="r1", base="r2")) == "r1"
        assert destination_register(Store(src="r1")) is None
        assert source_registers(Store(src="r3", base="r2")) == ("r2", "r3")
        assert source_registers(Branch(cond="r4", target="t")) == ("r4",)
        assert source_registers(Nop()) == ()


class TestProgram:
    def test_program_validates_branch_targets(self):
        with pytest.raises(IsaError):
            Program([Branch(cond="r1", target="nowhere")], labels={})

    def test_program_at_and_bounds(self):
        p = program_from_instructions([Nop()])
        assert isinstance(p.at(0), Nop)
        assert isinstance(p.at(1), Halt)  # appended by build()
        assert p.at(99) is None

    def test_label_resolution(self):
        p = (
            ProgramBuilder()
            .label("top")
            .nop()
            .jump("top")
            .build()
        )
        assert p.target_pc("top") == 0
        with pytest.raises(IsaError):
            p.target_pc("missing")

    def test_duplicate_label_rejected(self):
        b = ProgramBuilder().label("x")
        with pytest.raises(IsaError):
            b.label("x")

    def test_build_appends_halt_once(self):
        p1 = ProgramBuilder().nop().build()
        assert isinstance(p1.instructions[-1], Halt)
        p2 = ProgramBuilder().nop().halt().build()
        assert sum(isinstance(i, Halt) for i in p2.instructions) == 1

    def test_memory_instructions_filter(self):
        p = (
            ProgramBuilder()
            .load("r1", addr=0)
            .mov_imm("r2", 5)
            .store("r2", addr=4)
            .build()
        )
        mems = p.memory_instructions()
        assert len(mems) == 2

    def test_lock_macro_emits_rmw_spin(self):
        p = ProgramBuilder().lock(addr=0x80).build()
        kinds = [type(i).__name__ for i in p.instructions]
        assert "Rmw" in kinds and "Branch" in kinds
        rmw = next(i for i in p.instructions if isinstance(i, Rmw))
        assert rmw.acquire and rmw.op == "ts"
        br = next(i for i in p.instructions if isinstance(i, Branch))
        assert br.predict_taken is False  # predicted to fall through (lock succeeds)

    def test_unlock_macro_is_release_store(self):
        p = ProgramBuilder().unlock(addr=0x80).build()
        st = next(i for i in p.instructions if isinstance(i, Store))
        assert st.release

    def test_lock_optimistic_is_single_acquire_access(self):
        p = ProgramBuilder().lock_optimistic(addr=0x80).build()
        mems = p.memory_instructions()
        assert len(mems) == 1 and mems[0].is_acquire

    def test_describe_mentions_labels(self):
        p = ProgramBuilder().label("loop").nop().jump("loop").build()
        assert "loop:" in p.describe()


class TestAssembler:
    def test_assemble_basic_program(self):
        p = assemble(
            """
            start:
                movi r1, 5
                ld   r2, 0x100
                st   r1, 0x104
                halt
            """
        )
        assert len(p.instructions) == 4
        assert p.target_pc("start") == 0
        assert isinstance(p.instructions[1], Load)

    def test_acquire_release_mnemonics(self):
        p = assemble("ld.acq r1, 0x10\nst.rel r1, 0x10\nhalt")
        assert p.instructions[0].acquire
        assert p.instructions[1].release

    def test_base_offset_memref(self):
        p = assemble("ld r2, 8(r3)\nhalt")
        ld = p.instructions[0]
        assert ld.base == "r3" and ld.offset == 8

    def test_rmw_with_flags(self):
        p = assemble("rmw.ts r1, 0x20, acq\nhalt")
        rmw = p.instructions[0]
        assert rmw.op == "ts" and rmw.acquire and not rmw.release

    def test_branch_with_prediction_hint(self):
        p = assemble("top:\nbnez r1, top !taken\nhalt")
        br = p.instructions[0]
        assert br.predict_taken is False

    def test_comments_and_blank_lines_ignored(self):
        p = assemble("# comment\n\nnop  # trailing\nhalt")
        assert len(p.instructions) == 2

    def test_unknown_mnemonic_raises_with_line(self):
        with pytest.raises(AssemblerError) as exc:
            assemble("nop\nfrob r1, r2\n")
        assert exc.value.line_no == 2

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("ld r1\n")

    def test_bad_integer(self):
        with pytest.raises(AssemblerError):
            assemble("movi r1, banana\n")

    def test_undefined_branch_target_rejected(self):
        with pytest.raises(IsaError):
            assemble("bnez r1, nowhere\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\na:\nnop\n")

    def test_arith_immediates(self):
        p = assemble("addi r1, r2, 4\nhalt")
        alu = p.instructions[0]
        assert alu.op == "add" and alu.imm == 4

    def test_jump(self):
        p = assemble("x:\njmp x\n")
        assert isinstance(p.instructions[0], Jump)
