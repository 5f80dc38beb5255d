"""Unit tests for ROB/renaming, branch prediction, and functional units."""

import pytest

from repro.cpu.branch import BranchPredictor
from repro.cpu.rob import Operand, ReorderBuffer, RobEntry
from repro.cpu.units import AluUnit, BranchUnit
from repro.isa import Alu, Branch, Load, Nop
from repro.sim.errors import SimulationError


def alu_entry(seq, dst="r1", op="add", imm=1):
    return RobEntry(seq=seq, pc=seq, instr=Alu(op=op, dst=dst, src1="r0", imm=imm),
                    dst=dst)


class TestReorderBuffer:
    def test_allocate_and_rename(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0, dst="r1"))
        assert rob.rename_of("r1") == 0
        assert rob.rename_of("r2") is None

    def test_latest_writer_wins_rename(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0, dst="r1"))
        rob.allocate(alu_entry(1, dst="r1"))
        assert rob.rename_of("r1") == 1

    def test_value_of_requires_done(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0))
        assert rob.value_of(0) is None
        rob.mark_done(0, 42)
        assert rob.value_of(0) == 42

    def test_retire_in_order_and_clear_rename(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0, dst="r1"))
        rob.mark_done(0, 5)
        retired = rob.retire_head()
        assert retired.seq == 0
        assert rob.rename_of("r1") is None

    def test_retired_value_still_resolvable(self):
        """An operand captured before the producer retired must still
        resolve afterwards."""
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0, dst="r1"))
        rob.mark_done(0, 5)
        op = Operand(producer=0)
        rob.retire_head()
        assert op.resolve(rob) == 5

    def test_overflow_raises(self):
        rob = ReorderBuffer(1)
        rob.allocate(alu_entry(0))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.allocate(alu_entry(1))

    def test_squash_from_discards_younger_and_rebuilds_rename(self):
        rob = ReorderBuffer(8)
        rob.allocate(alu_entry(0, dst="r1"))
        rob.allocate(alu_entry(1, dst="r2"))
        rob.allocate(alu_entry(2, dst="r1"))
        discarded = rob.squash_from(1)
        assert discarded == [1, 2]
        assert rob.rename_of("r1") == 0  # entry 2's rename undone
        assert rob.rename_of("r2") is None

    def test_squash_from_beyond_tail_is_noop(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0))
        assert rob.squash_from(5) == []

    def test_mark_done_on_squashed_entry_is_ignored(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0))
        rob.squash_from(0)
        rob.mark_done(0, 1)  # must not raise
        assert rob.value_of(0) is None

    def test_head_and_empty(self):
        rob = ReorderBuffer(4)
        assert rob.head() is None and rob.empty
        rob.allocate(alu_entry(0))
        assert rob.head().seq == 0


class TestOperand:
    def test_immediate_operand(self):
        assert Operand(value=7).resolve(ReorderBuffer(2)) == 7

    def test_describe(self):
        assert Operand(value=7).describe() == "7"
        assert "tag#3" in Operand(producer=3).describe()

    def test_reads_its_producer_live(self):
        """A lock RMW is marked done twice (speculative read, then the
        atomic's own result) and a correction un-does it in between: an
        operand must never keep a value it read from a live entry."""
        rob = ReorderBuffer(4)
        producer = alu_entry(0)
        rob.allocate(producer)
        op = Operand(producer=0)
        assert op.resolve(rob) is None
        rob.mark_done(0, 10)
        assert op.resolve(rob) == 10
        rob.mark_done(0, 11)
        assert op.resolve(rob) == 11
        producer.done = False   # what SQUASH_AFTER does to the entry
        producer.value = None
        assert op.resolve(rob) is None

    def test_squashed_producer_never_resolves(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0))
        rob.allocate(alu_entry(1))
        seen = Operand(producer=1)
        unseen = Operand(producer=1)
        rob.mark_done(1, 5)
        assert seen.resolve(rob) == 5
        rob.squash_from(1)
        rob.mark_done(1, 7)     # a completion that was already in flight
        assert seen.resolve(rob) is None
        assert unseen.resolve(rob) is None

    def test_retired_producer_keeps_its_value(self):
        rob = ReorderBuffer(4)
        rob.allocate(alu_entry(0, dst="r1"))
        rob.allocate(alu_entry(1, dst="r1"))
        rob.mark_done(0, 5)
        seen = Operand(producer=0)
        unseen = Operand(producer=0)
        assert seen.resolve(rob) == 5
        rob.retire_head()
        rob.mark_done(1, 6)     # the register's next writer
        assert seen.resolve(rob) == 5
        assert unseen.resolve(rob) == 5


class TestBranchPredictor:
    def branch(self, predict=None):
        return Branch(cond="r1", target="t", predict_taken=predict)

    def test_static_hint_honoured(self):
        bp = BranchPredictor()
        assert bp.predict(0, self.branch(predict=True)) is True
        assert bp.predict(0, self.branch(predict=False)) is False

    def test_counters_learn_taken_branch(self):
        bp = BranchPredictor()
        b = self.branch()
        assert bp.predict(4, b) is False  # initial weakly-not-taken
        for _ in range(3):
            bp.update(4, b, taken=True, mispredicted=True)
        assert bp.predict(4, b) is True

    def test_counters_saturate_and_recover(self):
        bp = BranchPredictor()
        b = self.branch()
        for _ in range(10):
            bp.update(4, b, taken=True, mispredicted=False)
        bp.update(4, b, taken=False, mispredicted=True)
        assert bp.predict(4, b) is True  # one miss doesn't flip saturation

    def test_hinted_branches_do_not_pollute_table(self):
        bp = BranchPredictor()
        hinted = self.branch(predict=True)
        for _ in range(5):
            bp.update(4, hinted, taken=False, mispredicted=True)
        assert bp.predict(4, self.branch()) is False  # table untouched

    def test_misprediction_counter(self):
        bp = BranchPredictor()
        bp.update(0, self.branch(), taken=True, mispredicted=True)
        bp.update(0, self.branch(), taken=True, mispredicted=False)
        assert bp.mispredictions == 1


class TestAluUnit:
    def make(self, alu_count=1):
        rob = ReorderBuffer(16)
        done = []
        unit = AluUnit(rob, rs_size=8, alu_count=alu_count,
                       on_complete=lambda e, v: done.append((e.seq, v)))
        return rob, unit, done

    def test_executes_when_operands_ready(self):
        rob, unit, done = self.make()
        e = alu_entry(0, imm=5)
        rob.allocate(e)
        unit.dispatch(e, [Operand(value=2)])
        unit.tick(1)   # issue
        unit.tick(2)   # complete (latency 1)
        assert done == [(0, 7)]

    def test_waits_for_producer(self):
        rob, unit, done = self.make()
        producer = alu_entry(0)
        rob.allocate(producer)
        consumer = alu_entry(1, imm=1)
        rob.allocate(consumer)
        unit.dispatch(consumer, [Operand(producer=0)])
        unit.tick(1)
        assert done == []            # operand unavailable
        rob.mark_done(0, 10)
        unit.tick(2)
        unit.tick(3)
        assert done == [(1, 11)]

    def test_operands_are_read_at_issue(self):
        rob, unit, done = self.make()
        rob.allocate(alu_entry(0))
        consumer = alu_entry(1, imm=1)
        rob.allocate(consumer)
        operand = Operand(producer=0)
        unit.dispatch(consumer, [operand])
        rob.mark_done(0, 10)
        assert operand.resolve(rob) == 10   # looked at, not latched
        rob.mark_done(0, 11)
        unit.tick(1)
        unit.tick(2)
        assert done == [(1, 12)]

    def test_issues_oldest_first_whatever_the_dispatch_order(self):
        rob, unit, done = self.make(alu_count=1)
        entries = [alu_entry(seq, imm=seq) for seq in range(2)]
        for e in entries:
            rob.allocate(e)
        for e in reversed(entries):
            unit.dispatch(e, [Operand(value=0)])
        for cycle in (1, 2, 3):
            unit.tick(cycle)
        assert [seq for seq, _ in done] == [0, 1]

    def test_multi_cycle_latency(self):
        rob, unit, done = self.make()
        instr = Alu(op="mul", dst="r1", src1="r0", imm=3, latency=4)
        e = RobEntry(seq=0, pc=0, instr=instr, dst="r1")
        rob.allocate(e)
        unit.dispatch(e, [Operand(value=2)])
        unit.tick(1)
        for c in (2, 3, 4):
            unit.tick(c)
            assert done == []
        unit.tick(5)
        assert done == [(0, 6)]

    def test_structural_limit_one_alu(self):
        rob, unit, done = self.make(alu_count=1)
        for seq in range(2):
            e = alu_entry(seq, imm=seq)
            rob.allocate(e)
            unit.dispatch(e, [Operand(value=0)])
        unit.tick(1)                 # only one issues
        unit.tick(2)                 # first completes, second issues
        unit.tick(3)
        assert [seq for seq, _ in done] == [0, 1]

    def test_squash_clears_rs_and_pipeline(self):
        rob, unit, done = self.make()
        e = alu_entry(0)
        rob.allocate(e)
        unit.dispatch(e, [Operand(value=1)])
        unit.tick(1)                 # executing
        unit.squash({0})
        unit.tick(2)
        assert done == []
        assert unit.is_empty()


class TestBranchUnit:
    def test_resolves_one_per_cycle_oldest_first(self):
        rob = ReorderBuffer(8)
        resolved = []
        unit = BranchUnit(rob, rs_size=8,
                          on_resolve=lambda e, taken: resolved.append((e.seq, taken)))
        for seq, val in ((0, 1), (1, 0)):
            instr = Branch(cond="r1", target="t", when_nonzero=True)
            e = RobEntry(seq=seq, pc=seq, instr=instr, dst=None)
            rob.allocate(e)
            unit.dispatch(e, [Operand(value=val)])
        unit.tick(1)
        assert resolved == [(0, True)]
        unit.tick(2)
        assert resolved == [(0, True), (1, False)]
