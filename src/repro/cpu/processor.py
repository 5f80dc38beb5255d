"""The dynamically scheduled processor (paper, Figure 3).

A Johnson-style out-of-order core: instructions are fetched and decoded
in program order, renamed through the reorder buffer, dispatched to
per-unit reservation stations, executed out of order, and retired in
order.  Conditional branches are predicted and executed past; the
rollback machinery that repairs mispredictions is reused verbatim for
speculative-load corrections — which is the paper's central
implementation argument (Section 4.2: "the correction mechanism for the
branch prediction machinery can easily be extended to handle correction
for speculative load accesses").
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa.program import Program
from ..isa.registers import RegisterFile
from ..memory.cache import LockupFreeCache
from ..obs.accounting import CycleAccountant
from ..sim.kernel import Component, Simulator
from ..sim.stats import Counter
from ..sim.trace import NullTraceRecorder, TraceRecorder
from .branch import BranchPredictor
from .config import ProcessorConfig
from .decode import ALU, BRANCH, HALT, JUMP, TO_LSU, Decoded, decode_program
from .lsu import LoadStoreUnit
from .rob import Operand, ReorderBuffer, RobEntry
from .units import AluUnit, BranchUnit


def _reason_slug(reason: str) -> str:
    """A squash reason as a stable stat-name component."""
    return reason.replace(" ", "_").replace("/", "_")


class Processor(Component):
    """One core executing one program against its coherent cache."""

    def __init__(
        self,
        cpu_id: int,
        sim: Simulator,
        program: Program,
        cache: LockupFreeCache,
        config: Optional[ProcessorConfig] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.sim = sim
        self.program = program
        self._rows = decode_program(program)
        self.config = config or ProcessorConfig()
        self.trace = trace or NullTraceRecorder()
        self.name = f"cpu{cpu_id}"

        self.regfile = RegisterFile()
        self.rob = ReorderBuffer(self.config.rob_size)
        self.predictor = BranchPredictor()
        self.alu_unit = AluUnit(self.rob, self.config.alu_rs_size,
                                self.config.alu_count, self._on_alu_complete)
        self.branch_unit = BranchUnit(self.rob, self.config.alu_rs_size,
                                      self._on_branch_resolve)
        self.lsu = LoadStoreUnit(cpu_id, sim, cache, self.rob, self.config,
                                 trace=self.trace)
        self.lsu.owner = self
        self.lsu.request_squash = self.squash_from

        self.pc = 0
        self._next_seq = 0
        self.fetch_halted = False   # a Halt has been fetched (maybe speculatively)
        self.finished = False       # the Halt has retired: program truly done
        #: what the last tick bumped if it moved nothing, else None
        self._idle_counters: Optional[tuple] = None

        s = sim.stats
        self.stat_retired = s.counter(f"{self.name}/instructions_retired")
        self.stat_decoded = s.counter(f"{self.name}/instructions_decoded")
        self.stat_squashed = s.counter(f"{self.name}/instructions_squashed")
        self.stat_squashes = s.counter(f"{self.name}/squash_events")
        self.stat_mispredicts = s.counter(f"{self.name}/branch_mispredicts")
        self.stat_squash_depth = s.histogram(f"{self.name}/squash_depth")
        #: squash_reason/<slug> counters, each created at its first squash
        self._stat_squash_reason: Dict[str, Counter] = {}
        self.accountant = CycleAccountant(s, self.name)

    # ------------------------------------------------------------------
    # Per-cycle pipeline (reverse dataflow order)
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self.finished:
            # the program has retired, but stores already signalled may
            # still be draining from the store buffer (RC/WC/PC)
            moved = self.lsu.tick(cycle)
            blame = self.accountant.account_drained(self.lsu.is_empty())
        else:
            retired_before = self.stat_retired.value
            moved = self._retire(cycle)
            moved |= self.lsu.tick(cycle)
            moved |= self.branch_unit.tick(cycle)
            moved |= self.alu_unit.tick(cycle)
            moved |= self._decode(cycle)
            blame = self.accountant.account(
                retired=self.stat_retired.value - retired_before,
                head=self.rob.head(),
                rob_full=self.rob.full,
            )
        self._idle_counters = None if moved else (blame, *self.lsu.stalled)

    def is_quiescent(self) -> bool:
        return self.finished and self.lsu.is_empty()

    # ------------------------------------------------------------------
    # Sleep protocol (the kernel ticks only the cores that are due)
    # ------------------------------------------------------------------
    def next_wake(self, cycle: int) -> int:
        """Earliest future cycle this core's tick would change state.

        Observed, not predicted: every stage of :meth:`tick` reports
        whether it moved anything, and a tick in which none did found
        the core stalled on state only a delivery to this core can
        change — each of which wakes it, see
        :meth:`LoadStoreUnit._waking` — so the next one would repeat
        it, bumping the same counters (:meth:`skip_cycles` replays
        them), until the one clock-driven change left, an in-flight ALU
        completion.  After a tick that moved, keep ticking.
        """
        if self._idle_counters is None:
            return cycle + 1
        return self.alu_unit.next_completion()

    def skip_cycles(self, skipped: int) -> None:
        for counter in self._idle_counters:
            counter.inc(skipped)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _retire(self, cycle: int) -> bool:
        """Retire up to ``width`` instructions; True when one retired or
        a store head was signalled (which happens exactly once)."""
        moved = False
        rob = self.rob
        for _ in range(self.config.width):
            head = rob.head()
            if head is None:
                break
            row = head.row
            if row.signals_store and not head.signalled:
                head.signalled = True
                self.lsu.signal_store(head.seq)
                moved = True
            if row.is_memory:
                if not self.lsu.may_retire(head):
                    break
            elif not head.done:
                break
            rob.retire_head()
            moved = True
            self.stat_retired.inc()
            if self.trace.enabled:
                instr = head.instr
                acq = getattr(instr, "is_acquire", False)
                rel = getattr(instr, "is_release", False)
                sync = {(True, True): "full", (True, False): "acquire",
                        (False, True): "release"}.get((acq, rel))
                extra = {"sync": sync} if sync else {}
                self.trace.record(
                    cycle, self.name, "retire",
                    seq=head.seq, pc=head.pc,
                    op=type(instr).__name__.lower(),
                    bound=head.value is not None, **extra)
            if head.dst is not None and head.value is not None:
                self.regfile.write(head.dst, head.value)
            if row.is_halt:
                self.finished = True
                if self.trace.enabled:
                    self.trace.record(cycle, self.name, "finished")
                break
        return moved

    # ------------------------------------------------------------------
    # Decode / rename / dispatch
    # ------------------------------------------------------------------
    def _operand(self, reg: str) -> Operand:
        if reg == "r0":
            return Operand(value=0)
        producer = self.rob.producer_of(reg)
        if producer is None:
            return Operand(value=self.regfile.read(reg))
        if producer.done and producer.value is not None:
            return Operand(value=producer.value)
        return Operand(producer=producer.seq)

    def _decode(self, cycle: int) -> bool:
        """Dispatch up to ``width`` instructions; True when one was
        decoded (a Halt too, though :meth:`_dispatch` returns False for
        it) or ``fetch_halted`` was latched."""
        if self.fetch_halted:
            return False
        first_seq = self._next_seq
        rows = self._rows
        # only a dispatch fills the window or halts fetch in here, and a
        # dispatch that halts fetch ends the loop
        room = self.rob.size - len(self.rob)
        for _ in range(min(self.config.width, room)):
            if not 0 <= self.pc < len(rows):
                self.fetch_halted = True
                return True
            if not self._dispatch(rows[self.pc]):
                break
        return self._next_seq != first_seq

    def _dispatch(self, row: Decoded) -> bool:
        """Rename and dispatch the instruction at ``pc``, decoded as
        ``row``; False when a structural stall occurs."""
        seq = self._next_seq
        pc = self.pc
        kind = row.kind
        instr = row.instr

        if kind == ALU:
            if self.alu_unit.rs_full:
                return False
            operands = [self._operand(instr.src1)]
            if instr.src2 is not None:
                operands.append(self._operand(instr.src2))
            entry = RobEntry(seq, pc, instr, row.dst, row=row)
            self.rob.allocate(entry)
            self.alu_unit.dispatch(entry, operands)
            self._advance(seq, pc + 1)
            return True

        if kind in TO_LSU:
            if self.lsu.rs_full:
                return False
            base = self._operand(instr.base)
            data = (self._operand(instr.src) if row.signals_store else None)
            entry = RobEntry(seq, pc, instr, row.dst, row=row)
            self.rob.allocate(entry)
            self.lsu.dispatch(entry, base, data)
            self._advance(seq, pc + 1)
            return True

        if kind == BRANCH:
            if self.branch_unit.rs_full:
                return False
            operand = self._operand(instr.cond)
            taken = self.predictor.predict(pc, instr)
            next_pc = row.target_pc if taken else pc + 1
            entry = RobEntry(seq, pc, instr, None, predicted_taken=taken,
                             predicted_next_pc=next_pc, row=row)
            self.rob.allocate(entry)
            self.branch_unit.dispatch(entry, [operand])
            self._advance(seq, next_pc)
            return True

        # jump, nop, halt: nothing to execute, done at decode
        self.rob.allocate(RobEntry(seq, pc, instr, None, done=True, row=row))
        if kind == JUMP:
            self._advance(seq, row.target_pc)
            return True
        self._advance(seq, pc + 1)
        if kind == HALT:
            self.fetch_halted = True
            return False
        return True

    def _advance(self, seq: int, next_pc: int) -> None:
        self._next_seq = seq + 1
        self.pc = next_pc
        self.stat_decoded.inc()

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _on_alu_complete(self, entry: RobEntry, value: int) -> None:
        self.rob.mark_done(entry.seq, value)

    def _on_branch_resolve(self, entry: RobEntry, taken: bool) -> None:
        actual_next = entry.row.target_pc if taken else entry.pc + 1
        entry.resolved_next_pc = actual_next
        self.rob.mark_done(entry.seq, None)
        mispredicted = actual_next != entry.predicted_next_pc
        self.predictor.update(entry.pc, entry.instr, taken, mispredicted)
        if mispredicted:
            self.stat_mispredicts.inc()
            if self.trace.enabled:
                self.trace.record(self.sim.cycle, self.name, "mispredict",
                                  pc=entry.pc, taken=taken)
            self.squash_from(entry.seq + 1, actual_next, "branch mispredict")

    # ------------------------------------------------------------------
    # Rollback — shared by branches and speculative loads
    # ------------------------------------------------------------------
    def squash_from(self, seq: int, refetch_pc: int, reason: str) -> None:
        """Discard ROB entry ``seq`` and everything younger, clear all
        buffers of the discarded work, and restart fetch at
        ``refetch_pc`` (Section 4.2's correction mechanism)."""
        discarded = self.rob.squash_from(seq)
        if not discarded and self.pc == refetch_pc:
            return
        squashed = set(discarded)
        self.alu_unit.squash(squashed)
        self.branch_unit.squash(squashed)
        self.lsu.squash(discarded)
        self.pc = refetch_pc
        self.fetch_halted = False
        self.finished = False
        self.stat_squashes.inc()
        self.stat_squashed.inc(len(squashed))
        self.stat_squash_depth.add(len(squashed))
        counter = self._stat_squash_reason.get(reason)
        if counter is None:
            counter = self._stat_squash_reason[reason] = self.sim.stats.counter(
                f"{self.name}/squash_reason/{_reason_slug(reason)}")
        counter.inc()
        self.accountant.note_squash()
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "squash",
                              count=len(squashed), from_seq=seq,
                              refetch_pc=refetch_pc, reason=reason)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finished

    def snapshot(self) -> Dict[str, object]:
        """Buffer contents for Figure 5-style traces."""
        out: Dict[str, object] = {
            "rob": [e.describe() for e in self.rob.entries()],
            "pc": self.pc,
        }
        out.update(self.lsu.snapshot())
        return out
