"""Compute-side functional units and their reservation stations.

Each functional unit (ALU, branch unit) has a reservation station
(Tomasulo): decoded instructions wait there until their operands are
produced, then execute for the instruction's latency and write their
result into the reorder buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..isa.instructions import Alu, Branch
from ..sim.kernel import WAKE_NEVER
from .rob import Operand, ReorderBuffer, RobEntry


@dataclass
class RsEntry:
    seq: int
    entry: RobEntry
    operands: List[Operand]


@dataclass
class _Executing:
    seq: int
    entry: RobEntry
    values: List[int]
    finish_cycle: int


class AluUnit:
    """``alu_count`` pipelined integer units sharing one reservation station."""

    def __init__(self, rob: ReorderBuffer, rs_size: int, alu_count: int,
                 on_complete: Callable[[RobEntry, int], None]) -> None:
        self.rob = rob
        self.rs_size = rs_size
        self.alu_count = alu_count
        self.on_complete = on_complete
        self.rs: List[RsEntry] = []
        self._executing: List[_Executing] = []

    @property
    def rs_full(self) -> bool:
        return len(self.rs) >= self.rs_size

    def dispatch(self, entry: RobEntry, operands: List[Operand]) -> None:
        self.rs.append(RsEntry(entry.seq, entry, operands))

    def tick(self, cycle: int) -> bool:
        """Complete and issue; True when either happened."""
        # complete
        in_flight = len(self._executing)
        still_running: List[_Executing] = []
        for ex in self._executing:
            if cycle >= ex.finish_cycle:
                self._finish(ex)
            else:
                still_running.append(ex)
        self._executing = still_running
        moved = len(still_running) != in_flight
        # issue (oldest-first) up to the number of free units
        free = self.alu_count - len(self._executing)
        if free <= 0:
            return moved
        issued: List[RsEntry] = []
        for rs_entry in sorted(self.rs, key=lambda r: r.seq):
            if free == 0:
                break
            values = [op.resolve(self.rob) for op in rs_entry.operands]
            if any(v is None for v in values):
                continue
            instr = rs_entry.entry.instr
            latency = instr.latency if isinstance(instr, Alu) else 1
            self._executing.append(
                _Executing(rs_entry.seq, rs_entry.entry, values, cycle + latency)
            )
            issued.append(rs_entry)
            free -= 1
        for rs_entry in issued:
            self.rs.remove(rs_entry)
        return moved or bool(issued)

    def _finish(self, ex: _Executing) -> None:
        instr = ex.entry.instr
        if isinstance(instr, Alu):
            a = ex.values[0]
            b = ex.values[1] if len(ex.values) > 1 else (instr.imm or 0)
            result = instr.compute(a, b)
        else:  # Nop-like
            result = 0
        self.on_complete(ex.entry, result)

    def squash(self, seqs: set) -> None:
        self.rs = [r for r in self.rs if r.seq not in seqs]
        self._executing = [e for e in self._executing if e.seq not in seqs]

    def is_empty(self) -> bool:
        return not self.rs and not self._executing

    def next_completion(self) -> int:
        """Cycle of the earliest in-flight completion: the one change
        to a stalled core that comes from the clock, not from an event."""
        if self._executing:
            return min(ex.finish_cycle for ex in self._executing)
        return WAKE_NEVER


class BranchUnit:
    """Resolves conditional branches one per cycle."""

    def __init__(self, rob: ReorderBuffer, rs_size: int,
                 on_resolve: Callable[[RobEntry, bool], None]) -> None:
        self.rob = rob
        self.rs_size = rs_size
        self.on_resolve = on_resolve
        self.rs: List[RsEntry] = []

    @property
    def rs_full(self) -> bool:
        return len(self.rs) >= self.rs_size

    def dispatch(self, entry: RobEntry, operands: List[Operand]) -> None:
        self.rs.append(RsEntry(entry.seq, entry, operands))

    def tick(self, cycle: int) -> bool:
        """Resolve the oldest ready branch; True when one resolved."""
        for rs_entry in sorted(self.rs, key=lambda r: r.seq):
            value = rs_entry.operands[0].resolve(self.rob)
            if value is None:
                continue
            self.rs.remove(rs_entry)
            instr = rs_entry.entry.instr
            assert isinstance(instr, Branch)
            self.on_resolve(rs_entry.entry, instr.outcome(value))
            return True  # one resolution per cycle
        return False

    def squash(self, seqs: set) -> None:
        self.rs = [r for r in self.rs if r.seq not in seqs]

    def is_empty(self) -> bool:
        return not self.rs
