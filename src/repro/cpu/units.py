"""Compute-side functional units and their reservation stations.

Each functional unit (ALU, branch unit) has a reservation station
(Tomasulo): decoded instructions wait there until their operands are
produced, then execute for the instruction's latency and write their
result into the reorder buffer.

A station is kept oldest-first.  Decode fills it in program order, so
keeping it so is an append, and the per-cycle scan for the oldest ready
entry is a walk from the front.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, List, Tuple

from ..sim.kernel import WAKE_NEVER
from .rob import Operand, ReorderBuffer, RobEntry


class RsEntry:
    __slots__ = ("seq", "entry", "operands")

    def __init__(self, seq: int, entry: RobEntry,
                 operands: List[Operand]) -> None:
        self.seq = seq
        self.entry = entry
        self.operands = operands


def _station_insert(rs: List[RsEntry], entry: RobEntry,
                    operands: List[Operand]) -> None:
    rs_entry = RsEntry(entry.seq, entry, operands)
    if not rs or rs[-1].seq < entry.seq:
        rs.append(rs_entry)
    else:  # dispatched out of program order (only ever by hand)
        insort(rs, rs_entry, key=lambda r: r.seq)


class AluUnit:
    """``alu_count`` pipelined integer units sharing one reservation station."""

    def __init__(self, rob: ReorderBuffer, rs_size: int, alu_count: int,
                 on_complete: Callable[[RobEntry, int], None]) -> None:
        self.rob = rob
        self.rs_size = rs_size
        self.alu_count = alu_count
        self.on_complete = on_complete
        self.reset()

    def reset(self) -> None:
        """Empty station, nothing executing."""
        self.rs: List[RsEntry] = []
        #: in flight: (finish cycle, entry, operand values read at issue)
        self._executing: List[Tuple[int, RobEntry, List[int]]] = []

    @property
    def rs_full(self) -> bool:
        return len(self.rs) >= self.rs_size

    def dispatch(self, entry: RobEntry, operands: List[Operand]) -> None:
        _station_insert(self.rs, entry, operands)

    def tick(self, cycle: int) -> bool:
        """Complete and issue; True when either happened."""
        moved = False
        if self._executing:
            still_running = []
            for ex in self._executing:
                if cycle >= ex[0]:
                    self._finish(ex[1], ex[2])
                    moved = True
                else:
                    still_running.append(ex)
            self._executing = still_running
        # issue (oldest-first) up to the number of free units
        free = self.alu_count - len(self._executing)
        if free <= 0 or not self.rs:
            return moved
        rob = self.rob
        issued: List[RsEntry] = []
        for rs_entry in self.rs:
            values: List[int] = []
            for op in rs_entry.operands:
                value = op.resolve(rob)
                if value is None:
                    break
                values.append(value)
            else:
                entry = rs_entry.entry
                self._executing.append(
                    (cycle + entry.instr.latency, entry, values))
                issued.append(rs_entry)
                free -= 1
                if not free:
                    break
        for rs_entry in issued:
            self.rs.remove(rs_entry)
        return moved or bool(issued)

    def _finish(self, entry: RobEntry, values: List[int]) -> None:
        instr = entry.instr
        b = values[1] if len(values) > 1 else (instr.imm or 0)
        self.on_complete(entry, instr.compute(values[0], b))

    def squash(self, seqs: set) -> None:
        self.rs = [r for r in self.rs if r.seq not in seqs]
        self._executing = [ex for ex in self._executing
                           if ex[1].seq not in seqs]

    def is_empty(self) -> bool:
        return not self.rs and not self._executing

    def next_completion(self) -> int:
        """Cycle of the earliest in-flight completion: the one change
        to a stalled core that comes from the clock, not from an event."""
        if self._executing:
            return min(ex[0] for ex in self._executing)
        return WAKE_NEVER


class BranchUnit:
    """Resolves conditional branches one per cycle."""

    def __init__(self, rob: ReorderBuffer, rs_size: int,
                 on_resolve: Callable[[RobEntry, bool], None]) -> None:
        self.rob = rob
        self.rs_size = rs_size
        self.on_resolve = on_resolve
        self.reset()

    def reset(self) -> None:
        """Empty station."""
        self.rs: List[RsEntry] = []

    @property
    def rs_full(self) -> bool:
        return len(self.rs) >= self.rs_size

    def dispatch(self, entry: RobEntry, operands: List[Operand]) -> None:
        _station_insert(self.rs, entry, operands)

    def tick(self, cycle: int) -> bool:
        """Resolve the oldest ready branch; True when one resolved."""
        rob = self.rob
        for idx, rs_entry in enumerate(self.rs):
            value = rs_entry.operands[0].resolve(rob)
            if value is None:
                continue
            del self.rs[idx]
            entry = rs_entry.entry
            self.on_resolve(entry, entry.instr.outcome(value))
            return True  # one resolution per cycle
        return False

    def squash(self, seqs: set) -> None:
        self.rs = [r for r in self.rs if r.seq not in seqs]

    def is_empty(self) -> bool:
        return not self.rs
