"""Compute-side functional units and their reservation stations.

Each functional unit (ALU, branch unit) has a reservation station
(Tomasulo): decoded instructions wait there until their operands are
produced, then execute for the instruction's latency and write their
result into the reorder buffer.

Nothing scans a station.  A station entry counts the operands it still
waits for and registers on each producer's ``waiters``; the reorder
buffer's :meth:`~repro.cpu.rob.ReorderBuffer.mark_done` counts them
down and queues each entry that reaches zero on its unit's ``ready``
list, oldest first — so issue is a pop from the front of that list.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, List, Set, cast

from ..sim.kernel import WAKE_NEVER
from ..sim.state import FIXED, VALUE, Cycle, Records, Ref, Value, reset
from .rob import Operand, RobEntry


class RsEntry:
    """A reorder-buffer entry waiting in a station: its number is its
    entry's."""

    __slots__ = ("entry", "operands", "pending", "ready", "dead")

    #: ``ready`` is its unit's list, the same all run
    STATE = dict(entry=Ref(), operands=Records(Operand), pending=VALUE,
                 ready=FIXED, dead=VALUE)

    def __init__(self, entry: RobEntry, operands: List[Operand],
                 ready: List["RsEntry"]) -> None:
        self.entry = entry
        self.operands = operands
        #: the unit's ready list, which this entry joins when
        #: ``pending`` reaches zero
        self.ready = ready
        #: squashed: never to join ``ready``
        self.dead = False
        pending = 0
        for op in operands:
            producer = op.producer
            if producer is not None and not producer.done:
                pending += 1
                producer.waiters.append(self)
        #: operands whose producer has not marked itself done
        self.pending = pending

    def producer_done(self) -> None:
        """A producer this entry waits on is done: join the ready list
        if it was the last one and the entry is still live."""
        self.pending -= 1
        if not self.pending and not self.dead:
            _enqueue(self.ready, self)


def _enqueue(queue: List[RsEntry], item: RsEntry) -> None:
    """Put ``item`` into ``queue``, which is kept oldest-first: an
    append, unless something younger was queued before it."""
    if queue and queue[-1].entry.seq > item.entry.seq:
        insort(queue, item, key=_seq)
    else:
        queue.append(item)


def _seq(item: RsEntry) -> int:
    return item.entry.seq


class Executing:
    """An entry in flight in an ALU: when it finishes, and the operand
    values it read at issue."""

    __slots__ = ("finish", "entry", "values")

    STATE = dict(finish=Cycle(of="entry"), entry=Ref(),
                 values=Value(copy=tuple))

    def __init__(self, finish: int, entry: RobEntry,
                 values: List[int]) -> None:
        self.finish = finish
        self.entry = entry
        self.values = values


class _Station:
    """A reservation station: the entries not yet issued, by number,
    and those of them whose operands are all produced, oldest first.
    ``ready`` is aliased by every waiting entry, so within a run it is
    mutated in place, never rebound."""

    STATE = dict(rs_size=FIXED, rs=Records(RsEntry, dict, by_seq=True),
                 ready=Records(Ref("entry.seq"), list))

    def __init__(self, rs_size: int) -> None:
        self.rs_size = rs_size

    @property
    def rs_full(self) -> bool:
        return len(self.rs) >= self.rs_size

    def dispatch(self, entry: RobEntry, operands: List[Operand]) -> None:
        rs_entry = RsEntry(entry, operands, self.ready)
        self.rs[entry.seq] = rs_entry
        if not rs_entry.pending:
            _enqueue(self.ready, rs_entry)

    def _issue(self, rs_entry: RsEntry) -> List[int]:
        """Take the ready ``rs_entry`` out of the station; its operand
        values, read now (every producer is done: none is None)."""
        del self.rs[rs_entry.entry.seq]
        return cast(List[int], [op.resolve() for op in rs_entry.operands])

    def squash(self, seqs: Set[int]) -> None:
        rs = self.rs
        for seq in seqs:
            rs_entry = rs.pop(seq, None)
            if rs_entry is not None:
                rs_entry.dead = True
        ready = self.ready
        ready[:] = [r for r in ready if not r.dead]


class AluUnit(_Station):
    """``alu_count`` pipelined integer units sharing one reservation station."""

    STATE = dict(_Station.STATE, alu_count=FIXED, on_complete=FIXED,
                 _executing=Records(Executing, list))

    def __init__(self, rs_size: int, alu_count: int,
                 on_complete: Callable[[RobEntry, int], None]) -> None:
        super().__init__(rs_size)
        self.alu_count = alu_count
        self.on_complete = on_complete
        reset(self)

    def tick(self, cycle: int) -> bool:
        """Complete and issue; True when either happened."""
        moved = bool(self._executing) and self._complete(cycle)
        return self._issue_ready(cycle) or moved

    def _complete(self, cycle: int) -> bool:
        moved = False
        still_running = []
        for ex in self._executing:
            if cycle >= ex.finish:
                self._finish(ex.entry, ex.values)
                moved = True
            else:
                still_running.append(ex)
        self._executing = still_running
        return moved

    def _finish(self, entry: RobEntry, values: List[int]) -> None:
        instr = entry.row.instr
        b = values[1] if len(values) > 1 else (instr.imm or 0)
        self.on_complete(entry, instr.compute(values[0], b))

    def _issue_ready(self, cycle: int) -> bool:
        """Issue the oldest ready entries, up to the number of free
        units; True when one issued."""
        ready = self.ready
        free = self.alu_count - len(self._executing)
        if free <= 0 or not ready:
            return False
        issued = ready[:free]
        del ready[:free]
        for rs_entry in issued:
            entry = rs_entry.entry
            self._executing.append(Executing(
                cycle + entry.row.instr.latency, entry, self._issue(rs_entry)))
        return True

    def shift(self, n: int, step: int) -> None:
        """Slide the unit ``n`` instructions down a run of one
        self-dependent add, as :meth:`ReorderBuffer.shift` slides the
        window: the waiting entries are renumbered, and the one in
        flight finishes ``n`` cycles later on an operand ``step``
        larger."""
        self.rs = {seq + n: rs_entry for seq, rs_entry in self.rs.items()}
        for ex in self._executing:
            ex.finish += n
            ex.values = [ex.values[0] + step]

    def squash(self, seqs: Set[int]) -> None:
        super().squash(seqs)
        self._executing = [ex for ex in self._executing
                           if ex.entry.seq not in seqs]

    def is_empty(self) -> bool:
        return not self.rs and not self._executing

    def is_chained(self, cycle: int) -> bool:
        """The station is full, none of it ready, and exactly one entry
        is in flight, finishing at ``cycle + 1``: a run of dependent
        one-cycle work that issues one entry a cycle."""
        executing = self._executing
        return (len(executing) == 1 and executing[0].finish == cycle + 1
                and not self.ready and len(self.rs) >= self.rs_size)

    def next_completion(self) -> int:
        """Cycle of the earliest in-flight completion: the one change
        to a stalled core that comes from the clock, not from an event."""
        if self._executing:
            return min(ex.finish for ex in self._executing)
        return WAKE_NEVER


class BranchUnit(_Station):
    """Resolves conditional branches one per cycle."""

    STATE = dict(_Station.STATE, on_resolve=FIXED)

    def __init__(self, rs_size: int,
                 on_resolve: Callable[[RobEntry, bool], None]) -> None:
        super().__init__(rs_size)
        self.on_resolve = on_resolve
        reset(self)

    def tick(self, cycle: int) -> bool:
        """Resolve the oldest ready branch; True when one resolved."""
        if not self.ready:
            return False
        rs_entry = self.ready.pop(0)
        (value,) = self._issue(rs_entry)
        entry = rs_entry.entry
        self.on_resolve(entry, entry.row.instr.outcome(value))
        return True  # one resolution per cycle

    def is_empty(self) -> bool:
        return not self.rs
