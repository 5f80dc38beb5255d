"""Reorder buffer with ROB-based register renaming.

The reorder buffer (Smith & Pleszkun) is the keystone of the paper's
example implementation (Section 4.2): it renames registers, holds
uncommitted results so conditional branches (and speculative loads!)
can be rolled back, retires instructions in program order for precise
interrupts, and *signals the store buffer* when a store reaches the
head — which is how consistency constraints on stores are enforced.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ..sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .decode import Decoded
    from .spin import Numbering
    from .units import RsEntry


class Operand:
    """A source operand: either an immediate value or its producer.

    A tagged operand is Tomasulo's Qj: a pointer to the producing
    reorder-buffer entry, bound at dispatch.  It is read afresh at every
    :meth:`resolve` and never copies a value out of the entry — a lock
    RMW is marked done twice (its speculative read, then the atomic's
    own result), and a correction can un-do it in between, so only the
    value seen at issue time counts.  The entry outlives its slot:
    retired, it keeps its value; squashed, it is never done again.
    """

    __slots__ = ("value", "producer")

    def __init__(self, value: Optional[int] = None,
                 producer: Optional["RobEntry"] = None) -> None:
        self.value = value
        self.producer = producer

    def resolve(self) -> Optional[int]:
        """The operand's value, or ``None`` if still being produced."""
        if self.value is not None:
            return self.value
        producer = self.producer
        if producer is not None and producer.done:
            return producer.value
        return None

    def describe(self) -> str:
        if self.producer is None:
            return str(self.value)
        return f"tag#{self.producer.seq}"

    def period_key(self, num: "Numbering", live: Dict[int, "RobEntry"]) -> tuple:
        """This operand with a producer in ``live`` (the reorder buffer
        by number) numbered as ``num`` does; one that has left it never
        changes again and counts by what it holds."""
        producer = self.producer
        if producer is None:
            return (self.value,)
        if live.get(producer.seq) is producer:
            return (self.value, num(producer.seq))
        return (self.value, None, producer.done, producer.value)


class RobEntry:
    """One in-flight instruction: where it stands, not what it is —
    that is its decode-table ``row``, shared by every execution of it."""

    __slots__ = ("seq", "pc", "row", "value", "done", "signalled",
                 "predicted_taken", "predicted_next_pc", "resolved_next_pc",
                 "waiters")

    def __init__(self, seq: int, pc: int, row: "Decoded", done: bool = False,
                 predicted_taken: Optional[bool] = None,
                 predicted_next_pc: Optional[int] = None) -> None:
        self.seq = seq
        self.pc = pc
        self.row = row
        self.value: Optional[int] = None
        self.done = done
        #: store/RMW: the reorder buffer has signalled the store buffer
        self.signalled = False
        #: branches: prediction bookkeeping
        self.predicted_taken = predicted_taken
        self.predicted_next_pc = predicted_next_pc
        self.resolved_next_pc: Optional[int] = None
        #: station entries with an operand bound to this one, woken by
        #: :meth:`ReorderBuffer.mark_done`
        self.waiters: List["RsEntry"] = []

    def period_key(self, num: "Numbering") -> tuple:
        """This entry numbered as ``num`` does; a waiter squashed out of
        its station counts only as there."""
        return (num(self.seq), self.pc, self.row, self.value, self.done,
                self.signalled, self.predicted_taken, self.predicted_next_pc,
                self.resolved_next_pc,
                tuple(None if waiter.dead else num(waiter.entry.seq)
                      for waiter in self.waiters))

    def describe(self) -> str:
        return self.row.instr.describe() or f"pc={self.pc}"


class ReorderBuffer:
    """FIFO of in-flight instructions plus the rename table."""

    #: what a run never changes, left out of :meth:`period_key`
    PERIOD_FIXED = frozenset({"size"})

    def __init__(self, size: int) -> None:
        self.size = size
        self.reset()

    def reset(self) -> None:
        """Empty: nothing in flight, nothing renamed."""
        #: in-flight entries in program order, and the same by number
        self._fifo: Deque[RobEntry] = deque()
        self._by_seq: Dict[int, RobEntry] = {}
        #: register -> the youngest in-flight entry that writes it
        self._rename: Dict[str, RobEntry] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        return len(self._fifo) >= self.size

    @property
    def empty(self) -> bool:
        return not self._fifo

    def head(self) -> Optional[RobEntry]:
        return self._fifo[0] if self._fifo else None

    def get(self, seq: int) -> Optional[RobEntry]:
        return self._by_seq.get(seq)

    def entries(self) -> List[RobEntry]:
        return list(self._fifo)

    @property
    def live(self) -> Dict[int, RobEntry]:
        """The entries in flight, by number (not to be changed)."""
        return self._by_seq

    # ------------------------------------------------------------------
    # Rename / dispatch
    # ------------------------------------------------------------------
    def allocate(self, entry: RobEntry) -> None:
        if self.full:
            raise SimulationError("reorder buffer overflow (caller must check .full)")
        self._fifo.append(entry)
        self._by_seq[entry.seq] = entry
        dst = entry.row.dst
        if dst is not None and dst != "r0":
            self._rename[dst] = entry

    def producer_of(self, reg: str) -> Optional[RobEntry]:
        """The in-flight entry currently producing ``reg``, if any."""
        return self._rename.get(reg)

    def rename_of(self, reg: str) -> Optional[int]:
        """The ROB tag currently producing ``reg``, if any."""
        entry = self._rename.get(reg)
        return entry.seq if entry is not None else None

    def mark_done(self, seq: int, value: Optional[int] = None) -> None:
        """Entry ``seq`` has its result: wake the station entries that
        wait on it (the common data bus).  Each waiter is woken once —
        a second marking (a lock RMW's own result after its speculative
        read) finds none left, and a consumer re-decoded after a
        correction un-did the entry registered anew."""
        entry = self._by_seq.get(seq)
        if entry is None:
            return  # squashed while executing
        entry.value = value
        entry.done = True
        waiters = entry.waiters
        if waiters:
            entry.waiters = []
            for waiter in waiters:
                waiter.producer_done()

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def retire_head(self) -> RobEntry:
        entry = self._fifo.popleft()
        del self._by_seq[entry.seq]
        dst = entry.row.dst
        if self._rename.get(dst) is entry:
            del self._rename[dst]
        return entry

    def holds_run(self, row: "Decoded", next_seq: int, next_pc: int) -> bool:
        """Every entry carries ``row``, numbered and addressed one after
        another up to ``next_seq`` and ``next_pc``, exclusive."""
        seq = next_seq - len(self._fifo)
        pc = next_pc - len(self._fifo)
        for entry in self._fifo:
            if entry.row is not row or entry.seq != seq or entry.pc != pc:
                return False
            seq += 1
            pc += 1
        return True

    def shift(self, n: int, step: int) -> None:
        """Slide the window ``n`` instructions down a run of one
        self-dependent add (see :meth:`Processor._shift`): every entry
        is renumbered and moved ``n`` on, and a result it holds grows by
        ``step``.  The entries stay the same objects, so every binding
        to them — the rename table, tagged operands, waiters — holds."""
        by_seq = {}
        for entry in self._fifo:
            entry.seq += n
            entry.pc += n
            if entry.value is not None:
                entry.value += step
            by_seq[entry.seq] = entry
        self._by_seq = by_seq

    def period_key(self, num: "Numbering") -> tuple:
        """The window and rename table, numbered as ``num`` does
        (``_by_seq`` is the window by number)."""
        return (tuple(entry.period_key(num) for entry in self._fifo),
                tuple(sorted((reg, num(entry.seq))
                             for reg, entry in self._rename.items())))

    def renumber(self, first: int, seqs: int) -> None:
        """Move every entry from ``first`` on ``seqs`` instructions on
        (whole spin periods, see :meth:`Processor.next_wake`); the
        objects stay, so every binding to them holds."""
        for entry in self._fifo:
            if entry.seq >= first:
                entry.seq += seqs
        self._by_seq = {entry.seq: entry for entry in self._fifo}

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def squash_from(self, seq: int) -> List[int]:
        """Discard entry ``seq`` and everything younger.

        Returns the discarded seq numbers (ascending).  The rename table
        is rebuilt from the survivors.
        """
        fifo = self._fifo
        discarded: List[int] = []
        while fifo and fifo[-1].seq >= seq:
            entry = fifo.pop()
            del self._by_seq[entry.seq]
            # an operand already bound to this entry must never read it
            entry.done = False
            entry.value = None
            discarded.append(entry.seq)
        if not discarded:
            return discarded
        discarded.reverse()
        self._rename = {}
        for entry in fifo:
            dst = entry.row.dst
            if dst is not None and dst != "r0":
                self._rename[dst] = entry
        return discarded

    def describe(self) -> str:
        return " | ".join(e.describe() for e in self._fifo)
