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
from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim.errors import SimulationError
from ..sim.state import (FIXED, SEQ, VALUE, Keyed, Numbering, Records, Ref,
                         in_window, reset)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .decode import Decoded
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

    #: a producer that has left the window never changes again: it
    #: counts by what it holds
    STATE = dict(value=VALUE,
                 producer=Ref(live=in_window, dead=("done", "value")))

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


def _waiting(waiter: "RsEntry", num: Numbering) -> bool:
    return not waiter.dead


def _renamed(rename: Dict[str, "RobEntry"], num: Numbering) -> tuple:
    """The rename table numbered as ``num`` does, by register (its order
    is how it was built, not state)."""
    return tuple(sorted((reg, num(entry.seq))
                        for reg, entry in rename.items()))


class RobEntry:
    """One in-flight instruction: where it stands, not what it is —
    that is its decode-table ``row``, shared by every execution of it."""

    __slots__ = ("seq", "pc", "row", "value", "done", "signalled",
                 "predicted_taken", "predicted_next_pc", "resolved_next_pc",
                 "waiters")

    #: a waiter squashed out of its station counts only as there
    STATE = dict(seq=SEQ, pc=VALUE, row=VALUE, value=VALUE, done=VALUE,
                 signalled=VALUE, predicted_taken=VALUE,
                 predicted_next_pc=VALUE, resolved_next_pc=VALUE,
                 waiters=Records(Ref("entry.seq", live=_waiting)))

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

    def describe(self) -> str:
        return self.row.instr.describe() or f"pc={self.pc}"


class ReorderBuffer:
    """FIFO of in-flight instructions plus the rename table."""

    #: in flight: the entries in program order, and the same by number;
    #: the rename table maps a register to the youngest one writing it
    STATE = dict(size=FIXED, _fifo=Records(RobEntry, deque),
                 _by_seq=Records(Ref(), dict, by_seq=True),
                 _rename=Keyed(_renamed, dict))

    def __init__(self, size: int) -> None:
        self.size = size
        reset(self)

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
            # its waiters will never be woken: let them go (and the
            # entry -> station entry -> operand -> entry cycle with them)
            entry.waiters = []
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
