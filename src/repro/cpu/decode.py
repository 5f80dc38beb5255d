"""Decode once: what is fixed per *static* instruction, worked out once.

A dynamically scheduled core decodes the same static instruction many
times — every loop iteration, every refetch after a rollback.  What
decode learns from it never changes: which unit it goes to, the
register it writes, where a branch lands, its access class under the
consistency model, its trace tag, whether retirement must signal the
store buffer, and which stall a memory instruction is blamed for while
it blocks the reorder-buffer head.  :func:`decode_table` works all of
that out once per static instruction — each distinct instruction
object of a :class:`~repro.isa.program.Program`, at however many
addresses — into a table of one :class:`Decoded` row per ``pc``; the
processor indexes the table by ``pc`` and every reorder-buffer entry
carries its row, so the per-cycle path switches on a small integer
instead of asking the instruction what it is.

This is the one place the core's ``isinstance`` ladder over the
instruction set is written.  The table is memoized by program identity
in a :class:`weakref.WeakKeyDictionary`: nothing is attached to the
program (``repro.isa`` knows nothing of the core, a pickled program is
unchanged) and a table goes when its program does.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from ..consistency.access_class import (
    PLAIN_LOAD,
    PLAIN_STORE,
    AccessClass,
    classify,
)
from ..isa.instructions import (
    Alu,
    Branch,
    Halt,
    Instruction,
    Jump,
    Load,
    Nop,
    Rmw,
    SoftwarePrefetch,
    Store,
    destination_register,
)
from ..isa.program import Program
from ..obs.accounting import CycleAccountant, StallCause

#: dispatch kinds (``Decoded.kind``)
ALU, LOAD, STORE, RMW, SW_PREFETCH, BRANCH, JUMP, NOP, HALT = range(9)

#: kinds that go to the load/store unit's reservation station
TO_LSU = (LOAD, STORE, RMW, SW_PREFETCH)

_KIND_OF = {
    Alu: ALU, Load: LOAD, Store: STORE, Rmw: RMW, Branch: BRANCH,
    Jump: JUMP, SoftwarePrefetch: SW_PREFETCH, Nop: NOP, Halt: HALT,
}


class Decoded:
    """Everything the core needs to know about one static instruction."""

    __slots__ = ("kind", "instr", "dst", "target_pc", "klass", "tag",
                 "signals_store", "is_memory", "is_halt", "head_blame")

    def __init__(self, kind: int, instr: Instruction, dst: Optional[str],
                 target_pc: Optional[int], klass: Optional[AccessClass],
                 tag: Optional[str], signals_store: bool, is_memory: bool,
                 is_halt: bool, head_blame: Optional[StallCause]) -> None:
        self.kind = kind
        self.instr = instr
        #: register the instruction writes (ALU, load, RMW), else None
        self.dst = dst
        #: where a branch or jump lands, else None
        self.target_pc = target_pc
        #: access class of a memory op; a software prefetch carries the
        #: plain class of the access it stands in for (read, or
        #: read-exclusive) and takes no part in ordering
        self.klass = klass
        #: trace tag of whatever goes to the load/store unit
        self.tag = tag
        #: the reorder buffer signals the store buffer when this
        #: instruction reaches its head (store, RMW)
        self.signals_store = signals_store
        #: load, store or RMW: retires by the load/store unit's leave
        self.is_memory = is_memory
        self.is_halt = is_halt
        #: stall a memory instruction blocking the head is charged to
        self.head_blame = head_blame


def _decode(program: Program, instr: Instruction) -> Decoded:
    for cls, kind in _KIND_OF.items():
        if isinstance(instr, cls):
            break
    else:
        raise TypeError(f"cannot decode {instr!r}")
    is_memory = kind in (LOAD, STORE, RMW)
    klass: Optional[AccessClass] = None
    if is_memory:
        klass = classify(instr)
    elif kind == SW_PREFETCH:
        klass = PLAIN_STORE if instr.exclusive else PLAIN_LOAD
    return Decoded(
        kind=kind,
        instr=instr,
        dst=destination_register(instr),
        target_pc=(program.target_pc(instr.target)
                   if kind in (BRANCH, JUMP) else None),
        klass=klass,
        tag=instr.describe() if klass is not None else None,
        signals_store=kind in (STORE, RMW),
        is_memory=is_memory,
        is_halt=kind == HALT,
        head_blame=CycleAccountant.head_blame(instr),
    )


_tables: "weakref.WeakKeyDictionary[Program, List[Decoded]]" = (
    weakref.WeakKeyDictionary())


def decode_table(program: Program) -> List[Decoded]:
    """The decode table of ``program``, one row per instruction indexed
    by ``pc``: one :func:`_decode` per distinct instruction object;
    built on first use and shared by every core that runs this program
    object."""
    rows = _tables.get(program)
    if rows is None:
        # by identity: instructions are mutable dataclasses, so unhashable
        by_id: Dict[int, Decoded] = {}
        rows = []
        for instr in program.instructions:
            row = by_id.get(id(instr))
            if row is None:
                row = by_id[id(instr)] = _decode(program, instr)
            rows.append(row)
        _tables[program] = rows
    return rows
