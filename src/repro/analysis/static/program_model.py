"""Static model of one processor's program: its shared accesses.

The analyzer never executes a program; it recovers, by a single linear
pass with constant propagation, the sequence of shared-memory accesses
each processor will perform:

* **addresses** — resolved when the base register holds a
  statically-known constant (``movi``/ALU chains over constants, or the
  hardwired ``r0``); an access whose base is loop-carried or
  memory-derived gets ``addr=None`` and is treated conservatively as
  conflicting with every location;
* **value use** — whether a load/RMW result is ever read again, and in
  particular whether it reaches a conditional branch (``guards_branch``).
  A synchronization read whose value is never examined cannot order
  anything: an "optimistic" lock (the paper's single-access lock macro)
  acquires without checking and therefore establishes no mutual
  exclusion, which is exactly what makes Example 1 racy;
* **locksets** — the set of lock addresses protecting each access: a
  *guarded* acquire RMW to ``L`` opens a critical section that the next
  release store to ``L`` closes.

Control flow is deliberately approximated: instructions are scanned in
program order, branches are not followed.  For the litmus-style
programs this analyzer targets (straight-line bodies plus spin loops)
the approximation is exact; anything cleverer should fall back to the
dynamic detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ...consistency.access_class import AccessClass, classify
from ...isa.instructions import (
    Alu,
    Branch,
    Instruction,
    Load,
    Rmw,
    Store,
    destination_register,
    source_registers,
)
from ...isa.program import Program


@dataclass
class StaticAccess:
    """One shared-memory access, as the analyzer sees it."""

    cpu: int
    order: int                    # index among this CPU's shared accesses
    pc: int
    instr: Instruction
    klass: AccessClass
    addr: Optional[int]
    line: Optional[int]
    tag: str
    value_used: bool = False      # load/RMW result read by anything later
    guards_branch: bool = False   # load/RMW result reaches a branch condition
    locks: FrozenSet[int] = frozenset()
    #: the value a store/RMW writes, when constant propagation resolves
    #: it (``ts`` always writes 1; ``add`` depends on the old memory
    #: value, so it is never static)
    store_value: Optional[int] = None

    @property
    def is_store(self) -> bool:
        return self.klass.is_store

    @property
    def is_load(self) -> bool:
        return self.klass.is_load

    def site_tag(self) -> str:
        return self.tag or self.instr.describe()

    def may_alias(self, other: "StaticAccess") -> bool:
        """Line-granular aliasing; unknown addresses alias everything
        (the same conservatism the hardware detector's line-granularity
        gives the dynamic half)."""
        if self.line is None or other.line is None:
            return True
        return self.line == other.line


@dataclass
class ThreadModel:
    """The extracted access sequence for one processor."""

    cpu: int
    accesses: List[StaticAccess] = field(default_factory=list)

    @classmethod
    def from_program(cls, program: Program, cpu: int, line_size: int = 4) -> "ThreadModel":
        extractor = _Extractor(program, cpu, line_size)
        return cls(cpu=cpu, accesses=extractor.run())

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [f"cpu{self.cpu}:"]
        for a in self.accesses:
            addr = hex(a.addr) if a.addr is not None else "?"
            flags = []
            if a.klass.acquire:
                flags.append("acq")
            if a.klass.release:
                flags.append("rel")
            if a.guards_branch:
                flags.append("guard")
            if a.locks:
                flags.append("locks=" + ",".join(hex(l) for l in sorted(a.locks)))
            lines.append(f"  [{a.order}] pc{a.pc} {a.site_tag()} @ {addr} "
                         f"{' '.join(flags)}".rstrip())
        return "\n".join(lines)


class _Extractor:
    def __init__(self, program: Program, cpu: int, line_size: int) -> None:
        self.program = program
        self.cpu = cpu
        self.line_size = line_size

    # -- constant propagation ------------------------------------------
    def _eval_alu(self, instr: Alu, env: Dict[str, Optional[int]]) -> Optional[int]:
        a = 0 if instr.src1 == "r0" else env.get(instr.src1, None)
        if instr.imm is not None:
            b: Optional[int] = instr.imm
        elif instr.src2 is not None:
            b = 0 if instr.src2 == "r0" else env.get(instr.src2, None)
        else:
            b = None
        if instr.op == "mov":
            return b
        if a is None or b is None:
            return None
        return instr.compute(a, b)

    # -- value-use / guard analysis ------------------------------------
    def _use_pass(self, pc: int, dst: Optional[str]) -> "tuple[bool, bool]":
        """Does the value produced at ``pc`` flow anywhere (and to a
        branch condition)?  Linear taint scan from ``pc + 1``."""
        if dst is None or dst == "r0":
            return False, False
        taint = {dst}
        used = guards = False
        for instr in self.program.instructions[pc + 1:]:
            srcs = set(source_registers(instr)) - {"r0"}
            reads_taint = bool(srcs & taint)
            if reads_taint:
                used = True
                if isinstance(instr, Branch):
                    guards = True
            wdst = destination_register(instr)
            if isinstance(instr, Alu) and reads_taint and wdst and wdst != "r0":
                taint.add(wdst)       # taint flows through computation
            elif wdst in taint and not reads_taint:
                taint.discard(wdst)   # overwritten before further use
            if not taint:
                break
        return used, guards

    # -- main -----------------------------------------------------------
    def run(self) -> List[StaticAccess]:
        env: Dict[str, Optional[int]] = {}
        accesses: List[StaticAccess] = []
        open_locks: Dict[int, bool] = {}
        for pc, instr in enumerate(self.program):
            if isinstance(instr, Alu):
                env[instr.dst] = self._eval_alu(instr, env)
                continue
            if not isinstance(instr, (Load, Store, Rmw)):
                continue
            base = 0 if instr.base == "r0" else env.get(instr.base, None)
            addr = None if base is None else base + instr.offset
            line = None if addr is None else addr // self.line_size
            klass = classify(instr)
            store_value: Optional[int] = None
            if isinstance(instr, Store):
                store_value = 0 if instr.src == "r0" else env.get(instr.src)
            elif isinstance(instr, Rmw):
                if instr.op == "ts":
                    store_value = 1
                elif instr.op == "swap":
                    store_value = (0 if instr.src == "r0"
                                   else env.get(instr.src))
            used, guards = self._use_pass(pc, destination_register(instr))
            if destination_register(instr) is not None and destination_register(instr) != "r0":
                env[destination_register(instr)] = None

            # lock regions: a guarded acquire RMW opens, a release store
            # to the same address closes
            locks_here = frozenset(open_locks)
            if isinstance(instr, Rmw) and instr.acquire and guards and addr is not None:
                open_locks[addr] = True
            if isinstance(instr, Store) and instr.release and addr is not None:
                open_locks.pop(addr, None)

            accesses.append(StaticAccess(
                cpu=self.cpu,
                order=len(accesses),
                pc=pc,
                instr=instr,
                klass=klass,
                addr=addr,
                line=line,
                tag=instr.tag or "",
                value_used=used,
                guards_branch=guards,
                locks=locks_here,
                store_value=store_value,
            ))
        return accesses
