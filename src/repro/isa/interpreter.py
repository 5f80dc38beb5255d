"""Reference interpreter: architecturally-correct sequential execution.

Executes a :class:`~repro.isa.program.Program` instruction by
instruction against a flat memory, with no timing model.  Two uses:

* a **differential oracle** for the detailed simulator — on a single
  processor, every consistency model and technique combination must
  produce exactly the interpreter's architectural results;
* a convenient way for workload generators to compute expected final
  values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.errors import SimulationError
from .instructions import (
    Alu,
    Branch,
    Halt,
    Jump,
    Load,
    Nop,
    Rmw,
    SoftwarePrefetch,
    Store,
)
from .program import Program
from .registers import RegisterFile


@dataclass
class InterpreterResult:
    registers: Dict[str, int]
    memory: Dict[int, int]
    instructions_executed: int

    def reg(self, name: str) -> int:
        return self.registers.get(name, 0)

    def word(self, addr: int) -> int:
        return self.memory.get(addr, 0)


def interpret(
    program: Program,
    initial_memory: Optional[Dict[int, int]] = None,
    max_steps: int = 1_000_000,
) -> InterpreterResult:
    """Run ``program`` to its Halt (or off the end) and return the
    final architectural state."""
    memory: Dict[int, int] = dict(initial_memory or {})
    regs = RegisterFile()
    pc = 0
    steps = 0
    while True:
        instr = program.at(pc)
        if instr is None or isinstance(instr, Halt):
            break
        steps += 1
        if steps > max_steps:
            raise SimulationError(
                f"interpreter exceeded {max_steps} steps (infinite loop?)"
            )
        if isinstance(instr, (Nop, SoftwarePrefetch)):
            pc += 1  # prefetches are architecturally invisible
        elif isinstance(instr, Alu):
            a = regs.read(instr.src1)
            b = regs.read(instr.src2) if instr.src2 is not None else (instr.imm or 0)
            regs.write(instr.dst, instr.compute(a, b))
            pc += 1
        elif isinstance(instr, Load):
            addr = regs.read(instr.base) + instr.offset
            regs.write(instr.dst, memory.get(addr, 0))
            pc += 1
        elif isinstance(instr, Store):
            addr = regs.read(instr.base) + instr.offset
            memory[addr] = regs.read(instr.src)
            pc += 1
        elif isinstance(instr, Rmw):
            addr = regs.read(instr.base) + instr.offset
            old = memory.get(addr, 0)
            memory[addr] = instr.new_value(old, regs.read(instr.src))
            regs.write(instr.dst, old)
            pc += 1
        elif isinstance(instr, Branch):
            taken = instr.outcome(regs.read(instr.cond))
            pc = program.target_pc(instr.target) if taken else pc + 1
        elif isinstance(instr, Jump):
            pc = program.target_pc(instr.target)
        else:  # pragma: no cover
            raise SimulationError(f"interpreter cannot execute {instr!r}")
    return InterpreterResult(
        registers=regs.snapshot(),
        memory=memory,
        instructions_executed=steps,
    )
