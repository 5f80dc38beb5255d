"""Instruction definitions.

A deliberately small RISC-flavoured instruction set, rich enough to
express the paper's examples and realistic synchronization idioms:

* memory: ``Load`` / ``Store`` / ``Rmw`` (atomic read-modify-write),
  each optionally tagged *acquire* or *release* for the WC/RC models;
* compute: ``Alu`` with a handful of integer ops and an immediate form;
* control: ``Branch`` (conditional, with an optional static prediction
  hint) and ``Jump``;
* ``Nop`` and ``Halt``.

Addresses are word-granular: ``address = registers[base] + offset``.
Every instruction may carry a human-readable ``tag`` (e.g. ``"ld A"``)
used by traces and the Figure 5 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..sim.errors import IsaError
from .registers import check_register

#: ALU operations understood by the functional units.
ALU_OPS = frozenset(
    ["add", "sub", "and", "or", "xor", "mul", "mov", "seq", "sne", "slt", "sgt"]
)

#: Read-modify-write flavours. ``ts`` = test-and-set (writes 1, returns the
#: old value), ``swap`` exchanges, ``add`` is fetch-and-add.
RMW_OPS = frozenset(["ts", "swap", "add"])


def rmw_result(op: Optional[str], old: int, operand: Optional[int]) -> int:
    """What an RMW ``op`` writes over ``old``, for every engine: ``ts``
    1, ``swap`` the operand, ``add`` ``old`` plus it (None reads 0)."""
    if op == "ts":
        return 1
    if op == "swap":
        return operand or 0
    if op == "add":
        return old + (operand or 0)
    raise IsaError(f"unknown RMW op {op!r} (expected one of {sorted(RMW_OPS)})")


@dataclass
class Instruction:
    """Base class; carries the optional trace tag."""

    tag: Optional[str] = field(default=None, kw_only=True)

    @property
    def is_memory(self) -> bool:
        return isinstance(self, (Load, Store, Rmw))

    @property
    def is_load(self) -> bool:
        return isinstance(self, Load)

    @property
    def is_store(self) -> bool:
        return isinstance(self, Store)

    @property
    def is_rmw(self) -> bool:
        return isinstance(self, Rmw)

    @property
    def is_acquire(self) -> bool:
        return bool(getattr(self, "acquire", False))

    @property
    def is_release(self) -> bool:
        return bool(getattr(self, "release", False))

    def describe(self) -> str:
        return self.tag or type(self).__name__.lower()


@dataclass
class Load(Instruction):
    """``dst <- MEM[regs[base] + offset]``."""

    dst: str = "r0"
    base: str = "r0"
    offset: int = 0
    acquire: bool = False

    def __post_init__(self) -> None:
        check_register(self.dst)
        check_register(self.base)


@dataclass
class Store(Instruction):
    """``MEM[regs[base] + offset] <- regs[src]``."""

    src: str = "r0"
    base: str = "r0"
    offset: int = 0
    release: bool = False

    def __post_init__(self) -> None:
        check_register(self.src)
        check_register(self.base)


@dataclass
class Rmw(Instruction):
    """Atomic read-modify-write on ``MEM[regs[base] + offset]``.

    ``dst`` receives the *old* memory value.  The new value depends on
    ``op``: ``ts`` writes 1, ``swap`` writes ``regs[src]``, ``add``
    writes ``old + regs[src]``.
    """

    dst: str = "r0"
    base: str = "r0"
    offset: int = 0
    op: str = "ts"
    src: str = "r0"
    acquire: bool = False
    release: bool = False

    def __post_init__(self) -> None:
        check_register(self.dst)
        check_register(self.base)
        check_register(self.src)
        if self.op not in RMW_OPS:
            raise IsaError(f"unknown RMW op {self.op!r} (expected one of {sorted(RMW_OPS)})")

    def new_value(self, old: int, operand: int) -> int:
        return rmw_result(self.op, old, operand)


@dataclass
class Alu(Instruction):
    """``dst <- op(regs[src1], regs[src2] | imm)`` with a unit latency.

    ``mov`` uses only ``src2``/``imm``. Comparison ops produce 0/1.
    ``latency`` lets workloads model multi-cycle compute (e.g. ``mul``).
    """

    op: str = "add"
    dst: str = "r0"
    src1: str = "r0"
    src2: Optional[str] = None
    imm: Optional[int] = None
    latency: int = 1

    def __post_init__(self) -> None:
        if self.op not in ALU_OPS:
            raise IsaError(f"unknown ALU op {self.op!r} (expected one of {sorted(ALU_OPS)})")
        check_register(self.dst)
        check_register(self.src1)
        if self.src2 is not None:
            check_register(self.src2)
        if (self.src2 is None) == (self.imm is None) and self.op != "mov":
            raise IsaError(f"ALU op {self.op!r} needs exactly one of src2/imm")
        if self.latency < 1:
            raise IsaError(f"ALU latency must be >= 1, got {self.latency}")

    def compute(self, a: int, b: int) -> int:
        op = self.op
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "mul":
            return a * b
        if op == "mov":
            return b
        if op == "seq":
            return int(a == b)
        if op == "sne":
            return int(a != b)
        if op == "slt":
            return int(a < b)
        if op == "sgt":
            return int(a > b)
        raise IsaError(f"unhandled ALU op {op!r}")  # pragma: no cover


@dataclass
class Branch(Instruction):
    """Conditional branch on a register.

    Branches to ``target`` (a label) when ``regs[cond] != 0`` if
    ``when_nonzero`` else when ``regs[cond] == 0``.  ``predict_taken``
    is an optional static hint consumed by the branch predictor; the
    paper's lock-spin idiom relies on predicting the exit path so that
    lookahead proceeds past an un-acquired lock.
    """

    cond: str = "r0"
    target: str = ""
    when_nonzero: bool = True
    predict_taken: Optional[bool] = None

    def __post_init__(self) -> None:
        check_register(self.cond)
        if not self.target:
            raise IsaError("branch requires a target label")

    def outcome(self, cond_value: int) -> bool:
        taken = cond_value != 0
        return taken if self.when_nonzero else not taken


@dataclass
class Jump(Instruction):
    """Unconditional jump to a label."""

    target: str = ""

    def __post_init__(self) -> None:
        if not self.target:
            raise IsaError("jump requires a target label")


@dataclass
class SoftwarePrefetch(Instruction):
    """A software-controlled non-binding prefetch (paper, Section 6).

    Brings ``MEM[regs[base] + offset]``'s line toward the cache —
    read-shared, or exclusive when ``exclusive`` — without binding any
    value, so it never interacts with the consistency model.  The
    instruction completes as soon as the prefetch is handed to the
    memory system.  Contrast with the hardware prefetcher: software
    prefetching costs an instruction slot but has an arbitrarily large
    lookahead window (Porterfield; Mowry & Gupta; Gharachorloo et al.).
    """

    base: str = "r0"
    offset: int = 0
    exclusive: bool = False

    def __post_init__(self) -> None:
        check_register(self.base)


@dataclass
class Nop(Instruction):
    """Does nothing for one cycle."""


@dataclass
class Halt(Instruction):
    """Terminates the processor's program."""


def destination_register(instr: Instruction) -> Optional[str]:
    """The register written by ``instr``, or ``None``."""
    if isinstance(instr, (Load, Rmw, Alu)):
        return instr.dst
    return None


def source_registers(instr: Instruction) -> Tuple[str, ...]:
    """Registers read by ``instr`` (excluding the hardwired zero)."""
    if isinstance(instr, Load):
        return (instr.base,)
    if isinstance(instr, Store):
        return (instr.base, instr.src)
    if isinstance(instr, Rmw):
        return (instr.base, instr.src)
    if isinstance(instr, Alu):
        return (instr.src1,) if instr.src2 is None else (instr.src1, instr.src2)
    if isinstance(instr, Branch):
        return (instr.cond,)
    if isinstance(instr, SoftwarePrefetch):
        return (instr.base,)
    return ()
