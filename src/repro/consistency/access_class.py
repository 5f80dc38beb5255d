"""Classification of memory accesses for consistency-model rules.

A consistency model's ordering rules only care about four things per
access: is it a read, is it a write, is it an *acquire*, is it a
*release*.  :class:`AccessClass` captures exactly that, and conversion
helpers build one from an ISA instruction or from raw flags.

Atomic read-modify-writes are both a read and a write; a lock RMW is
additionally an acquire (and an unlock store a release), following the
paper's Section 2 classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Instruction, Load, Rmw, Store


@dataclass(frozen=True)
class AccessClass:
    """What a consistency model needs to know about one access."""

    is_load: bool
    is_store: bool
    acquire: bool = False
    release: bool = False

    def __post_init__(self) -> None:
        if not (self.is_load or self.is_store):
            raise ValueError("an access must read, write, or both")
        if self.acquire and not self.is_load:
            raise ValueError("an acquire must involve a read (paper, Section 2)")
        if self.release and not self.is_store:
            raise ValueError("a release must involve a write (paper, Section 2)")

    @property
    def is_sync(self) -> bool:
        return self.acquire or self.release


#: The four plain flavours, for convenience in tests and rule tables.
PLAIN_LOAD = AccessClass(is_load=True, is_store=False)
PLAIN_STORE = AccessClass(is_load=False, is_store=True)
ACQUIRE = AccessClass(is_load=True, is_store=False, acquire=True)
RELEASE = AccessClass(is_load=False, is_store=True, release=True)
ACQUIRE_RMW = AccessClass(is_load=True, is_store=True, acquire=True)
RELEASE_RMW = AccessClass(is_load=True, is_store=True, release=True)

#: Figure 1's four access classes by name, the rows and columns of a
#: model's delay-arc table.
FIGURE1_CLASSES = (("load", PLAIN_LOAD), ("store", PLAIN_STORE),
                   ("acquire", ACQUIRE), ("release", RELEASE))


def classify(instr: Instruction) -> AccessClass:
    """Build an :class:`AccessClass` from a memory instruction."""
    if isinstance(instr, Load):
        return AccessClass(is_load=True, is_store=False, acquire=instr.acquire)
    if isinstance(instr, Store):
        return AccessClass(is_load=False, is_store=True, release=instr.release)
    if isinstance(instr, Rmw):
        return AccessClass(is_load=True, is_store=True,
                           acquire=instr.acquire, release=instr.release)
    raise TypeError(f"{instr!r} is not a memory instruction")
