"""Architectural register file description.

The ISA exposes 32 integer registers ``r0`` .. ``r31``.  ``r0`` is
hard-wired to zero, as in MIPS — writes to it are discarded, which lets
programs use it as a handy zero source and as a sink for unwanted RMW
results.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.errors import IsaError

NUM_REGS = 32
ZERO_REG = "r0"

REGISTER_NAMES: List[str] = [f"r{i}" for i in range(NUM_REGS)]
_REGISTER_SET = frozenset(REGISTER_NAMES)


def check_register(name: str) -> str:
    """Validate a register name, returning it unchanged."""
    if name not in _REGISTER_SET:
        raise IsaError(f"unknown register {name!r} (expected r0..r{NUM_REGS - 1})")
    return name


class RegisterFile:
    """Committed architectural register state.

    The out-of-order core keeps *speculative* values in the reorder
    buffer; this object only ever holds committed state, which is what
    makes precise interrupts (and speculation rollback) work.
    """

    def __init__(self) -> None:
        self._values: Dict[str, int] = {name: 0 for name in REGISTER_NAMES}

    def read(self, name: str) -> int:
        check_register(name)
        return self._values[name]

    def write(self, name: str, value: int) -> None:
        check_register(name)
        if name == ZERO_REG:
            return
        self._values[name] = int(value)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._values)

    def values(self) -> Tuple[int, ...]:
        """Every register's value, in register order."""
        return tuple(self._values.values())

    def load_snapshot(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            self.write(name, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        nonzero = {k: v for k, v in self._values.items() if v}
        return f"RegisterFile({nonzero})"
