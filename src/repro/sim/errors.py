"""Exception hierarchy for the simulator.

Every error raised by the library derives from :class:`SimulationError` so
callers can catch simulator failures without also swallowing programming
errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations

from typing import Optional


class SimulationError(Exception):
    """Base class for all simulator errors."""

    #: the cycle the failure was declared at, when the error knows it
    cycle: Optional[int] = None


class ConfigurationError(SimulationError):
    """A component was configured with inconsistent or illegal parameters."""


class DeadlockError(SimulationError):
    """The simulation reached its cycle limit without making progress.

    Carries the cycle at which the deadlock was declared and a short
    diagnostic describing what each processor was waiting on.
    """

    def __init__(self, cycle: int, diagnostic: str = "") -> None:
        self.cycle = cycle
        self.diagnostic = diagnostic
        msg = f"simulation made no progress by cycle {cycle}"
        if diagnostic:
            msg += f": {diagnostic}"
        super().__init__(msg)


class ProtocolError(SimulationError):
    """The coherence protocol reached an illegal state transition."""


class IsaError(SimulationError):
    """An instruction was malformed or referenced an illegal operand."""


class AssemblerError(IsaError):
    """The textual assembler rejected its input."""

    def __init__(self, line_no: int, line: str, reason: str) -> None:
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_no}: {reason!r} in {line!r}")
