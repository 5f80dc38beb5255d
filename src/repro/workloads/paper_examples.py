"""The paper's example code segments (Figure 2 and Figure 5).

Each example exists in two forms:

* an **access segment** (:class:`~repro.core.timing.AccessSpec` list)
  for the analytical timing model — this mirrors the paper's abstract
  accounting, where e.g. ``lock L`` is a single 100-cycle access;
* an **ISA program** plus warm-up / memory-image metadata for the
  detailed simulator.

Address map (word addresses, one location per cache line with the
default 4-word lines)::

    LOCK = 16,  A = 32,  B = 48,  C = 64,  D = 80,  E_BASE = 96

``read E[D]`` loads ``MEM[E_BASE + MEM[D]]``.  ``MEM[D]`` is initialized
to 0, so ``E[D]`` is word 96 — its own line, distinct from all others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..consistency.access_class import (
    ACQUIRE,
    PLAIN_LOAD,
    PLAIN_STORE,
    RELEASE,
)
from ..core.timing import AccessSpec
from ..isa.program import Program, ProgramBuilder

LOCK = 16
A = 32
B = 48
C = 64
D = 80
E_BASE = 96


@dataclass
class PaperWorkload:
    """A program plus the environment the paper assumes around it."""

    name: str
    program: Program
    #: (cpu, addr, exclusive) lines to pre-install so the paper's
    #: declared cache hits actually hit
    warm_lines: List[Tuple[int, int, bool]] = field(default_factory=list)
    initial_memory: Dict[int, int] = field(default_factory=dict)
    #: labels of the timed accesses, in program order
    access_tags: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Example 1 (Section 3.3, left): producer inside a critical section
# ----------------------------------------------------------------------

def example1_segment() -> List[AccessSpec]:
    """lock L (miss); write A (miss); write B (miss); unlock L (hit)."""
    return [
        AccessSpec("lock L", ACQUIRE, hit=False),
        AccessSpec("write A", PLAIN_STORE, hit=False),
        AccessSpec("write B", PLAIN_STORE, hit=False),
        AccessSpec("unlock L", RELEASE, hit=True),
    ]


def example1_program(realistic_lock: bool = False) -> PaperWorkload:
    b = ProgramBuilder()
    if realistic_lock:
        b.lock(addr=LOCK, tag="lock L")
    else:
        b.lock_optimistic(addr=LOCK, tag="lock L")
    b.store_imm(1, addr=A, tag="write A")
    b.store_imm(1, addr=B, tag="write B")
    b.unlock(addr=LOCK, tag="unlock L")
    return PaperWorkload(
        name="example1",
        program=b.build(),
        # the unlock hits "due to the fact that exclusive ownership was
        # gained by the previous lock access" — the lock RMW brings the
        # line in exclusively, so no warm-up is needed for the lock.
        warm_lines=[],
        initial_memory={LOCK: 0},
        access_tags=["lock L", "write A", "write B", "unlock L"],
    )


# ----------------------------------------------------------------------
# Example 2 (Sections 3.3/4.1, right): consumer reading locations
# ----------------------------------------------------------------------

def example2_segment() -> List[AccessSpec]:
    """lock L (miss); read C (miss); read D (hit); read E[D] (miss,
    address depends on D); unlock L (hit)."""
    return [
        AccessSpec("lock L", ACQUIRE, hit=False),
        AccessSpec("read C", PLAIN_LOAD, hit=False),
        AccessSpec("read D", PLAIN_LOAD, hit=True),
        AccessSpec("read E[D]", PLAIN_LOAD, hit=False, deps=("read D",)),
        AccessSpec("unlock L", RELEASE, hit=True),
    ]


def example2_program(realistic_lock: bool = False) -> PaperWorkload:
    b = ProgramBuilder()
    if realistic_lock:
        b.lock(addr=LOCK, tag="lock L")
    else:
        b.lock_optimistic(addr=LOCK, tag="lock L")
    b.load("r1", addr=C, tag="read C")
    b.load("r2", addr=D, tag="read D")
    b.load("r3", base="r2", addr=E_BASE, tag="read E[D]")
    b.unlock(addr=LOCK, tag="unlock L")
    return PaperWorkload(
        name="example2",
        program=b.build(),
        warm_lines=[(0, D, False)],
        initial_memory={LOCK: 0, D: 0},
        access_tags=["lock L", "read C", "read D", "read E[D]", "unlock L"],
    )


# ----------------------------------------------------------------------
# Figure 5 code segment (Section 4.3)
# ----------------------------------------------------------------------

def figure5_segment() -> List[AccessSpec]:
    """read A (miss); write B (miss); write C (miss); read D (hit);
    read E[D] (miss, depends on D)."""
    return [
        AccessSpec("read A", PLAIN_LOAD, hit=False),
        AccessSpec("write B", PLAIN_STORE, hit=False),
        AccessSpec("write C", PLAIN_STORE, hit=False),
        AccessSpec("read D", PLAIN_LOAD, hit=True),
        AccessSpec("read E[D]", PLAIN_LOAD, hit=False, deps=("read D",)),
    ]


def figure5_program() -> PaperWorkload:
    b = ProgramBuilder()
    b.load("r1", addr=A, tag="read A")
    b.store_imm(1, addr=B, tag="write B")
    b.store_imm(1, addr=C, tag="write C")
    b.load("r2", addr=D, tag="read D")
    b.load("r3", base="r2", addr=E_BASE, tag="read E[D]")
    return PaperWorkload(
        name="figure5",
        program=b.build(),
        warm_lines=[(0, D, False)],
        initial_memory={D: 0},
        access_tags=["read A", "write B", "write C", "read D", "read E[D]"],
    )


#: The detailed-simulator kernels by name: ``python -m repro.run
#: --example``, ``python -m repro.obs breakdown`` and the stall-breakdown
#: matrix all choose from this list.
PAPER_EXAMPLES: Dict[str, Callable[[], PaperWorkload]] = {
    "example1": example1_program,
    "example2": example2_program,
    "figure5": figure5_program,
}


#: Expected totals from the paper, keyed (example, model, technique).
PAPER_CYCLE_COUNTS: Dict[Tuple[str, str, str], int] = {
    ("example1", "SC", "baseline"): 301,
    ("example1", "RC", "baseline"): 202,
    ("example1", "SC", "prefetch"): 103,
    ("example1", "RC", "prefetch"): 103,
    ("example2", "SC", "baseline"): 302,
    ("example2", "RC", "baseline"): 203,
    ("example2", "SC", "prefetch"): 203,
    ("example2", "RC", "prefetch"): 202,
    ("example2", "SC", "prefetch+speculation"): 104,
    ("example2", "RC", "prefetch+speculation"): 104,
}
