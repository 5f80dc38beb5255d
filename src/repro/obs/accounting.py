"""Cycle accounting: blame every cycle on exactly one cause.

The paper's central results (Figures 3-7) are *normalized execution
time breakdowns*: each model x technique bar splits total time into
busy time and per-cause stall time.  This module reproduces that
accounting on the detailed simulator.

Every cycle of every CPU is attributed to exactly one
:class:`StallCause`, decided by commit-blame: if at least one
instruction retired this cycle the cycle was *busy*; otherwise the
oldest instruction in the reorder buffer (the retirement bottleneck) is
blamed —

* an acquire (lock RMW or acquiring load) at the head is an
  **acquire/fence stall**;
* any other load at the head is a **read stall**;
* a store or plain RMW at the head is a **write/store-buffer stall**
  (this is where SC's store-completion rule shows up);
* a non-memory head that cannot complete while the reorder buffer is
  full is a **ROB-full stall**;
* cycles spent refilling the pipeline after a squash (branch
  mispredict or speculative-load correction) are **rollback**;
* everything else — frontend fill, in-flight ALU work — counts as
  busy; the cycles before a CPU's start cycle (a start skew), and the
  cycles after a finished program has fully drained, are **idle**
  (only visible on multiprocessor runs where another CPU is still
  working, and in the few fabric-drain cycles at the end).

Because the classification is total and exclusive, the per-CPU cause
counters sum *exactly* to the run's cycle count — the invariant the
golden-number breakdown tests pin.

Counters land in the shared :class:`~repro.sim.stats.StatsRegistry`
under ``cpu<k>/cycles/<cause>``, so breakdowns from parallel sweep
workers aggregate with :meth:`StatsRegistry.merge_from` like every
other statistic.

This module deliberately imports nothing above ``repro.sim`` so the
processor can depend on it without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim.state import FIXED, Value, reset
from ..sim.stats import Counter, StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..cpu.rob import RobEntry
    from ..isa.instructions import Instruction


class StallCause(enum.Enum):
    """Where a CPU cycle went.  Values double as stat-name suffixes."""

    BUSY = "busy"
    READ = "read_stall"
    WRITE = "write_stall"
    ACQUIRE = "acquire_stall"
    ROB_FULL = "rob_full"
    ROLLBACK = "rollback"
    IDLE = "idle"


#: All causes, in report order (busy first, idle last).
CAUSES = tuple(StallCause)

#: The paper's four headline categories (Figures 3-7 bar segments).
PAPER_CAUSES = (StallCause.BUSY, StallCause.READ, StallCause.WRITE,
                StallCause.ACQUIRE)


class CycleAccountant:
    """Per-CPU cycle blame, fed once per tick by the processor."""

    #: ``_refilling``: between a squash and the next retirement
    STATE = dict(name=FIXED, _counters=FIXED, _refilling=Value(False))

    def __init__(self, stats: StatsRegistry, name: str) -> None:
        self.name = name
        # keyed by ``cause.value``, read as the plain attribute
        # ``_value_``: the lookup runs once per cycle, and a str hashes
        # in C where an Enum member's hash (and ``.value``) is a Python
        # call
        self._counters = {
            cause.value: stats.counter(f"{name}/cycles/{cause.value}")
            for cause in CAUSES
        }
        reset(self)

    # ------------------------------------------------------------------
    def note_squash(self) -> None:
        """The processor discarded in-flight work; until something
        retires again, otherwise-unattributable cycles are rollback."""
        self._refilling = True

    def account(self, retired: int, head: Optional["RobEntry"],
                rob_full: bool) -> Counter:
        """Attribute the cycle that just executed (active program);
        returns the counter it charged."""
        counter = self._counters[
            self._classify(retired, head, rob_full)._value_]
        counter.inc()
        return counter

    def account_idle(self) -> Counter:
        """Attribute a cycle before the CPU's start: idle.  Returns the
        counter it charged."""
        counter = self._counters[StallCause.IDLE._value_]
        counter.inc()
        return counter

    def account_drained(self, lsu_empty: bool) -> Counter:
        """Attribute a cycle after the program retired its Halt: the
        store buffer may still be draining (write stall), after which
        the CPU is idle.  Returns the counter it charged."""
        cause = StallCause.IDLE if lsu_empty else StallCause.WRITE
        counter = self._counters[cause._value_]
        counter.inc()
        return counter

    # ------------------------------------------------------------------
    @staticmethod
    def head_blame(instr: "Instruction") -> Optional[StallCause]:
        """The stall a memory instruction blocking the reorder-buffer
        head is charged to; ``None`` for everything else, whose blame
        depends on the state of the window.  Fixed per static
        instruction: decode works it out once (``Decoded.head_blame``)."""
        if not instr.is_memory:
            return None
        if instr.is_acquire:
            return StallCause.ACQUIRE
        if instr.is_store or instr.is_rmw:
            return StallCause.WRITE
        return StallCause.READ

    def _classify(self, retired: int, head: Optional["RobEntry"],
                  rob_full: bool) -> StallCause:
        if retired > 0:
            self._refilling = False
            return StallCause.BUSY
        if head is None:
            # empty window: the frontend is filling — after a squash
            # that refill time is the visible cost of the rollback
            return StallCause.ROLLBACK if self._refilling else StallCause.BUSY
        blame = head.row.head_blame
        if blame is not None:
            return blame
        if self._refilling:
            return StallCause.ROLLBACK
        if rob_full:
            return StallCause.ROB_FULL
        return StallCause.BUSY


@dataclass
class CycleBreakdown:
    """One CPU's cycle-cause totals (the data behind one paper bar)."""

    counts: Dict[StallCause, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, cause: StallCause) -> int:
        return self.counts.get(cause, 0)

    def fraction(self, cause: StallCause) -> float:
        total = self.total
        return self.get(cause) / total if total else 0.0

    def normalized(self, baseline_total: int) -> Dict[StallCause, float]:
        """Each cause as a percentage of ``baseline_total`` (the
        paper's convention: every bar is scaled so the model's baseline
        bar is 100)."""
        if baseline_total <= 0:
            return {cause: 0.0 for cause in CAUSES}
        return {cause: 100.0 * self.get(cause) / baseline_total
                for cause in CAUSES}

    def merged_with(self, other: "CycleBreakdown") -> "CycleBreakdown":
        counts = dict(self.counts)
        for cause, n in other.counts.items():
            counts[cause] = counts.get(cause, 0) + n
        return CycleBreakdown(counts)

    def as_dict(self) -> Dict[str, int]:
        return {cause.value: self.get(cause) for cause in CAUSES}


def breakdown_from_stats(stats: StatsRegistry, cpu: int,
                         prefix: str = "") -> CycleBreakdown:
    """Read one CPU's breakdown back out of a (possibly merged) registry.

    ``prefix`` addresses counters aggregated with
    ``StatsRegistry.merge_from(other, prefix=...)``.  Reading registers
    nothing: a counter missing from ``stats`` raises a ``KeyError`` that
    names it."""
    head = f"{prefix}cpu{cpu}/cycles/"
    counters = stats.counters(head)
    missing = [head + cause.value for cause in CAUSES
               if head + cause.value not in counters]
    if missing:
        raise KeyError(f"no counter {', '.join(map(repr, missing))} "
                       "is registered")
    return CycleBreakdown({cause: counters[head + cause.value]
                           for cause in CAUSES})


def per_cpu_breakdowns(stats: StatsRegistry, num_cpus: int) -> List[CycleBreakdown]:
    return [breakdown_from_stats(stats, cpu) for cpu in range(num_cpus)]


def machine_breakdown(stats: StatsRegistry, num_cpus: int) -> CycleBreakdown:
    """All CPUs' causes summed — the machine-wide stall distribution."""
    total = CycleBreakdown()
    for bd in per_cpu_breakdowns(stats, num_cpus):
        total = total.merged_with(bd)
    return total

