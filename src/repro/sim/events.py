"""Discrete event queue used by the memory system.

The processor pipeline is cycle-driven (each component has a ``tick``),
but message deliveries and memory responses are naturally modelled as
*events*: callbacks scheduled for a future cycle.  The queue is a binary
heap keyed on ``(cycle, sequence)`` so that events scheduled for the same
cycle fire in the order they were scheduled — this keeps simulations
fully deterministic.

The queue keeps a pop horizon: once events due at cycle *c* have been
drained, scheduling a new event before *c* is an error rather than a
silently late firing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from .errors import ConfigurationError

EventCallback = Callable[[], Any]


class EventQueue:
    """Deterministic min-heap of ``(cycle, seq, callback)`` entries."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop every pending event and restart the sequence numbers."""
        self._heap: List[Tuple[int, int, EventCallback]] = []
        self._counter = itertools.count()
        self._popped_through = -1  # latest cycle handed to run_due

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, cycle: int, callback: EventCallback) -> None:
        """Schedule ``callback`` to run at ``cycle``.

        ``cycle`` must not be in the past: once :meth:`run_due` has
        drained events due at some cycle, scheduling before that cycle
        raises (a past event would otherwise fire silently late).
        """
        if cycle < 0:
            raise ConfigurationError(f"cannot schedule event at negative cycle {cycle}")
        if cycle < self._popped_through:
            raise ConfigurationError(
                f"cannot schedule event at cycle {cycle}: events due at or "
                f"before cycle {self._popped_through} have already fired")
        heapq.heappush(self._heap, (cycle, next(self._counter), callback))

    def next_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or ``None`` if empty."""
        return self._heap[0][0] if self._heap else None

    def run_due(self, cycle: int) -> int:
        """Fire every event due at or before ``cycle``; return count fired.

        Events scheduled *during* the sweep for the same cycle also fire,
        so a message that triggers an immediate (zero-latency) response
        within the same cycle is handled before the pipeline ticks.
        """
        if cycle > self._popped_through:
            self._popped_through = cycle
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= cycle:
            heapq.heappop(heap)[2]()
            fired += 1
        return fired
