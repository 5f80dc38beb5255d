"""Structured trace recording.

The Figure 5 reproduction needs an event-by-event record of the reorder
buffer, store buffer, speculative-load buffer, and cache contents.  The
:class:`TraceRecorder` collects :class:`TraceEvent` records emitted by
components; tests and benchmarks assert against the recorded sequence.

Long batch runs should bound the recorder with ``max_events``: the
recorder then behaves as a ring buffer that keeps the most recent
events and counts the rest in ``dropped`` instead of growing without
limit.  Post-processors (the trace sanitizer, the Perfetto exporter)
can check ``dropped`` to know whether they saw a complete run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event.

    ``kind`` is a short machine-readable tag (``"issue"``, ``"squash"``,
    ``"inval"``, ...); ``detail`` carries event-specific payload such as
    the instruction label or the buffer snapshot.
    """

    cycle: int
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.cycle:>6}] {self.source:<14} {self.kind:<18} {extras}"


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records.

    Recording can be filtered by ``kinds`` to keep long simulations
    cheap; with ``kinds=None`` everything is kept.  ``max_events``
    turns the recorder into a bounded ring buffer: once full, the
    oldest event is discarded for each new one and ``dropped`` counts
    the discards.  ``max_events=None`` keeps everything (the historical
    behaviour, right for short runs and golden-trace tests).
    """

    #: ring-buffer bound batch entry points default to (``run.py``,
    #: benchmark drivers); interactive/test uses keep everything
    DEFAULT_BATCH_MAX_EVENTS = 200_000

    def __init__(
        self,
        kinds: Optional[Iterable[str]] = None,
        enabled: bool = True,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1 or None, got {max_events}")
        self._events: Deque[TraceEvent] = deque()
        self._kinds = frozenset(kinds) if kinds is not None else None
        self.enabled = enabled
        self.max_events = max_events
        self.dropped = 0

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a fresh list)."""
        return list(self._events)

    def record(self, cycle: int, source: str, kind: str,
               **detail: Any) -> Optional[TraceEvent]:
        """Keep the event unless filtered out; returns the event kept
        (``None`` when dropped by ``enabled``/``kinds``)."""
        if not self.enabled:
            return None
        if self._kinds is not None and kind not in self._kinds:
            return None
        if self.max_events is not None and len(self._events) >= self.max_events:
            self._events.popleft()
            self.dropped += 1
        event = TraceEvent(cycle, source, kind, dict(detail))
        self._events.append(event)
        return event

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = frozenset(kinds)
        return [ev for ev in self._events if ev.kind in wanted]

    def first(self, kind: str) -> Optional[TraceEvent]:
        for ev in self._events:
            if ev.kind == kind:
                return ev
        return None

    def render(self) -> str:
        return "\n".join(ev.describe() for ev in self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


class NullTraceRecorder(TraceRecorder):
    """A recorder that drops everything (default when tracing is off)."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def record(self, cycle: int, source: str, kind: str, **detail: Any) -> None:
        return
