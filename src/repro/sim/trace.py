"""Structured trace recording.

The Figure 5 reproduction needs an event-by-event record of the reorder
buffer, store buffer, speculative-load buffer, and cache contents.  The
:class:`TraceRecorder` collects :class:`TraceEvent` records emitted by
components; it is the only thing they record into.  Every view of a run
(the ``--trace`` listing, the Perfetto timeline, the trace sanitizer,
the canonical archtrace) is a function of its ``events`` after the run.

Long runs should bound the recorder with ``max_events``: it then keeps
the *first* N events and counts the rest in ``dropped`` (the archtrace
differ localizes the first divergence, so the head is what matters).
Post-processors check ``dropped`` to know whether they saw a complete
run.  A ``stream`` receives every event, dropped ones too, as one flat
JSON object per line, so ``jq`` and line-oriented tools work on it::

    {"cycle":12,"detail":{...},"kind":"load_issue","source":"cpu0/lsu"}

:func:`read_jsonl` loads such a stream back into :class:`TraceEvent`
records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Union


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

    def to_json(self) -> str:
        """The event as one compact JSON line (no newline)."""
        return json.dumps(
            {"cycle": self.cycle, "source": self.source,
             "kind": self.kind, "detail": self.detail},
            separators=(",", ":"), sort_keys=True)


def source_cpu(source: str) -> Optional[int]:
    """The CPU an event ``source`` names: ``cpu3``, ``cpu3/lsu`` and
    ``cache3`` -> 3; the directory, the interconnect and any other
    name -> None."""
    head = source.partition("/")[0]
    for prefix in ("cpu", "cache"):
        index = head[len(prefix):]
        if head.startswith(prefix) and index.isdecimal():
            return int(index)
    return None


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records.

    ``max_events`` keeps the first N events and counts later ones in
    ``dropped``; ``None`` keeps everything.  ``stream`` (an open text
    file, closed by its owner) gets every event as a JSONL line as it
    arrives, whether or not the bound kept it.
    """

    #: bound batch entry points default to (``run.py``); interactive and
    #: test uses keep everything
    DEFAULT_BATCH_MAX_EVENTS = 200_000

    def __init__(
        self,
        enabled: bool = True,
        max_events: Optional[int] = None,
        stream: Optional[IO[str]] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1 or None, got {max_events}")
        self.events: List[TraceEvent] = []
        self.enabled = enabled
        self.max_events = max_events
        self.stream = stream
        self.dropped = 0

    def record(self, cycle: int, source: str, kind: str,
               **detail: Any) -> None:
        """Keep the event (a no-op when not ``enabled``)."""
        if not self.enabled:
            return
        event = TraceEvent(cycle, source, kind, detail)
        if self.stream is not None:
            self.stream.write(event.to_json() + "\n")
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
        else:
            self.events.append(event)

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = frozenset(kinds)
        return [ev for ev in self.events if ev.kind in wanted]

    def first(self, kind: str) -> Optional[TraceEvent]:
        for ev in self.events:
            if ev.kind == kind:
                return ev
        return None

    def render(self) -> str:
        return "\n".join(ev.describe() for ev in self.events)


def read_jsonl(source: Union[str, IO[str]]) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records.

    Raises ``ValueError`` naming the line for a line that is not a JSON
    object with ``cycle``, ``source`` and ``kind``.
    """
    if isinstance(source, str):
        with open(source) as fh:
            return read_jsonl(fh)
    events: List[TraceEvent] = []
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"line {lineno}: not a JSON object")
        for key in ("cycle", "source", "kind"):
            if key not in obj:
                raise ValueError(f"line {lineno}: missing {key!r}")
        events.append(TraceEvent(cycle=obj["cycle"], source=obj["source"],
                                 kind=obj["kind"],
                                 detail=obj.get("detail", {})))
    return events
