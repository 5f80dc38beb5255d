"""Streaming JSONL trace sink.

The in-memory :class:`~repro.sim.trace.TraceRecorder` bounds itself
with a ring buffer on long runs; when a *complete* event log is wanted
anyway (offline analysis, the Perfetto converter, diffing two runs),
:class:`JsonlTraceRecorder` streams every event to disk as one JSON
object per line while the in-memory window stays bounded.

The format is deliberately flat so ``jq`` and line-oriented tools work
directly::

    {"cycle": 12, "source": "cpu0/lsu", "kind": "load_issue", "detail": {...}}

:func:`write_jsonl` dumps an already-recorded trace in the same
format, and :func:`read_jsonl` loads either back into
:class:`TraceEvent` records.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, List, Optional, Union

from ..sim.trace import TraceEvent, TraceRecorder


def event_to_json(event: TraceEvent) -> str:
    """One event as a compact single-line JSON object."""
    return json.dumps(
        {"cycle": event.cycle, "source": event.source,
         "kind": event.kind, "detail": event.detail},
        separators=(",", ":"), sort_keys=True)


def write_jsonl(events: Iterable[TraceEvent],
                target: Union[str, IO[str]]) -> int:
    """Write ``events`` to ``target`` (path or text stream); returns the
    number of lines written."""
    if isinstance(target, str):
        with open(target, "w") as fh:
            return write_jsonl(events, fh)
    n = 0
    for event in events:
        target.write(event_to_json(event) + "\n")
        n += 1
    return n


def read_jsonl(source: Union[str, IO[str]]) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records."""
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
        for key in ("cycle", "source", "kind"):
            if key not in obj:
                raise ValueError(f"line {lineno}: missing {key!r}")
        events.append(TraceEvent(cycle=obj["cycle"], source=obj["source"],
                                 kind=obj["kind"],
                                 detail=obj.get("detail", {})))
    return events


class JsonlTraceRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that *also* streams every event to a
    JSONL file.

    The in-memory side keeps the normal recorder semantics (optional
    ``max_events`` ring buffer), so post-run code that inspects
    ``events`` still works; the stream receives every event, including
    ones the ring buffer later discards.  ``streamed`` counts the lines
    written.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(self, path: str, max_events: Optional[int] = None) -> None:
        super().__init__(enabled=True, max_events=max_events)
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w")
        self.streamed = 0

    def record(self, cycle: int, source: str, kind: str,
               **detail: Any) -> Optional[TraceEvent]:
        event = super().record(cycle, source, kind, **detail)
        if event is not None and self._fh is not None:
            self._fh.write(event_to_json(event) + "\n")
            self.streamed += 1
        return event

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
