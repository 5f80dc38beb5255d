"""Structured span tracing for the orchestration layer.

The simulator's Perfetto export (:mod:`repro.obs.perfetto`) renders the
*guest* timeline — one simulated cycle per microsecond.  This module
traces the *host orchestration*: verify campaign → sweep run → item,
batch runner compile/step/fallback phases.
Spans are recorded as plain dicts, cheap enough to leave on for whole
fuzz campaigns (a few spans per item, not per cycle), and exported
as Chrome ``trace_event`` JSON that passes
:func:`repro.obs.perfetto.validate_trace_events`.

Cross-process story: timestamps are **wall-clock microseconds**
(``time.time_ns() // 1000``), not a per-process monotonic origin, and
every span carries the real ``os.getpid()``.  A ProcessPool worker
records spans into its own item-local tracer, ships them back with
:meth:`SpanTracer.to_state` beside the item's result, and the sweep
parent absorbs them — so a ``--jobs 4`` campaign renders as **one**
merged trace with five aligned process tracks (the parent plus four
workers), each labelled via ``process_name`` metadata.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

#: bump when the shipped span layout changes incompatibly
SPANS_SCHEMA = "repro-spans/1"


def now_us() -> int:
    """Wall-clock microseconds — comparable across processes."""
    return time.time_ns() // 1000


class SpanTracer:
    """Append-only list of completed spans for one process (or one
    worker item, when used item-locally for shipping)."""

    def __init__(self, process: Optional[str] = None) -> None:
        self.spans: List[Dict[str, object]] = []
        #: human name for this process's track (``process_name`` metadata)
        self.process = process or f"pid {os.getpid()}"
        self._pid = os.getpid()
        #: other processes' track names, keyed by pid (absorbed state)
        self._process_names: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording ------------------------------------------------------

    def record(self, name: str, start_us: int, end_us: int,
               args: Optional[Mapping[str, object]] = None) -> None:
        span: Dict[str, object] = {
            "name": name,
            "ts": start_us,
            "dur": max(0, end_us - start_us),
            "pid": self._pid,
        }
        if args:
            span["args"] = dict(args)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str,
             args: Optional[Mapping[str, object]] = None
             ) -> Iterator[Dict[str, object]]:
        """Time a block.  The yielded dict lands in the span's ``args``;
        instrumentation sites may add fields to it mid-flight (e.g. an
        item span recording how many legs it ran)."""
        mutable: Dict[str, object] = dict(args) if args else {}
        start = now_us()
        try:
            yield mutable
        finally:
            self.record(name, start, now_us(), mutable or None)

    # -- merging / shipping --------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Picklable serialization for cross-process shipping."""
        names = dict(self._process_names)
        names[self._pid] = self.process
        return {
            "schema": SPANS_SCHEMA,
            "spans": list(self.spans),
            "process_names": names,
        }

    def absorb_state(self, state: Mapping[str, object]) -> None:
        """Fold a shipped worker tracer into this one.  Wall-clock
        timestamps make this a plain concatenation — no rebasing."""
        self.spans.extend(state.get("spans", ()))  # type: ignore[arg-type]
        for pid, name in dict(state.get("process_names", {})).items():  # type: ignore[call-overload]
            self._process_names[int(pid)] = str(name)

    # -- export ---------------------------------------------------------

    def to_trace_events(self) -> List[Dict[str, object]]:
        """Chrome ``trace_event`` objects: one ``ph: "X"`` duration
        event per span plus ``ph: "M"`` process/thread metadata per pid,
        conforming to :func:`repro.obs.perfetto.validate_trace_events`.

        Timestamps are rebased so the earliest span starts at 0 (the
        Perfetto UI dislikes epoch-scale offsets); relative alignment
        across processes is preserved because all clocks are wall time.
        """
        if not self.spans:
            return []
        origin = min(int(s["ts"]) for s in self.spans)
        names = dict(self._process_names)
        names.setdefault(self._pid, self.process)
        events: List[Dict[str, object]] = []
        for pid in sorted(names):
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": names[pid]}})
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": 0, "args": {"name": "orchestration"}})
        for span in self.spans:
            event: Dict[str, object] = {
                "ph": "X",
                "name": span["name"],
                "ts": int(span["ts"]) - origin,
                "dur": int(span["dur"]),
                "pid": span["pid"],
                "tid": 0,
                "cat": "orchestration",
            }
            if "args" in span:
                event["args"] = span["args"]
            events.append(event)
        return events

    def write_perfetto(self, path: str, label: str = "campaign") -> None:
        """Write a Perfetto-loadable trace file (validated shape)."""
        import json
        payload = {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "repro.obs.telemetry",
                "schema": SPANS_SCHEMA,
                "label": label,
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
