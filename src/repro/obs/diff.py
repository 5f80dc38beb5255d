"""Archtrace differ (``repro.obs.diff``).

Given two archtraces of the *same job* (two code revisions, a faulted
and a clean run), find the first divergent event, classify
the divergence, and render an aligned context window plus a
cycle-blame delta.

Divergence classes (checked in precedence order):

``architectural``
    The per-CPU *cycle-stripped* instruction-event streams disagree:
    some CPU retired/performed a different sequence of
    ``(seq, kind, payload)`` events — different values, different
    squashes, extra or missing operations.  This is the serious class:
    the two runs executed different architectures.  The report pins the
    first per-CPU mismatch (the localizer's answer).

``final-state``
    The instruction-event streams agree but the footers' final memory
    words differ — the runs agree on every traced event yet end in
    different states (possible when the divergence is outside the
    traced window, e.g. a truncated stream).

``timing-only``
    Raw event lines differ (cycle counts, coherence traffic order) or
    the footers do (total cycles, cycle blame, dropped events), but
    every CPU's cycle-stripped instruction stream and the final memory
    agree.  Harmless for correctness; the blame delta shows *where* the
    cycles went.

``identical``
    Byte-identical event bodies and footers.

:func:`diff_archtraces` compares two :class:`~repro.obs.archtrace.ArchTrace`
values; :func:`diff_main` reads two files and compares what they hold.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .archtrace import ArchEvent, ArchTrace

#: instruction-stream kinds — the architectural projection; coherence
#: events (fill/evict/inval/downgrade) are timing-domain and only
#: participate in the raw (timing) comparison
ARCH_KINDS = ("retire", "load", "store", "rmw", "squash")

CLASSIFICATIONS = ("identical", "timing-only", "architectural",
                   "final-state")


@dataclass
class DivergenceReport:
    """The differ's verdict on one pair of archtraces."""

    classification: str
    label_a: str = "a"
    label_b: str = "b"
    header_a: Dict[str, Any] = field(default_factory=dict)
    header_b: Dict[str, Any] = field(default_factory=dict)
    #: first raw (timing-sensitive) mismatch: index + rendered events
    first_raw_index: Optional[int] = None
    first_raw_a: Optional[str] = None
    first_raw_b: Optional[str] = None
    #: first per-CPU architectural mismatch (the localizer's answer)
    arch_cpu: Optional[int] = None
    arch_event_a: Optional[str] = None
    arch_event_b: Optional[str] = None
    #: aligned context: events straddling the first raw mismatch
    context_a: List[str] = field(default_factory=list)
    context_b: List[str] = field(default_factory=list)
    #: footer deltas
    cycles_a: Optional[int] = None
    cycles_b: Optional[int] = None
    memory_delta: Dict[str, Tuple[Optional[int], Optional[int]]] = \
        field(default_factory=dict)
    #: per-CPU blame delta: cause -> cycles_b - cycles_a
    blame_delta: List[Dict[str, int]] = field(default_factory=list)
    #: events dropped by either recorder's cap (incomplete streams)
    dropped_a: int = 0
    dropped_b: int = 0
    events_a: int = 0
    events_b: int = 0

    @property
    def divergent(self) -> bool:
        return self.classification != "identical"

    @property
    def incomplete(self) -> bool:
        return self.dropped_a > 0 or self.dropped_b > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "classification": self.classification,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "header_a": self.header_a,
            "header_b": self.header_b,
            "first_raw_index": self.first_raw_index,
            "first_raw_a": self.first_raw_a,
            "first_raw_b": self.first_raw_b,
            "arch_cpu": self.arch_cpu,
            "arch_event_a": self.arch_event_a,
            "arch_event_b": self.arch_event_b,
            "context_a": self.context_a,
            "context_b": self.context_b,
            "cycles_a": self.cycles_a,
            "cycles_b": self.cycles_b,
            "memory_delta": {k: list(v)
                             for k, v in self.memory_delta.items()},
            "blame_delta": self.blame_delta,
            "dropped_a": self.dropped_a,
            "dropped_b": self.dropped_b,
            "events_a": self.events_a,
            "events_b": self.events_b,
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "DivergenceReport":
        kwargs = dict(obj)
        kwargs["memory_delta"] = {
            k: tuple(v) for k, v in obj.get("memory_delta", {}).items()}
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        lines = [f"divergence: {self.classification} "
                 f"({self.label_a} vs {self.label_b})"]
        if self.incomplete:
            lines.append(f"  WARNING: incomplete streams "
                         f"(dropped {self.dropped_a} vs {self.dropped_b} "
                         f"events past the recorder cap)")
        if self.classification == "identical":
            lines.append(f"  {self.events_a} events, bit-identical bodies")
            return "\n".join(lines)
        if self.arch_event_a is not None or self.arch_event_b is not None:
            lines.append(f"  first divergent architectural event "
                         f"(cpu{self.arch_cpu}):")
            lines.append(f"    {self.label_a}: "
                         f"{self.arch_event_a or '<no event>'}")
            lines.append(f"    {self.label_b}: "
                         f"{self.arch_event_b or '<no event>'}")
        if self.first_raw_index is not None:
            lines.append(f"  first raw mismatch at event "
                         f"#{self.first_raw_index}:")
            lines.append(f"    {self.label_a}: "
                         f"{self.first_raw_a or '<end of stream>'}")
            lines.append(f"    {self.label_b}: "
                         f"{self.first_raw_b or '<end of stream>'}")
            if self.context_a or self.context_b:
                lines.append(f"  context ({self.label_a}):")
                lines.extend(f"    {line}" for line in self.context_a)
                lines.append(f"  context ({self.label_b}):")
                lines.extend(f"    {line}" for line in self.context_b)
        if self.memory_delta:
            lines.append("  final-memory delta (addr: "
                         f"{self.label_a} vs {self.label_b}):")
            for addr, (va, vb) in sorted(self.memory_delta.items(),
                                         key=lambda kv: int(kv[0])):
                lines.append(f"    [{addr}]: {va} vs {vb}")
        if (self.cycles_a is not None and self.cycles_b is not None
                and self.cycles_a != self.cycles_b):
            lines.append(f"  cycles: {self.cycles_a} vs {self.cycles_b} "
                         f"(delta {self.cycles_b - self.cycles_a:+d})")
        blame = [(cpu, deltas) for cpu, deltas in enumerate(self.blame_delta)
                 if any(deltas.values())]
        if blame:
            lines.append(f"  blame delta ({self.label_b} - {self.label_a}):")
            for cpu, deltas in blame:
                shown = ", ".join(f"{cause} {delta:+d}"
                                  for cause, delta in sorted(deltas.items())
                                  if delta)
                lines.append(f"    cpu{cpu}: {shown}")
        return "\n".join(lines)


def _first_difference(xs: Sequence[Any], ys: Sequence[Any]) -> Optional[int]:
    """The first index where ``xs`` and ``ys`` differ (one running out
    counts), or None when they are equal."""
    for index, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return index
    return None if len(xs) == len(ys) else min(len(xs), len(ys))


def _describe_at(events: Sequence[ArchEvent], index: int) -> Optional[str]:
    return events[index].describe() if index < len(events) else None


def _first_arch_mismatch(a: ArchTrace, b: ArchTrace
                         ) -> Optional[Tuple[int, List[ArchEvent],
                                             List[ArchEvent], int]]:
    """The earliest per-CPU mismatch of the cycle-stripped instruction
    streams, as (cpu, stream of a, stream of b, index): by event cycle
    (the present side's when one side lacks the event), then by cpu."""
    found = []
    for cpu in sorted({ev.cpu for ev in a.events + b.events}):
        sa, sb = ([ev for ev in trace.events
                   if ev.cpu == cpu and ev.kind in ARCH_KINDS]
                  for trace in (a, b))
        index = _first_difference([ev.arch_key() for ev in sa],
                                  [ev.arch_key() for ev in sb])
        if index is not None:
            cycle = min(s[index].cycle for s in (sa, sb) if index < len(s))
            found.append((cycle, cpu, sa, sb, index))
    return min(found, key=lambda item: item[:2])[1:] if found else None


def diff_archtraces(a: ArchTrace, b: ArchTrace,
                    label_a: str = "a", label_b: str = "b",
                    context: int = 5) -> DivergenceReport:
    """Classify how ``b`` diverges from ``a`` (see the module docstring)."""
    memory_delta: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
    for addr in sorted(set(a.final_memory) | set(b.final_memory)):
        va, vb = a.final_memory.get(addr), b.final_memory.get(addr)
        if va != vb:
            memory_delta[str(addr)] = (va, vb)

    raw = _first_difference(a.events, b.events)
    arch = _first_arch_mismatch(a, b)
    if arch is not None:
        classification = "architectural"
    elif memory_delta:
        classification = "final-state"
    elif raw is not None or a.footer() != b.footer():
        classification = "timing-only"
    else:
        classification = "identical"

    blame_delta: List[Dict[str, int]] = []
    for cpu in range(max(len(a.breakdowns), len(b.breakdowns))):
        da = a.breakdowns[cpu] if cpu < len(a.breakdowns) else {}
        db = b.breakdowns[cpu] if cpu < len(b.breakdowns) else {}
        blame_delta.append({cause: db.get(cause, 0) - da.get(cause, 0)
                            for cause in sorted(set(da) | set(db))})

    report = DivergenceReport(
        classification=classification,
        label_a=label_a, label_b=label_b,
        header_a=a.header(), header_b=b.header(),
        cycles_a=a.cycles, cycles_b=b.cycles,
        memory_delta=memory_delta,
        blame_delta=blame_delta,
        dropped_a=a.dropped, dropped_b=b.dropped,
        events_a=len(a.events), events_b=len(b.events),
    )
    if raw is not None:
        report.first_raw_index = raw
        report.first_raw_a = _describe_at(a.events, raw)
        report.first_raw_b = _describe_at(b.events, raw)
        report.context_a = _context(a.events, raw, context)
        report.context_b = _context(b.events, raw, context)
    if arch is not None:
        report.arch_cpu, sa, sb, index = arch
        report.arch_event_a = _describe_at(sa, index)
        report.arch_event_b = _describe_at(sb, index)
    return report


def _context(events: Sequence[ArchEvent], index: int,
             context: int) -> List[str]:
    """Up to ``context`` events either side of the mismatch at
    ``index``, with a marker where this side's mismatching event is."""
    before = events[max(index - context, 0):index]
    after = events[index + 1:index + 1 + context]
    marker = ["--- divergence ---"] if index < len(events) else []
    return ([ev.describe() for ev in before] + marker
            + [ev.describe() for ev in after])


def diff_main(path_a: str, path_b: str, context: int = 5,
              as_json: bool = False) -> int:
    """CLI body for ``python -m repro.obs diff``: 0 identical,
    1 divergent, 2 unreadable input."""
    try:
        a, b = ArchTrace.read_jsonl(path_a), ArchTrace.read_jsonl(path_b)
    except (OSError, ValueError) as exc:    # missing / malformed file
        print(f"error: cannot read archtrace: {exc}", file=sys.stderr)
        return 2
    report = diff_archtraces(a, b, label_a=path_a, label_b=path_b,
                             context=context)
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 1 if report.divergent else 0
