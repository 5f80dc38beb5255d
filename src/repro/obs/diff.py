"""Streaming archtrace differ (``repro.obs.diff``).

Given two serialized archtraces of the *same job* (two code revisions,
a faulted and a clean run), find the first divergent event, classify
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
    Raw event lines differ (cycle counts, coherence traffic order,
    total cycles) but every CPU's cycle-stripped instruction stream
    and the final memory agree.  Harmless for correctness; the blame
    delta shows *where* the cycles went.

``identical``
    Byte-identical event bodies and footers.

The differ is streaming: both files are walked once, keeping only
bounded context windows and per-CPU pending queues (which stay shallow
while the streams agree and are frozen per-CPU at the first mismatch).
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .archtrace import ArchEvent, ArchTraceReader

#: instruction-stream kinds — the architectural projection; coherence
#: events (fill/evict/inval/downgrade) are timing-domain and only
#: participate in the raw (timing) comparison
ARCH_KINDS = ("retire", "load", "store", "rmw", "squash")

CLASSIFICATIONS = ("identical", "timing-only", "architectural",
                   "final-state")


def _fmt(ev: Optional[ArchEvent]) -> Optional[str]:
    return None if ev is None else ev.describe()


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


class _ArchMatcher:
    """Per-CPU cycle-stripped instruction-stream matcher."""

    def __init__(self) -> None:
        self.pend_a: Dict[int, deque] = {}
        self.pend_b: Dict[int, deque] = {}
        # cpu -> (ArchEvent|None, ArchEvent|None) at first mismatch
        self.mismatch: Dict[int, Tuple[Optional[ArchEvent],
                                       Optional[ArchEvent]]] = {}

    def push(self, side: str, ev: ArchEvent) -> None:
        if ev.kind not in ARCH_KINDS or ev.cpu in self.mismatch:
            return
        mine = self.pend_a if side == "a" else self.pend_b
        mine.setdefault(ev.cpu, deque()).append(ev)
        self._drain(ev.cpu)

    def _drain(self, cpu: int) -> None:
        qa = self.pend_a.get(cpu)
        qb = self.pend_b.get(cpu)
        while qa and qb:
            ea, eb = qa.popleft(), qb.popleft()
            if ea.arch_key() != eb.arch_key():
                self.mismatch[cpu] = (ea, eb)
                qa.clear()
                qb.clear()
                return

    def finish(self) -> None:
        """Leftover unmatched events at end-of-streams are mismatches
        against nothing (one run has events the other lacks)."""
        for cpu in set(self.pend_a) | set(self.pend_b):
            if cpu in self.mismatch:
                continue
            qa = self.pend_a.get(cpu) or deque()
            qb = self.pend_b.get(cpu) or deque()
            if qa or qb:
                self.mismatch[cpu] = (qa[0] if qa else None,
                                      qb[0] if qb else None)

    def first(self) -> Optional[Tuple[int, Optional[ArchEvent],
                                      Optional[ArchEvent]]]:
        """The earliest per-CPU mismatch by event cycle (the present
        side's cycle when one side is missing the event entirely)."""
        if not self.mismatch:
            return None

        def order(item: Tuple[int, Tuple[Optional[ArchEvent],
                                         Optional[ArchEvent]]]):
            cpu, (ea, eb) = item
            cycles = [ev.cycle for ev in (ea, eb) if ev is not None]
            return (min(cycles), cpu)

        cpu, (ea, eb) = min(self.mismatch.items(), key=order)
        return cpu, ea, eb


def _iter_pairs(ra: Iterator[ArchEvent], rb: Iterator[ArchEvent]
                ) -> Iterator[Tuple[Optional[ArchEvent],
                                    Optional[ArchEvent]]]:
    while True:
        ea = next(ra, None)
        eb = next(rb, None)
        if ea is None and eb is None:
            return
        yield ea, eb


def diff_archtraces(path_a: str, path_b: str,
                    label_a: str = "a", label_b: str = "b",
                    context: int = 5) -> DivergenceReport:
    """Walk both archtraces once and classify their divergence."""
    ra = ArchTraceReader(path_a)
    rb = ArchTraceReader(path_b)
    matcher = _ArchMatcher()
    ctx_a: deque = deque(maxlen=context)
    ctx_b: deque = deque(maxlen=context)
    post_a: List[str] = []
    post_b: List[str] = []
    first_raw: Optional[Tuple[int, Optional[ArchEvent],
                              Optional[ArchEvent]]] = None
    index = 0
    for ea, eb in _iter_pairs(iter(ra), iter(rb)):
        if first_raw is None:
            if ea is None or eb is None or ea != eb:
                first_raw = (index, ea, eb)
            else:
                ctx_a.append(ea.describe())
                ctx_b.append(eb.describe())
        else:
            if ea is not None and len(post_a) < context:
                post_a.append(ea.describe())
            if eb is not None and len(post_b) < context:
                post_b.append(eb.describe())
        if ea is not None:
            matcher.push("a", ea)
        if eb is not None:
            matcher.push("b", eb)
        index += 1
    matcher.finish()

    footer_a, footer_b = ra.footer, rb.footer
    mem_a = footer_a.get("final_memory", {}) or {}
    mem_b = footer_b.get("final_memory", {}) or {}
    memory_delta: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
    for addr in sorted(set(mem_a) | set(mem_b), key=int):
        va, vb = mem_a.get(addr), mem_b.get(addr)
        if va != vb:
            memory_delta[addr] = (va, vb)

    arch = matcher.first()
    if arch is not None:
        classification = "architectural"
    elif memory_delta:
        classification = "final-state"
    elif (first_raw is not None
          or footer_a.get("cycles") != footer_b.get("cycles")):
        classification = "timing-only"
    else:
        classification = "identical"

    blame_delta: List[Dict[str, int]] = []
    bds_a = footer_a.get("breakdowns", []) or []
    bds_b = footer_b.get("breakdowns", []) or []
    for cpu in range(max(len(bds_a), len(bds_b))):
        da = bds_a[cpu] if cpu < len(bds_a) else {}
        db = bds_b[cpu] if cpu < len(bds_b) else {}
        blame_delta.append({cause: db.get(cause, 0) - da.get(cause, 0)
                            for cause in sorted(set(da) | set(db))})

    report = DivergenceReport(
        classification=classification,
        label_a=label_a, label_b=label_b,
        header_a=ra.header, header_b=rb.header,
        cycles_a=footer_a.get("cycles"), cycles_b=footer_b.get("cycles"),
        memory_delta=memory_delta,
        blame_delta=blame_delta,
        dropped_a=int(footer_a.get("dropped", 0) or 0),
        dropped_b=int(footer_b.get("dropped", 0) or 0),
        events_a=ra.events_read, events_b=rb.events_read,
    )
    if first_raw is not None:
        idx, ea, eb = first_raw
        report.first_raw_index = idx
        report.first_raw_a = _fmt(ea)
        report.first_raw_b = _fmt(eb)
        report.context_a = list(ctx_a) + (["--- divergence ---"]
                                          if _fmt(ea) else []) + post_a
        report.context_b = list(ctx_b) + (["--- divergence ---"]
                                          if _fmt(eb) else []) + post_b
    if arch is not None:
        cpu, ea, eb = arch
        report.arch_cpu = cpu
        report.arch_event_a = _fmt(ea)
        report.arch_event_b = _fmt(eb)
    return report


def diff_main(path_a: str, path_b: str, context: int = 5,
              as_json: bool = False) -> int:
    """CLI body for ``python -m repro.obs diff``: 0 identical,
    1 divergent, 2 unreadable input."""
    try:
        report = diff_archtraces(path_a, path_b,
                                 label_a=path_a, label_b=path_b,
                                 context=context)
    except (OSError, ValueError) as exc:    # missing / malformed file
        print(f"error: cannot read archtrace: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 1 if report.divergent else 0
