"""Canonical architectural event stream (``repro.obs.archtrace``).

The raw trace (:mod:`repro.sim.trace`) records what the *machine* did —
issues, SLB bookkeeping, directory transactions — in whatever order the
components happened to call ``record``.  That stream is perfect for
timelines and terrible for differencing: two bit-identical executions
on different backends interleave their per-component records
differently, and microarchitectural detail (MSHR tags, transaction
ids) differs even when the architecture agrees.

An **archtrace** is the backend-agnostic projection of a run onto the
events the consistency model can see:

=============  ========================================================
kind           payload (beyond ``cycle``/``cpu``/``seq``)
=============  ========================================================
``retire``     ``pc``, ``op`` (alu/load/store/rmw/nop/halt), ``bound``
               (retired with a bound value), ``sync`` (``acquire`` /
               ``release`` / ``full`` for fence-class RMWs) — a
               ``retire`` with ``sync`` *is* the drain point of the
               ordering operation it names
``load``       ``addr``, ``value`` — a load (or forward) globally
               performed
``store``      ``addr``, ``value`` — a store globally performed
``rmw``        ``addr``, ``value`` (the value *read*) — an atomic
               read-modify-write globally performed
``squash``     ``from_seq``, ``count``, ``refetch_pc``, ``reason`` —
               a rollback discarded speculative work
``fill``       ``line``, ``state`` (``S``/``M``) — coherence fill
``evict``      ``line``, ``state`` held at eviction
``inval``      ``line`` — the line was invalidated by a snoop
``downgrade``  ``line`` — MODIFIED -> SHARED on a recall
=============  ========================================================

Every event carries the deterministic ordering key ``(cycle, cpu,
seq)``; coherence events (which have no instruction) use ``seq = -1``
and are ordered by line address.  Events are kept **canonically
sorted** by the total key ``(cycle, cpu, seq, kind, aux)``, which makes
a serialized archtrace byte-comparable: two executions are
architecturally identical iff their archtrace event lines are
identical.  The batched engine's per-cycle phase order differs from
the scalar kernel's per-CPU tick order, but within one cycle both
produce the same *multiset* of architectural events — the canonical
sort erases the residual emission-order difference.

Serialized form (JSONL): a header line (schema version, backend, lane
tag, job label), one line per event, and a footer line carrying the
run's cycle count, final memory words, per-CPU cycle-blame breakdowns
and the collector's drop counter — everything the differ needs to
classify a divergence from the two files alone.

:class:`ArchTraceCollector` implements the ``TraceRecorder`` recording
surface (``enabled`` + ``record``), so it can be passed directly as the
``trace=`` argument of ``run_workload`` — recording does **not**
disable the kernel's idle-cycle fast-forward — and the batched engine
feeds the same collector class its raw-style events, so both backends
share one derivation path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Dict, IO, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

#: bump when the event schema or serialized layout changes
ARCHTRACE_VERSION = 1

#: architectural event kinds in canonical intra-key order
KIND_ORDER: Tuple[str, ...] = (
    "retire", "load", "store", "rmw", "squash",
    "fill", "evict", "downgrade", "inval",
)
_KIND_RANK: Dict[str, int] = {k: i for i, k in enumerate(KIND_ORDER)}

#: sync codes shared with the batch compiler's per-pc sync table
SYNC_NAMES: Tuple[Optional[str], ...] = (None, "acquire", "release", "full")


def _canon(obj: Mapping[str, Any]) -> str:
    """One canonical JSON line (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ArchEvent:
    """One canonical architectural event."""

    cycle: int
    cpu: int
    #: instruction sequence number; -1 for coherence events
    seq: int
    kind: str
    #: kind-specific payload, canonically sorted key/value pairs
    detail: Tuple[Tuple[str, Any], ...] = ()

    def sort_key(self) -> Tuple[int, int, int, int, int]:
        aux = dict(self.detail).get("line", 0)
        return (self.cycle, self.cpu, self.seq,
                _KIND_RANK.get(self.kind, len(KIND_ORDER)), int(aux))

    def arch_key(self) -> Tuple[int, str, Tuple[Tuple[str, Any], ...]]:
        """The event with timing stripped: what must match for two runs
        to be *architecturally* equivalent."""
        return (self.seq, self.kind, self.detail)

    def to_json(self) -> str:
        obj: Dict[str, Any] = {"cycle": self.cycle, "cpu": self.cpu,
                               "kind": self.kind}
        if self.seq >= 0:
            obj["seq"] = self.seq
        obj.update(self.detail)
        return _canon(obj)

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Any]) -> "ArchEvent":
        detail = tuple(sorted(
            (k, v) for k, v in obj.items()
            if k not in ("cycle", "cpu", "seq", "kind")))
        return cls(cycle=int(obj["cycle"]), cpu=int(obj["cpu"]),
                   seq=int(obj.get("seq", -1)), kind=str(obj["kind"]),
                   detail=detail)

    def describe(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in self.detail)
        seq = f" seq={self.seq}" if self.seq >= 0 else ""
        return f"[{self.cycle:>6}] cpu{self.cpu} {self.kind}{seq} {payload}"


def _mk(cycle: int, cpu: int, seq: int, kind: str,
        **detail: Any) -> ArchEvent:
    return ArchEvent(cycle=cycle, cpu=cpu, seq=seq, kind=kind,
                     detail=tuple(sorted(detail.items())))


class ArchTraceCollector:
    """Derive the canonical stream from raw ``record()`` calls.

    Implements the :class:`~repro.sim.trace.TraceRecorder` recording
    surface, so it drops in as the ``trace=`` of ``run_workload`` (the
    scalar kernel) *and* as the per-lane sink of the batched engine.
    Raw kinds outside the architectural projection (issues, SLB
    bookkeeping, directory transactions, prefetches) are ignored;
    microarchitectural detail fields (``tag``) are stripped.

    ``max_events`` caps memory: unlike the raw ring buffer (which keeps
    the *tail* for timelines), the collector keeps the *head* — the
    differ localizes the first divergence, so early events matter most.
    ``dropped`` counts what the cap discarded and lands in the footer,
    where the differ warns about incomplete streams.
    """

    enabled = True

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.max_events = max_events
        self.dropped = 0
        self._events: List[ArchEvent] = []
        self._sorted = True
        # footer data, bound by finalize()
        self.cycles: Optional[int] = None
        self.final_memory: Dict[int, int] = {}
        self.breakdowns: List[Dict[str, int]] = []

    # -- TraceRecorder surface -----------------------------------------
    def record(self, cycle: int, source: str, kind: str,
               **detail: Any) -> None:
        event = derive_arch_event(cycle, source, kind, detail)
        if event is None:
            return
        if self.max_events is not None and len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)
        self._sorted = False

    # -- results --------------------------------------------------------
    @property
    def events(self) -> List[ArchEvent]:
        if not self._sorted:
            self._events.sort(key=ArchEvent.sort_key)
            self._sorted = True
        return self._events

    def finalize(self, cycles: int,
                 final_memory: Optional[Mapping[int, int]] = None,
                 breakdowns: Optional[Sequence[Any]] = None) -> None:
        """Bind the footer data once the run is over.

        ``breakdowns`` accepts :class:`~repro.obs.accounting.CycleBreakdown`
        objects or plain ``{cause: count}`` dicts.
        """
        self.cycles = cycles
        if final_memory is not None:
            self.final_memory = {int(a): int(v)
                                 for a, v in final_memory.items()}
        if breakdowns is not None:
            self.breakdowns = [
                bd if isinstance(bd, dict) else bd.as_dict()
                for bd in breakdowns
            ]

    def header(self, backend: str = "scalar",
               label: str = "", lane: Optional[int] = None,
               fallback_reason: Optional[str] = None) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"archtrace": ARCHTRACE_VERSION,
                               "backend": backend}
        if label:
            obj["label"] = label
        if lane is not None:
            obj["lane"] = lane
        if fallback_reason is not None:
            obj["fallback_reason"] = fallback_reason
        return obj

    def footer(self) -> Dict[str, Any]:
        return {
            "end": True,
            "cycles": self.cycles,
            "final_memory": {str(a): v
                             for a, v in sorted(self.final_memory.items())},
            "breakdowns": self.breakdowns,
            "dropped": self.dropped,
        }

    def event_lines(self) -> List[str]:
        """The canonical event lines — the byte-comparable body."""
        return [ev.to_json() for ev in self.events]

    def write_jsonl(self, target: Union[str, IO[str]],
                    backend: str = "scalar", label: str = "",
                    lane: Optional[int] = None,
                    fallback_reason: Optional[str] = None) -> int:
        """Serialize header + events + footer; returns the event count."""
        own = isinstance(target, str)
        fh: IO[str] = open(target, "w") if own else target  # type: ignore[arg-type]
        try:
            fh.write(_canon(self.header(backend=backend, label=label,
                                        lane=lane,
                                        fallback_reason=fallback_reason))
                     + "\n")
            events = self.events
            for ev in events:
                fh.write(ev.to_json() + "\n")
            fh.write(_canon(self.footer()) + "\n")
        finally:
            if own:
                fh.close()
        return len(self._events)


# ----------------------------------------------------------------------
# Raw-event derivation (shared by both backends)
# ----------------------------------------------------------------------

def _source_cpu(source: str) -> Optional[int]:
    """cpu index for ``cpu<k>``/``cpu<k>/lsu``/``cache<k>``, else None."""
    if source.startswith("cpu"):
        head, _, _ = source.partition("/")
        try:
            return int(head[3:])
        except ValueError:
            return None
    if source.startswith("cache"):
        try:
            return int(source[5:])
        except ValueError:
            return None
    return None


def derive_arch_event(cycle: int, source: str, kind: str,
                      detail: Mapping[str, Any]) -> Optional[ArchEvent]:
    """Map one raw ``TraceEvent`` onto the canonical schema (or None)."""
    cpu = _source_cpu(source)
    if cpu is None:
        return None  # directory / interconnect: microarchitectural
    if kind == "retire":
        sync = detail.get("sync")
        extra = {"sync": sync} if sync else {}
        return _mk(cycle, cpu, int(detail["seq"]), "retire",
                   pc=int(detail["pc"]), op=str(detail["op"]),
                   bound=bool(detail["bound"]), **extra)
    if kind == "load_complete":
        return _mk(cycle, cpu, int(detail["seq"]), "load",
                   addr=int(detail["addr"]), value=int(detail["value"]))
    if kind == "store_complete":
        akind = "rmw" if detail.get("rmw") else "store"
        return _mk(cycle, cpu, int(detail["seq"]), akind,
                   addr=int(detail["addr"]),
                   value=int(detail.get("value", 0)))
    if kind == "squash":
        return _mk(cycle, cpu, int(detail["from_seq"]), "squash",
                   count=int(detail["count"]),
                   refetch_pc=int(detail["refetch_pc"]),
                   reason=str(detail["reason"]))
    if kind == "fill" or kind == "evict":
        return _mk(cycle, cpu, -1, kind,
                   line=int(detail["line"]), state=str(detail["state"]))
    if kind == "inval" or kind == "downgrade":
        return _mk(cycle, cpu, -1, kind, line=int(detail["line"]))
    return None


# ----------------------------------------------------------------------
# Reading serialized archtraces
# ----------------------------------------------------------------------

@dataclass
class ArchTraceReader:
    """Streaming reader for one serialized archtrace.

    Iterating yields :class:`ArchEvent` objects; ``header`` is read
    eagerly, ``footer`` becomes available once iteration is exhausted.
    """

    path: str
    header: Dict[str, Any] = field(default_factory=dict)
    footer: Dict[str, Any] = field(default_factory=dict)
    events_read: int = 0

    def __post_init__(self) -> None:
        self._fh: Optional[IO[str]] = open(self.path)
        first = self._fh.readline()
        if first:
            obj = json.loads(first)
            if "archtrace" in obj:
                self.header = obj
            else:
                # headerless stream (hand-crafted fixture): rewind
                self._fh.close()
                self._fh = open(self.path)

    def __iter__(self) -> "ArchTraceReader":
        return self

    def __next__(self) -> ArchEvent:
        if self._fh is None:
            raise StopIteration
        line = self._fh.readline()
        if not line:
            self.close()
            raise StopIteration
        obj = json.loads(line)
        if obj.get("end"):
            self.footer = obj
            self.close()
            raise StopIteration
        self.events_read += 1
        return ArchEvent.from_json_obj(obj)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_archtrace(path: str) -> Tuple[Dict[str, Any], List[ArchEvent],
                                       Dict[str, Any]]:
    """Load a whole archtrace file: (header, events, footer)."""
    reader = ArchTraceReader(path)
    events = list(reader)
    return reader.header, events, reader.footer


def write_events_jsonl(path: str, events: Iterable[ArchEvent],
                       header: Optional[Mapping[str, Any]] = None,
                       footer: Optional[Mapping[str, Any]] = None) -> None:
    """Write a hand-assembled archtrace (test fixtures, synthesized
    divergence examples)."""
    with open(path, "w") as fh:
        if header is not None:
            merged = {"archtrace": ARCHTRACE_VERSION}
            merged.update(header)
            fh.write(_canon(merged) + "\n")
        for ev in events:
            fh.write(ev.to_json() + "\n")
        if footer is not None:
            merged = {"end": True}
            merged.update(footer)
            fh.write(_canon(merged) + "\n")


class TeeTrace:
    """Fan one ``record()`` stream out to several recorders.

    Lets ``--archtrace`` coexist with ``--trace``/``--perfetto``/
    ``--trace-jsonl`` on a single run: the kernel sees one trace object,
    every sink sees every raw event (each applies its own filtering).
    """

    def __init__(self, *sinks: Any) -> None:
        self.sinks = [s for s in sinks if s is not None]

    @property
    def enabled(self) -> bool:
        return any(s.enabled for s in self.sinks)

    def record(self, cycle: int, source: str, kind: str,
               **detail: Any) -> None:
        for sink in self.sinks:
            if sink.enabled:
                sink.record(cycle, source, kind, **detail)
