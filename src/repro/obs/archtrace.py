"""Canonical architectural event stream (``repro.obs.archtrace``).

The raw trace (:mod:`repro.sim.trace`) records what the *machine* did —
issues, SLB bookkeeping, directory transactions — in whatever order the
components happened to call ``record``.  That stream is perfect for
timelines and terrible for differencing: two runs that agree
architecturally can still interleave their per-component records
differently, and microarchitectural detail (MSHR tags, transaction
ids) differs even when the architecture agrees.

An **archtrace** is the projection of a run onto the events the
consistency model can see:

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
identical.

Serialized form (JSONL): a header line (schema version, ``"backend":
"scalar"``, job label), one line per event, and a footer line carrying
the run's cycle count, final memory words, per-CPU cycle-blame
breakdowns and the recorder's drop counter — everything the differ
needs to classify a divergence from the two files alone.

:meth:`ArchTrace.from_events` projects the events a
:class:`~repro.sim.trace.TraceRecorder` holds after the run.  The
scalar kernel records into one passed as the ``trace=`` of
``run_workload`` — recording does **not** disable the kernel's
idle-cycle fast-forward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Dict, IO, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..sim.trace import TraceEvent

#: bump when the event schema or serialized layout changes
ARCHTRACE_VERSION = 1

#: architectural event kinds in canonical intra-key order
KIND_ORDER: Tuple[str, ...] = (
    "retire", "load", "store", "rmw", "squash",
    "fill", "evict", "downgrade", "inval",
)
_KIND_RANK: Dict[str, int] = {k: i for i, k in enumerate(KIND_ORDER)}


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


@dataclass
class ArchTrace:
    """One run's canonical architectural stream plus its footer data.

    :meth:`from_events` projects a run's recorded
    :class:`~repro.sim.trace.TraceEvent` list onto the canonical
    schema after the run.  Raw kinds outside the
    projection (issues, SLB bookkeeping, directory transactions,
    prefetches) are ignored; microarchitectural detail fields (``tag``)
    are stripped.  Built directly, ``events`` is taken as given (test
    fixtures, synthesized divergence examples).

    ``dropped`` is the recorder's drop counter: nonzero exactly when the
    stream is incomplete, and the differ warns about it.
    """

    events: List[ArchEvent]
    cycles: Optional[int] = None
    final_memory: Dict[int, int] = field(default_factory=dict)
    breakdowns: List[Dict[str, int]] = field(default_factory=list)
    dropped: int = 0

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent],
                    cycles: Optional[int] = None,
                    final_memory: Optional[Mapping[int, int]] = None,
                    breakdowns: Sequence[Any] = (),
                    dropped: int = 0) -> "ArchTrace":
        """Project raw events and bind the footer data.

        ``breakdowns`` accepts :class:`~repro.obs.accounting.CycleBreakdown`
        objects or plain ``{cause: count}`` dicts.
        """
        arch = [a for a in (derive_arch_event(ev.cycle, ev.source, ev.kind,
                                              ev.detail)
                            for ev in events) if a is not None]
        arch.sort(key=ArchEvent.sort_key)
        return cls(
            events=arch, cycles=cycles,
            final_memory={int(a): int(v)
                          for a, v in (final_memory or {}).items()},
            breakdowns=[bd if isinstance(bd, dict) else bd.as_dict()
                        for bd in breakdowns],
            dropped=dropped)

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
                    label: str = "") -> int:
        """Serialize header + events + footer; returns the event count."""
        # the header keeps its "backend" key, so the output stays
        # byte-identical to archtraces already written
        header: Dict[str, Any] = {"archtrace": ARCHTRACE_VERSION,
                                  "backend": "scalar"}
        if label:
            header["label"] = label
        own = isinstance(target, str)
        fh: IO[str] = open(target, "w") if own else target  # type: ignore[arg-type]
        try:
            fh.write(_canon(header) + "\n")
            for line in self.event_lines():
                fh.write(line + "\n")
            fh.write(_canon(self.footer()) + "\n")
        finally:
            if own:
                fh.close()
        return len(self.events)


# ----------------------------------------------------------------------
# Raw-event derivation
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
        self._lineno = 0
        first = self._next_obj()
        if first is not None and "archtrace" in first:
            self.header = first
        else:
            # headerless stream (hand-crafted fixture): rewind
            self._fh.seek(0)
            self._lineno = 0

    def _bad(self, why: str) -> ValueError:
        self.close()
        return ValueError(f"{self.path}: line {self._lineno}: {why}")

    def _next_obj(self) -> Optional[Dict[str, Any]]:
        """The next line as a JSON object (None at end of file)."""
        assert self._fh is not None
        line = self._fh.readline()
        if not line:
            return None
        self._lineno += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise self._bad(f"not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise self._bad("not a JSON object")
        return obj

    def __iter__(self) -> "ArchTraceReader":
        return self

    def __next__(self) -> ArchEvent:
        if self._fh is None:
            raise StopIteration
        obj = self._next_obj()
        if obj is None:
            self.close()
            raise StopIteration
        if obj.get("end"):
            self.footer = obj
            self.close()
            raise StopIteration
        try:
            event = ArchEvent.from_json_obj(obj)
        except KeyError as exc:
            raise self._bad(f"missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise self._bad(f"not an archtrace event: {exc}") from None
        self.events_read += 1
        return event

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
