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
:meth:`ArchTrace.read_jsonl` is the exact inverse of
:meth:`ArchTrace.write_jsonl` and refuses any other file.

:meth:`ArchTrace.from_events` projects the events a
:class:`~repro.sim.trace.TraceRecorder` holds after the run.  The
scalar kernel records into one passed as the ``trace=`` of
``run_workload`` — recording does **not** disable the kernel's
idle-cycle fast-forward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..sim.trace import TraceEvent, source_cpu

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
    stream is incomplete, and the differ warns about it.  ``label``
    names the run in the serialized header.
    """

    events: List[ArchEvent]
    cycles: Optional[int] = None
    final_memory: Dict[int, int] = field(default_factory=dict)
    breakdowns: List[Dict[str, int]] = field(default_factory=list)
    dropped: int = 0
    label: str = ""

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent],
                    cycles: Optional[int] = None,
                    final_memory: Optional[Mapping[int, int]] = None,
                    breakdowns: Sequence[Any] = (),
                    dropped: int = 0, label: str = "") -> "ArchTrace":
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
            dropped=dropped, label=label)

    def header(self) -> Dict[str, Any]:
        # the header keeps its "backend" key, so the output stays
        # byte-identical to archtraces already written
        header: Dict[str, Any] = {"archtrace": ARCHTRACE_VERSION,
                                  "backend": "scalar"}
        if self.label:
            header["label"] = self.label
        return header

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

    def write_jsonl(self, path: str) -> int:
        """Serialize header + events + footer; returns the event count."""
        with open(path, "w") as fh:
            fh.write(_canon(self.header()) + "\n")
            for line in self.event_lines():
                fh.write(line + "\n")
            fh.write(_canon(self.footer()) + "\n")
        return len(self.events)

    @classmethod
    def read_jsonl(cls, path: str) -> "ArchTrace":
        """Load a file :meth:`write_jsonl` wrote: its header line, the
        event lines and one ``{"end": true}`` footer line, in that order.

        Anything else — an empty or cut file, a foreign header, a
        malformed event, lines after the footer — raises ``ValueError``
        naming the path and the line.
        """
        def bad(lineno: int, why: str) -> ValueError:
            return ValueError(f"{path}: line {lineno}: {why}")

        objs: List[Dict[str, Any]] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise bad(lineno, f"not valid JSON: {exc}") from None
                if not isinstance(obj, dict):
                    raise bad(lineno, "not a JSON object")
                objs.append(obj)
        if not objs:
            raise bad(1, "empty file, no archtrace header")
        label = objs[0].get("label", "")
        if objs[0] != cls([], label=str(label)).header():
            raise bad(1, f"not an archtrace v{ARCHTRACE_VERSION} header")
        events: List[ArchEvent] = []
        footer: Optional[Dict[str, Any]] = None
        for lineno, obj in enumerate(objs[1:], 2):
            if footer is not None:
                raise bad(lineno, "a line after the footer")
            if obj.get("end"):
                footer = obj
                continue
            try:
                events.append(ArchEvent.from_json_obj(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise bad(lineno, f"not an archtrace event: {exc!r}") from None
        if footer is None:
            raise bad(len(objs), "no footer: the file is cut short")
        # coerce every field, then insist the value writes this footer
        # back: that refuses extra keys and values of the wrong type
        try:
            cycles = footer["cycles"]
            arch = cls(events, cycles=None if cycles is None else int(cycles),
                       final_memory={int(a): int(v) for a, v
                                     in footer["final_memory"].items()},
                       breakdowns=[{str(c): int(n) for c, n in bd.items()}
                                   for bd in footer["breakdowns"]],
                       dropped=int(footer["dropped"]), label=label)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise bad(len(objs), f"not an archtrace footer: {exc!r}") from None
        if arch.footer() != footer:
            raise bad(len(objs), "not an archtrace footer")
        return arch


# ----------------------------------------------------------------------
# Raw-event derivation
# ----------------------------------------------------------------------

def derive_arch_event(cycle: int, source: str, kind: str,
                      detail: Mapping[str, Any]) -> Optional[ArchEvent]:
    """Map one raw ``TraceEvent`` onto the canonical schema (or None)."""
    cpu = source_cpu(source)
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
