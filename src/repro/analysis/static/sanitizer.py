"""Trace-invariant sanitizer.

A pass over a recorded :class:`~repro.sim.trace.TraceRecorder` event
stream asserting invariants the simulator must uphold regardless of
consistency model, program, or technique:

* **retire-order** — each CPU retires reorder-buffer entries in strictly
  increasing sequence order (program order; squashed seqs are never
  reused, so the stream is globally monotone per CPU);
* **unbound-retire** — a load or RMW never retires without a bound
  value;
* **sb-fifo** — the store buffer issues stores to the cache in FIFO
  (program) order on every model;
* **sb-serial** — under models that enforce the W→W delay arc (SC, PC)
  stores also *complete* in order with at most one outstanding;
* **spec-load-correction** — a live speculative-load-buffer entry whose
  line is hit by an invalidation or replacement must be reissued or
  squashed before it retires (the head entry is exempt — footnote 4:
  the model would have allowed the access to perform at this time);
* **single-owner** — no two caches simultaneously hold the same line in
  the MODIFIED state (fills, invalidations, evictions, and downgrades
  must interleave consistently).

Violations carry the offending event so a failure message points at the
exact cycle in the trace.  Use :func:`sanitize_trace` directly, the
``--sanitize`` flag on ``run.py``, or the ``sanitized_trace`` pytest
fixture from ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ...consistency.access_class import PLAIN_STORE
from ...consistency.models import ConsistencyModel
from ...sim.trace import TraceEvent, TraceRecorder, source_cpu


@dataclass(frozen=True)
class InvariantViolation:
    invariant: str
    cycle: int
    message: str
    event: Optional[TraceEvent] = None

    def describe(self) -> str:
        text = f"[{self.invariant}] cycle {self.cycle}: {self.message}"
        if self.event is not None:
            text += f"\n    event: {self.event.describe().strip()}"
        return text


@dataclass
class SanitizerReport:
    model: str
    violations: List[InvariantViolation] = field(default_factory=list)
    events_checked: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_invariant(self, name: str) -> List[InvariantViolation]:
        return [v for v in self.violations if v.invariant == name]

    def render(self) -> str:
        head = (f"trace sanitizer ({self.model or 'model-agnostic'}): "
                f"{self.events_checked} event(s) checked")
        if self.ok:
            return head + ", all invariants hold"
        lines = [head + f", {len(self.violations)} violation(s):"]
        lines += ["  " + ln for v in self.violations
                  for ln in v.describe().splitlines()]
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(self.render())


class _CpuState:
    """Per-CPU bookkeeping while scanning the stream."""

    def __init__(self) -> None:
        self.last_retired: Optional[int] = None
        self.last_store_issue: Optional[int] = None
        self.last_store_complete: Optional[int] = None
        self.stores_outstanding: Dict[int, int] = {}  # seq -> issue cycle
        self.slb_live: Dict[int, Optional[int]] = {}  # seq -> line
        self.slb_dirty: Dict[int, int] = {}           # seq -> inval cycle


def sanitize_trace(
    trace: Union[TraceRecorder, Sequence[TraceEvent]],
    model: Optional[ConsistencyModel] = None,
) -> SanitizerReport:
    """Check a recorded event stream against the simulator invariants.

    ``model`` enables the model-dependent store-buffer checks; without
    it only the model-agnostic invariants run.
    """
    events = trace.events if isinstance(trace, TraceRecorder) else list(trace)
    report = SanitizerReport(model=model.name if model else "")
    serial_stores = (model is not None
                     and model.delay_arc(PLAIN_STORE, PLAIN_STORE))
    if model is not None and not serial_stores:
        report.notes.append(
            f"{model.name} pipelines stores: in-order-completion "
            f"checks skipped")

    cpus: Dict[int, _CpuState] = {}
    owners: Dict[int, int] = {}  # line -> cache node holding MODIFIED

    def cpu(n: int) -> _CpuState:
        return cpus.setdefault(n, _CpuState())

    def fail(invariant: str, ev: TraceEvent, message: str) -> None:
        report.violations.append(InvariantViolation(
            invariant=invariant, cycle=ev.cycle, message=message, event=ev))

    for ev in events:
        report.events_checked += 1
        n = source_cpu(ev.source)
        d = ev.detail

        if ev.kind == "retire" and n is not None:
            st = cpu(n)
            seq = d.get("seq")
            if seq is not None:
                if st.last_retired is not None and seq <= st.last_retired:
                    fail("retire-order", ev,
                         f"cpu{n} retired seq {seq} after seq "
                         f"{st.last_retired}: retirement left program order")
                st.last_retired = seq
            if d.get("op") in ("load", "rmw") and not d.get("bound", True):
                fail("unbound-retire", ev,
                     f"cpu{n} retired {d.get('op')} seq {seq} "
                     f"without a bound value")

        elif ev.kind == "store_issue" and n is not None:
            st = cpu(n)
            seq = d.get("seq")
            if seq is not None:
                if (st.last_store_issue is not None
                        and seq <= st.last_store_issue):
                    fail("sb-fifo", ev,
                         f"cpu{n} issued store seq {seq} after seq "
                         f"{st.last_store_issue}: store buffer is not FIFO")
                st.last_store_issue = seq
                if serial_stores and st.stores_outstanding:
                    pending = sorted(st.stores_outstanding)
                    fail("sb-serial", ev,
                         f"cpu{n} issued store seq {seq} while store(s) "
                         f"{pending} were outstanding (model "
                         f"{report.model} requires one at a time)")
                st.stores_outstanding[seq] = ev.cycle

        elif ev.kind == "store_complete" and n is not None:
            st = cpu(n)
            seq = d.get("seq")
            if seq is not None:
                st.stores_outstanding.pop(seq, None)
                if serial_stores:
                    if (st.last_store_complete is not None
                            and seq <= st.last_store_complete):
                        fail("sb-serial", ev,
                             f"cpu{n} completed store seq {seq} after seq "
                             f"{st.last_store_complete} (model "
                             f"{report.model} requires in-order completion)")
                    st.last_store_complete = seq

        elif ev.kind == "slb_insert" and n is not None:
            cpu(n).slb_live[d["seq"]] = d.get("line")

        elif ev.kind == "slb_retire" and n is not None:
            st = cpu(n)
            seq = d.get("seq")
            if seq in st.slb_dirty and st.slb_dirty[seq] < ev.cycle:
                fail("spec-load-correction", ev,
                     f"cpu{n} retired speculative load seq {seq} although "
                     f"its line was hit by a coherence event at cycle "
                     f"{st.slb_dirty[seq]} with no reissue/squash in between")
            st.slb_live.pop(seq, None)
            st.slb_dirty.pop(seq, None)

        elif ev.kind == "slb_reissue" and n is not None:
            cpu(n).slb_dirty.pop(d.get("seq"), None)

        elif ev.kind == "slb_squash" and n is not None:
            st = cpu(n)
            start = d.get("seq")
            if start is not None:
                for s in [s for s in st.slb_live if s >= start]:
                    st.slb_live.pop(s, None)
                    st.slb_dirty.pop(s, None)

        elif ev.kind == "slb_squash_after" and n is not None:
            st = cpu(n)
            start = d.get("seq")
            if start is not None:
                st.slb_dirty.pop(start, None)
                for s in [s for s in st.slb_live if s > start]:
                    st.slb_live.pop(s, None)
                    st.slb_dirty.pop(s, None)

        elif ev.kind == "squash" and n is not None:
            st = cpu(n)
            start = d.get("from_seq")
            if start is not None:
                for s in [s for s in st.slb_live if s >= start]:
                    st.slb_live.pop(s, None)
                    st.slb_dirty.pop(s, None)

        elif ev.kind in ("inval", "evict") and ev.source.startswith("cache"):
            line = d.get("line")
            if n is not None and line is not None:
                st = cpu(n)
                # footnote 4: the buffer's head entry (oldest live seq)
                # may legally ignore the event and retire
                head = min(st.slb_live) if st.slb_live else None
                for s, l in st.slb_live.items():
                    if l == line and s != head:
                        st.slb_dirty.setdefault(s, ev.cycle)
                if owners.get(line) == n:
                    del owners[line]

        elif ev.kind == "downgrade" and ev.source.startswith("cache"):
            line = d.get("line")
            if n is not None and owners.get(line) == n:
                del owners[line]

        elif ev.kind == "fill" and ev.source.startswith("cache"):
            line = d.get("line")
            state = d.get("state")
            if n is None or line is None:
                continue
            holder = owners.get(line)
            if holder is not None and holder != n:
                fail("single-owner", ev,
                     f"cache{n} filled line {line:#x} ({state}) while "
                     f"cache{holder} still owned it MODIFIED: two owners")
            if state == "M":  # LineState.MODIFIED.value
                owners[line] = n
            elif holder == n:
                del owners[line]

    return report
