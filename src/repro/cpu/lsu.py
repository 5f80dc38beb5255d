"""The load/store functional unit (paper, Figure 4).

Components, mirroring the figure:

* **load/store reservation station** — decoded memory operations in
  program order, retired FIFO to the address unit.  Without speculative
  loads, consistency constraints are enforced here: a load stalls at
  the head until no earlier pending access has a delay arc to it.
* **address unit** — one cycle of effective-address computation; FIFO,
  so when a load reaches the issue stage every earlier store's address
  is already known (which makes store-buffer dependence checking
  complete).
* **store buffer** — stores (and RMWs) wait here for the reorder
  buffer's signal (precise interrupts: a store may touch memory only
  once it reaches the ROB head) and for the consistency model's store
  rules (e.g. SC issues stores one at a time; RC pipelines ordinary
  stores and holds releases until earlier stores complete).
* **speculative-load buffer** — see :mod:`repro.core.speculation`.
  With speculation enabled, loads issue as soon as their address is
  computed and the buffer takes over constraint tracking.

Loads bypass the store buffer with a word-granular dependence check
(store-to-load forwarding).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple)

from ..consistency.access_class import PLAIN_LOAD, PLAIN_STORE
from ..core.prefetch import HardwarePrefetcher
from ..core.sc_detection import ScViolationDetector
from ..core.speculation import (
    Correction,
    CorrectionKind,
    SlbEntry,
    SpeculativeLoadBuffer,
)
from ..memory.cache import LockupFreeCache
from ..memory.types import AccessKind, AccessRequest, SnoopKind
from ..sim.kernel import Simulator
from ..sim.state import (FIXED, SEQ, VALUE, Cycle, Fixed, Part, Records, Ref,
                         Req, Value, in_window)
from ..sim.stats import Counter
from ..sim.trace import TraceRecorder
from .decode import LOAD, RMW, STORE, SW_PREFETCH
from .rob import Operand, ReorderBuffer, RobEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .processor import Processor


class MemOp:
    """One memory instruction tracked by the LSU, decode to completion.

    What it is — access class, offset, tag, load, store, RMW or software
    prefetch — is its reorder-buffer entry's decode row.  Where it is in
    its life is which of the unit's buffers holds it (paper, Figure 4):
    the reservation station, the address unit, the issue stage
    (``ready_loads``) or the store buffer, and ``pending`` until it is
    performed; ``issued`` says its current access is at the cache.
    """

    __slots__ = ("seq", "rob_entry", "base", "data", "addr", "generation",
                 "issued", "prefetch_issued", "forwarded", "req")

    #: an entry that has left the window (a retired store, draining)
    #: counts by what the op still reads of it
    STATE = dict(seq=SEQ, rob_entry=Ref(live=in_window,
                                        dead=("row", "signalled")),
                 base=Part(), data=Part(), addr=VALUE, generation=VALUE,
                 issued=VALUE, prefetch_issued=VALUE, forwarded=VALUE,
                 req=Req(of="seq"))

    def __init__(self, rob_entry: RobEntry, base: Operand,
                 data: Optional[Operand]) -> None:
        #: its entry's number, kept here too: a retired store drains
        #: after its entry has left the window, which is all a spin
        #: sleep renumbers
        self.seq = rob_entry.seq
        self.rob_entry = rob_entry
        self.base = base
        self.data = data              # store value / rmw operand
        self.addr: Optional[int] = None
        self.generation = 0
        self.issued = False
        self.prefetch_issued = False
        self.forwarded = False
        #: the id of the last request of it the cache accepted (0: none)
        self.req = 0


def _unit(enabled: str, make: Callable) -> Callable:
    """A technique unit's factory: each reset makes it anew when the
    core's config turns it on — its statistics exist only while it does."""
    def unit(lsu: "LoadStoreUnit"):
        if not getattr(lsu.config, enabled):
            return None
        with lsu.sim.stats.transient():
            return make(lsu, lsu.sim.stats, f"cpu{lsu.cpu_id}/")
    return unit


def _sc_detector(lsu, stats, prefix) -> ScViolationDetector:
    detector = ScViolationDetector(stats, name=prefix + "sc_detector")
    detector.set_clock(lambda: lsu.sim.cycle)
    return detector


class LoadStoreUnit:
    """Every buffer of Figure 4, in program order: the reservation
    station ``rs``, the address unit (its op, and the cycle its address
    is ready), the issue stage ``ready_loads`` and the store buffer; and
    ``pending``, every decoded memory op until it is performed.  A
    reset empties them and runs as the core's config says."""

    STATE = dict(
        cpu_id=FIXED, sim=FIXED, cache=FIXED, rob=FIXED, core=FIXED,
        trace=FIXED, _resume=FIXED, stat_loads=FIXED, stat_stores=FIXED,
        stat_rmws=FIXED, stat_forwards=FIXED, stat_rs_stalls=FIXED,
        stat_sb_stalls=FIXED, stat_load_latency=FIXED,
        stat_store_latency=FIXED,
        config=Fixed(lambda lsu: lsu.core.config),
        rs=Records(MemOp, deque), addr_unit=Part(None),
        addr_ready=Cycle(of="addr_unit"),
        ready_loads=Records(Ref(), list), store_buffer=Records(Ref(), list),
        pending=Records(MemOp, OrderedDict, by_seq=True),
        #: RMWs whose speculative read waits (:meth:`_send_rmw_reads`)
        _rmw_reads=Records(Ref(), list),
        #: the id of the next request the cache accepts
        next_req_id=Req(1),
        #: stall counters the current tick bumped (see :meth:`tick`)
        stalled=Value(()),
        #: a later load waits for a store (SC): the store at the ROB
        #: head is not retired until it completes
        _stores_retire_at_completion=Fixed(
            lambda lsu: lsu.config.model.load_waits_for_store(
                PLAIN_STORE, PLAIN_LOAD)),
        slb=Part(_unit("enable_speculation", lambda lsu, stats, prefix:
                       SpeculativeLoadBuffer(lsu.config.slb_size, stats,
                                             name=prefix + "slb"))),
        prefetcher=Fixed(_unit("enable_prefetch", lambda lsu, stats, prefix:
                               HardwarePrefetcher(
                                   lsu.cache, lsu.config.prefetches_per_cycle,
                                   stats, name=prefix + "prefetcher"))),
        sc_detector=Fixed(_unit("enable_sc_detection", _sc_detector)))

    def __init__(
        self,
        cpu_id: int,
        sim: Simulator,
        cache: LockupFreeCache,
        rob: ReorderBuffer,
        core: "Processor",
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        """Wired to ``core``, whose reset resets this unit too."""
        self.cpu_id = cpu_id
        self.sim = sim
        self.cache = cache
        self.rob = rob
        #: the processor whose tick runs this unit, and whose rollback a
        #: violated speculative load asks for
        self.core = core
        self.trace = trace or TraceRecorder(enabled=False)

        cache.register_snoop_listener(self._waking(self._on_snoop))
        #: what an MSHR's release (or the port budget's reset) resumes:
        #: the speculative RMW reads, and the core's tick for the rest
        self._resume = self._waking(self._send_rmw_reads)

        s = sim.stats
        self.stat_loads = s.counter(f"{self.name}/loads")
        self.stat_stores = s.counter(f"{self.name}/stores")
        self.stat_rmws = s.counter(f"{self.name}/rmws")
        self.stat_forwards = s.counter(f"{self.name}/store_forwards")
        self.stat_rs_stalls = s.counter(f"{self.name}/rs_consistency_stalls")
        self.stat_sb_stalls = s.counter(f"{self.name}/sb_consistency_stalls")
        self.stat_load_latency = s.histogram(f"{self.name}/load_latency")
        self.stat_store_latency = s.histogram(f"{self.name}/store_latency")

    @property
    def name(self) -> str:
        return f"cpu{self.cpu_id}/lsu"

    # ------------------------------------------------------------------
    # Wake (kernel sleep protocol)
    # ------------------------------------------------------------------
    def _waking(self, entry: Callable[..., None]) -> Callable[..., None]:
        """``entry`` as it is handed to the cache, the snoop list or the
        event queue: it wakes the core before it runs.

        A sleeping core's state changes only through a call that comes
        back into this unit from outside the core's own tick, and every
        such call is one this unit gave away itself — so each of them
        goes out through here, and none can land on a core the kernel
        goes on not ticking.
        """
        def woken(*args) -> None:
            self.sim.wake(self.core)  # its state is about to change
            entry(*args)
        return woken

    # ------------------------------------------------------------------
    # Dispatch (from decode)
    # ------------------------------------------------------------------
    @property
    def rs_full(self) -> bool:
        return len(self.rs) >= self.config.ls_rs_size

    def dispatch(self, entry: RobEntry, base: Operand, data: Optional[Operand]) -> None:
        op = MemOp(entry, base, data)
        self.rs.append(op)
        if entry.row.kind != SW_PREFETCH:
            # a software prefetch is non-binding: it flows through the
            # address unit like any memory op but never participates in
            # consistency ordering
            self.pending[op.seq] = op

    # ------------------------------------------------------------------
    # Consistency queries
    # ------------------------------------------------------------------
    def _earlier_unperformed(self, seq: int) -> List[MemOp]:
        """The ops before ``seq`` not yet performed: ``pending`` holds
        only those."""
        out = []
        for s, op in self.pending.items():
            if s >= seq:
                break
            out.append(op)
        return out

    def _may_perform_now(self, op: MemOp) -> bool:
        earlier = self._earlier_unperformed(op.seq)
        return self.config.model.may_perform(
            [e.rob_entry.row.klass for e in earlier], op.rob_entry.row.klass)

    def _uncached(self, addr: int) -> bool:
        config = self.cache.config
        # the common machine has no uncached range: nothing to search
        return bool(config.uncached_ranges) and config.is_uncached(addr)

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> bool:
        """Advance every stage; True when anything moved.

        A tick that returns False left all state as it found it apart
        from the stall counters it lists in :attr:`stalled`, and would
        do the same again next cycle — which is what lets the processor
        sleep.  So "moved" also covers whatever makes the next cycle
        differ without a state change here: an occupied address unit
        (it recomputes its address and feeds the SC-violation detector
        every cycle) and an access the cache port turned away (the port
        budget resets each cycle).
        """
        self.stalled = ()
        moved = False
        # a stage with nothing in its buffer is not entered
        if self.addr_unit is not None:
            moved = True
            self._drain_addr_unit(cycle)
        if self.rs and self.addr_unit is None:
            moved = self._advance_rs(cycle) or moved
        if self.store_buffer:
            moved = self._issue_stores(cycle) or moved
        if self.ready_loads:
            moved = self._issue_loads(cycle) or moved
        if self.slb is not None:
            retired = self.slb.retire_ready()
            if retired:
                moved = True
                if self.trace.enabled:
                    for seq in retired:
                        self.trace.record(cycle, self.name, "slb_retire",
                                          seq=seq)
        if self.prefetcher is not None:
            moved = self._offer_prefetches() or moved
        return moved

    def _stall(self, counter: Counter) -> None:
        counter.inc()
        self.stalled += (counter,)

    # -- address unit ---------------------------------------------------
    def _drain_addr_unit(self, cycle: int) -> None:
        op = self.addr_unit
        if cycle < self.addr_ready:
            return
        row = op.rob_entry.row
        kind = row.kind
        base = op.base.resolve()
        assert base is not None
        op.addr = base + row.instr.offset
        if kind == SW_PREFETCH:
            if not self.cache.can_accept():
                return  # retry next cycle
            self.cache.prefetch(op.addr, exclusive=(
                row.instr.exclusive
                and self.cache.config.protocol == "invalidate"))
            self.rob.mark_done(op.seq, None)
            self.addr_unit = None
            return
        if self.sc_detector is not None:
            self.sc_detector.monitor(
                op.seq, op.addr, self.cache.config.line_addr(op.addr),
                is_store=row.klass.is_store, tag=row.tag)
        uncached = self._uncached(op.addr)
        if kind == LOAD:
            # loads retired from the reservation station enter the
            # speculative-load buffer here, in program (FIFO) order —
            # except uncached loads, which cannot be monitored and are
            # delayed conventionally (Appendix A)
            if (not uncached and self.slb is not None
                    and not self._enter_slb(op)):
                return  # SLB full: stall the address unit
            self.ready_loads.append(op)
            self.addr_unit = None
        else:
            # store or RMW heads for the store buffer
            if len(self.store_buffer) >= self.config.store_buffer_size:
                return  # stall until a slot frees
            # "there is no speculative load for non-cached
            # read-modify-write accesses" (Appendix A)
            spec_read = kind == RMW and self.slb is not None and not uncached
            if spec_read and not self._enter_slb(op):
                return  # SLB full: stall the address unit
            self.store_buffer.append(op)
            self.addr_unit = None
            if kind == STORE:
                # a store "completes" for ROB purposes at address
                # translation; the value it writes is tracked here
                self.rob.mark_done(op.seq, None)
            if spec_read:
                # its own store-buffer tag (Appendix A)
                self.slb.get(op.seq).store_tags.add(op.seq)
                self._rmw_reads.append(op)
                self._send_rmw_reads()

    # -- reservation station ---------------------------------------------
    def _advance_rs(self, cycle: int) -> bool:
        """Move the station's head to the (free) address unit."""
        head = self.rs[0]
        base = head.base.resolve()
        if base is None:
            return False  # effective address not computable yet (paper: stall)
        row = head.rob_entry.row
        if (row.kind == LOAD
                and (self.slb is None
                     or self._uncached(base + row.instr.offset))
                and not self._may_perform_now(head)):
            # conventional implementation: stall the reservation station
            self._stall(self.stat_rs_stalls)
            return False
        self.rs.popleft()
        self.addr_unit = head
        self.addr_ready = cycle + 1
        return True

    # -- store buffer -----------------------------------------------------
    def _issue_stores(self, cycle: int) -> bool:
        for op in self.store_buffer:
            if op.issued:
                continue
            if not op.rob_entry.signalled:
                break  # FIFO: later stores cannot be signalled earlier
            value = op.data.resolve() if op.data is not None else 0
            if value is None:
                break
            if self._store_blocked(op):
                self._stall(self.stat_sb_stalls)
                break
            if not self.cache.can_accept():
                return True  # port budget: it resets next cycle
            # one cache issue per tick; a refusal moved nothing
            return self._send_store(op, value, cycle)
        return False

    def _store_blocked(self, op: MemOp) -> bool:
        """An earlier store-buffer entry has a delay arc to ``op`` (an
        entry leaves the buffer when it is performed)."""
        delay_arc = self.config.model.delay_arc
        klass = op.rob_entry.row.klass
        for earlier in self.store_buffer:
            if earlier is op:
                return False
            if delay_arc(earlier.rob_entry.row.klass, klass):
                return True
        return False

    def _access(self, op: MemOp, kind: AccessKind, gen: int,
                done: Callable[[AccessRequest, int], None], **fields) -> bool:
        """Present ``op``'s access to the cache, its port budget checked.
        Refused, it needed an MSHR and none is free: nothing here has
        changed, and the cache resumes this unit when one is released."""
        fields.setdefault("tag", op.rob_entry.row.tag)
        if not self.cache.access(AccessRequest(
                req_id=self.next_req_id, kind=kind, addr=op.addr,
                generation=gen, callback=self._waking(done), **fields)):
            self.cache.await_mshr(self._resume)
            return False
        op.req = self.next_req_id
        self.next_req_id += 1
        return True

    def _send_store(self, op: MemOp, value: int, cycle: int) -> bool:
        gen = op.generation + 1  # invalidates any speculative RMW read in flight
        row = op.rob_entry.row
        is_rmw = row.kind == RMW
        if not self._access(
                op, AccessKind.RMW if is_rmw else AccessKind.STORE, gen,
                lambda r, v: self._store_completed(op, gen, v, cycle),
                value=value, rmw_op=row.instr.op if is_rmw else None):
            return False
        op.issued = True
        op.generation = gen
        if is_rmw and self.slb is not None:
            self.slb.mark_rmw_issued(op.seq)
        (self.stat_rmws if is_rmw else self.stat_stores).inc()
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "store_issue",
                              tag=row.tag, seq=op.seq, addr=op.addr,
                              line=self.cache.config.line_addr(op.addr))
        return True

    def _store_completed(self, op: MemOp, gen: int, value: int, start: int) -> None:
        if op.generation != gen:
            return
        # issued, an op has passed the reorder-buffer head: it is in the
        # store buffer until now, and no squash reaches it
        self.stat_store_latency.add(self.sim.cycle - start)
        self.store_buffer.remove(op)
        del self.pending[op.seq]
        if self.sc_detector is not None:
            self.sc_detector.mark_performed(op.seq)
        row = op.rob_entry.row
        is_rmw = row.kind == RMW
        if is_rmw:
            self.rob.mark_done(op.seq, value)
        if self.slb is not None:
            self.slb.store_performed(op.seq)
            if is_rmw:
                self.slb.mark_done(op.seq)
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "store_complete",
                              tag=row.tag, seq=op.seq, addr=op.addr,
                              value=value, rmw=is_rmw)
        if self._rmw_reads:
            self._send_rmw_reads()  # one may have waited for this store

    # -- loads -------------------------------------------------------------
    def _issue_loads(self, cycle: int) -> bool:
        for op in self.ready_loads:
            forwarded = self._try_forward(op, cycle)
            if forwarded is None:
                continue  # matching store value unknown yet; retry
            if not forwarded:
                if not self.cache.can_accept():
                    return True  # port budget: it resets next cycle
                if not self._send_load(op, cycle):
                    return False  # it stays listed until an MSHR frees
            self.ready_loads.remove(op)
            return True  # one issue per tick
        return False

    def _try_forward(self, op: MemOp, cycle: int) -> Optional[bool]:
        """Store-buffer dependence check.  Returns True if forwarded,
        False if no match, None if a matching value is not yet ready."""
        match: Optional[MemOp] = None
        for sb in self.store_buffer:
            if sb.seq < op.seq and sb.addr == op.addr:
                match = sb  # youngest earlier store wins (keep scanning)
        if match is None:
            return False
        if match.rob_entry.row.kind == RMW:
            # a load after an unperformed RMW to the same address must
            # wait for the RMW's result (uniprocessor data dependence);
            # RMWs do not forward
            return None
        value = match.data.resolve() if match.data is not None else 0
        if value is None:
            return None
        op.forwarded = True
        op.issued = True
        op.generation += 1
        gen = op.generation
        self.stat_forwards.inc()
        self.cache.schedule(
            self.cache.config.hit_latency,
            self._waking(lambda: self._load_completed(op, gen, value, cycle)))
        return True

    def _enter_slb(self, op: MemOp) -> bool:
        assert self.slb is not None
        if self.slb.get(op.seq) is not None:
            return True  # reissue path: entry already present
        if self.slb.full:
            return False
        model = self.config.model
        row = op.rob_entry.row
        klass = row.klass
        tags = set()
        for e in self._earlier_unperformed(op.seq):
            earlier = e.rob_entry.row.klass
            if earlier.is_store and model.load_waits_for_store(earlier, klass):
                tags.add(e.seq)
        self.slb.insert(SlbEntry(
            seq=op.seq,
            addr=op.addr,
            line_addr=self.cache.config.line_addr(op.addr),
            acq=model.load_blocks_later_accesses(klass),
            row=row,
            store_tags=tags,
        ))
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "slb_insert",
                              seq=op.seq, tag=row.tag,
                              line=self.cache.config.line_addr(op.addr))
        return True

    def _send_load(self, op: MemOp, cycle: int) -> bool:
        gen = op.generation + 1
        if not self._access(
                op, AccessKind.LOAD, gen,
                lambda r, v: self._load_completed(op, gen, v, cycle)):
            return False
        op.issued = True
        op.generation = gen
        self.stat_loads.inc()
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "load_issue",
                              tag=op.rob_entry.row.tag, seq=op.seq, addr=op.addr,
                              speculative=self.slb is not None)
        return True

    def _load_completed(self, op: MemOp, gen: int, value: int, start: int) -> None:
        if op.generation != gen:
            return  # stale response from before a reissue/squash
        if op.seq not in self.pending:
            return  # squashed
        del self.pending[op.seq]
        self.stat_load_latency.add(self.sim.cycle - start)
        self.rob.mark_done(op.seq, value)
        if self.slb is not None:
            self.slb.mark_done(op.seq)
        if self.sc_detector is not None:
            self.sc_detector.mark_performed(op.seq)
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "load_complete",
                              tag=op.rob_entry.row.tag, seq=op.seq, addr=op.addr,
                              value=value)

    # -- speculative RMW (Appendix A) ---------------------------------------
    def _send_rmw_reads(self) -> None:
        """Send each waiting speculative read-exclusive that may go now.

        The cache knows nothing about this processor's own pending
        stores, so a speculative read that bypassed an earlier buffered
        store to the same address would bind a stale value *without any
        coherence event ever exposing it* (e.g. a lock RMW reading 1
        while the unlock that writes 0 sits in the store buffer — a
        lost lock acquisition).  So a read waits here while an earlier
        same-address store is buffered, until :meth:`_store_completed`
        (a squash of the store takes the RMW too); a refused one, until
        an MSHR's release or the port budget's reset.
        """
        waiting = []
        port_busy = False
        for op in self._rmw_reads:
            if op.issued:
                continue  # the real RMW has issued; its result is authoritative
            if any(sb.seq < op.seq and sb.addr == op.addr
                   for sb in self.store_buffer):
                waiting.append(op)
            elif not self.cache.can_accept():
                port_busy = True
                waiting.append(op)
            elif not self._send_rmw_read(op):
                waiting.append(op)
        self._rmw_reads = waiting
        if port_busy:
            self.cache.schedule(1, self._resume)  # port budget: free next cycle

    def _send_rmw_read(self, op: MemOp) -> bool:
        gen = op.generation
        return self._access(
            op, AccessKind.LOAD, gen,
            lambda r, v: self._spec_rmw_read_done(op, gen, v),
            exclusive_hint=True, tag=op.rob_entry.row.tag + " (spec read)")

    def _spec_rmw_read_done(self, op: MemOp, gen: int, value: int) -> None:
        if op.generation != gen or op.seq not in self.pending:
            return  # RMW was issued (or squashed); ignore the spec result
        # the speculative old-value is made available to dependents
        self.rob.mark_done(op.seq, value)
        if self.slb is not None:
            self.slb.mark_done(op.seq)
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "rmw_spec_value",
                              tag=op.rob_entry.row.tag, seq=op.seq, value=value)

    # ------------------------------------------------------------------
    # Detection & correction plumbing
    # ------------------------------------------------------------------
    def _on_snoop(self, kind: SnoopKind, line_addr: int) -> None:
        if self.sc_detector is not None:
            self.sc_detector.on_snoop(kind, line_addr)
        if self.slb is None:
            return
        for corr in self.slb.on_snoop(kind, line_addr):
            self._apply_correction(corr, kind)

    def _apply_correction(self, corr: Correction, kind: SnoopKind) -> None:
        # rollback-cause accounting: which coherence event triggered
        # which correction (Section 4.2's detection outcomes)
        bucket = ("reissue" if corr.kind is CorrectionKind.REISSUE
                  else "rollback")
        self.sim.stats.counter(
            f"cpu{self.cpu_id}/slb/{bucket}_cause/{kind.value}").inc()
        op = self.pending.get(corr.seq)
        if corr.kind is CorrectionKind.REISSUE:
            if op is None or op.rob_entry.row.kind == RMW:
                return
            if self.trace.enabled:
                self.trace.record(self.sim.cycle, self.name, "slb_reissue",
                                  seq=corr.seq, tag=op.rob_entry.row.tag,
                                  snoop=kind.value)
            op.generation += 1
            if op.issued:
                op.issued = False
                op.forwarded = False
                if op not in self.ready_loads:
                    self.ready_loads.append(op)
                    self.ready_loads.sort(key=lambda o: o.seq)
            return
        entry = self.rob.get(corr.seq)
        if entry is None:
            return
        if corr.kind is CorrectionKind.SQUASH_FROM:
            if self.trace.enabled:
                self.trace.record(self.sim.cycle, self.name, "slb_squash",
                                  seq=corr.seq, tag=entry.describe(),
                                  snoop=kind.value)
            self.core.squash_from(corr.seq, entry.pc,
                                  "speculative load violated")
        else:  # SQUASH_AFTER (issued RMW keeps its own result)
            if self.trace.enabled:
                self.trace.record(self.sim.cycle, self.name, "slb_squash_after",
                                  seq=corr.seq, tag=entry.describe(),
                                  snoop=kind.value)
            if op is not None:  # not performed
                # the previously-bound speculative value may be stale;
                # re-decoded dependents must wait for the atomic's own
                # return value (Appendix A)
                entry.done = False
                entry.value = None
            self.core.squash_from(corr.seq + 1, entry.pc + 1,
                                  "computation after RMW violated")

    # ------------------------------------------------------------------
    # Squash (called by the processor)
    # ------------------------------------------------------------------
    def squash(self, seqs: List[int]) -> None:
        """Forget the discarded instructions ``seqs`` (ascending).

        A rollback discards a suffix of the program order, and every
        buffer here is kept in program order (stores that retired and
        are still draining are older than anything in the reorder
        buffer), so each one is cut from its young end.
        """
        if not seqs:
            return
        first = seqs[0]
        rs = self.rs
        while rs and rs[-1].seq >= first:
            rs.pop()
        if self.addr_unit is not None and self.addr_unit.seq >= first:
            self.addr_unit = None
        ready = self.ready_loads
        while ready and ready[-1].seq >= first:
            ready.pop()
        rmw_reads = self._rmw_reads
        while rmw_reads and rmw_reads[-1].seq >= first:
            rmw_reads.pop()
        sb = self.store_buffer
        while sb and sb[-1].seq >= first:
            assert not sb[-1].issued, \
                "an issued store can never be squashed (it passed the ROB head)"
            sb.pop()
        pending = self.pending
        while pending and next(reversed(pending)) >= first:
            pending.popitem()[1].generation += 1  # drop in-flight responses
        if self.sc_detector is not None:
            for seq in seqs:
                self.sc_detector.discard(seq)
        if self.slb is not None:
            self.slb.squash(seqs)

    # ------------------------------------------------------------------
    # Prefetch (Section 3.2: accesses delayed in the buffers)
    # ------------------------------------------------------------------
    def _delayed_accesses(self) -> Iterator[Tuple[MemOp, int, bool]]:
        """Delayed accesses with computable addresses that have not had
        their prefetch yet, oldest first per buffer, as
        ``(op, address, exclusive)``."""
        # store buffer entries not yet allowed to issue
        for op in self.store_buffer:
            if (not op.issued and not op.prefetch_issued
                    and not self._uncached(op.addr)):
                yield op, op.addr, True
        # delayed (not yet issued) loads at the issue stage
        for op in self.ready_loads:
            if not op.prefetch_issued:
                yield op, op.addr, False
        # reservation-station (and address-unit) entries whose addresses
        # are computable via instruction-stream lookahead
        in_addr_unit = (self.addr_unit,) if self.addr_unit is not None else ()
        for op in itertools.chain(in_addr_unit, self.rs):
            row = op.rob_entry.row
            if op.prefetch_issued or row.kind == SW_PREFETCH:
                continue
            base = op.base.resolve()
            if base is not None:
                yield op, base + row.instr.offset, row.klass.is_store

    def _offer_prefetches(self) -> bool:
        """Hand the delayed accesses to the prefetcher one by one, up to
        its per-cycle budget or the first one it turns away; True when
        there was anything to offer (issued or not: the cache port that
        refused it is free again next cycle)."""
        budget = self.prefetcher.per_cycle
        offered = False
        for op, addr, exclusive in self._delayed_accesses():
            offered = True
            if not self.prefetcher.issue(addr, exclusive):
                break
            op.prefetch_issued = True
            budget -= 1
            if not budget:
                break
        return offered

    # ------------------------------------------------------------------
    # Retirement support
    # ------------------------------------------------------------------
    def may_retire(self, entry: RobEntry) -> bool:
        kind = entry.row.kind
        if kind != STORE:
            # load or RMW: bound, no longer speculative and, for the
            # RMW, performed
            return (entry.done
                    and (kind != RMW or entry.seq not in self.pending)
                    and (self.slb is None or self.slb.is_cleared(entry.seq)))
        op = self.pending.get(entry.seq)
        if op is None:
            return True  # already performed
        if op not in self.store_buffer:
            return False  # address not translated yet
        return not self._stores_retire_at_completion

    def live_requests(self) -> frozenset:
        """(id, generation) of every request whose completion would
        still act: its op's last one, while the op is pending."""
        return frozenset((op.req, op.generation)
                         for op in self.pending.values())

    def is_empty(self) -> bool:
        return (not self.rs and self.addr_unit is None and not self.ready_loads
                and not self.store_buffer and not self.pending
                and (self.slb is None or self.slb.empty))

    def snapshot(self) -> Dict[str, List[str]]:
        """Buffer contents for Figure 5-style traces."""
        out = {
            "rs": [op.rob_entry.row.tag for op in self.rs],
            "store_buffer": [op.rob_entry.row.tag
                             for op in self.store_buffer],
        }
        if self.slb is not None:
            out["slb"] = [e.describe() for e in self.slb.entries()]
        return out
