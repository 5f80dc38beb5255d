"""Lockup-free (non-blocking) coherent cache.

Models the per-processor cache the paper requires (Section 3.2 / 4.1):

* **lockup-free** (Kroft): misses allocate MSHRs and the cache keeps
  accepting requests while misses are outstanding;
* **request merging**: a demand reference to a line with an outstanding
  prefetch (or miss) is combined with it, "so that a duplicate request
  is not sent out and the reference completes as soon as the prefetch
  result returns";
* **snoop notification**: invalidations, updates, and replacements are
  forwarded to registered listeners — this is the detection mechanism
  of the speculative-load buffer;
* **non-binding prefetch**: ``prefetch()`` brings a line in read-shared
  or exclusive state without binding any register value.

Nothing polls for a resource: a refused access waits for a fill to
release an MSHR (``await_mshr``), and a fill never waits for a way.
Only the per-cycle port budget is a one-cycle wait.

The cache is one endpoint of the interconnect; the directory is the
other.  Coherence protocol details live in ``repro.coherence``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..coherence.messages import DIRECTORY_NODE, Message, MessageKind, NodeId
from ..isa.instructions import rmw_result
from ..sim.errors import ProtocolError
from ..sim.kernel import Component, Simulator
from ..sim.state import (FIXED, VALUE, Keyed, Lru, Numbering, Records, Value,
                         Watched, reset)
from ..sim.trace import TraceRecorder
from .interconnect import Interconnect
from .types import (
    AccessKind,
    AccessRequest,
    CacheConfig,
    LineState,
    SnoopKind,
    SnoopListener,
)


@dataclass
class CacheLine:
    line_addr: int
    state: LineState
    data: List[int]
    lru: int = 0
    #: brought in by a prefetch and not touched by a demand access
    #: since — the basis of useful/late/useless accounting
    prefetched: bool = False

    STATE = dict(line_addr=VALUE, state=VALUE, data=Value(copy=tuple),
                 lru=Lru(by="line_addr"), prefetched=VALUE)


def _awaited(waiters: List[AccessRequest], num: Numbering) -> tuple:
    """The requests merged into a miss whose answer the core still
    awaits, where they stand; the rest, requests of squashed accesses,
    only touch the line when it lands."""
    return tuple((i, req.req_id) for i, req in enumerate(waiters)
                 if (req.req_id, req.generation) in num.requests)


@dataclass
class MshrEntry:
    """One outstanding miss (or prefetch) for a line."""

    line_addr: int
    exclusive: bool
    prefetch_only: bool
    waiters: List[AccessRequest] = field(default_factory=list)
    #: demand stores that arrived while a *shared* miss was in flight;
    #: they trigger a second, exclusive transaction once the fill lands.
    pending_exclusive: List[AccessRequest] = field(default_factory=list)
    #: an exclusive *prefetch* arrived while this shared miss was in
    #: flight (e.g. a speculative load read the line first): upgrade to
    #: ownership as soon as the fill lands
    upgrade_after_fill: bool = False
    issued_cycle: int = 0

    STATE = dict(line_addr=VALUE, exclusive=VALUE, prefetch_only=VALUE,
                 waiters=Keyed(_awaited), pending_exclusive=Value(copy=len),
                 upgrade_after_fill=VALUE, issued_cycle=VALUE)


def _port_budget(port: Tuple[int, int], num: Numbering) -> Optional[int]:
    """The port accesses made in the keyed cycle, if any were."""
    cycle, used = port
    return used if cycle == num.cycle else None


class LockupFreeCache(Component):
    """A single processor's coherent, non-blocking cache."""

    #: A reset empties it: no lines, no transactions, the LRU clock and
    #: the port back at their start.  ``_port`` is the cycle the port
    #: was last used in and the accesses it took then; ``_writebacks``
    #: the lines whose writeback is in flight (awaiting WB_ACK);
    #: ``_txns`` the update-protocol writes and uncached operations in
    #: flight (Appendix A), by txn id; ``_mshr_waits`` what is resumed,
    #: in order, when a fill next releases an MSHR.  The messages it
    #: sent and received, and the last cycle an event of this node's CPU
    #: side is due at (see :meth:`schedule`), are the core's to compare
    #: at its keyed points (:meth:`Processor._watch_spin`).
    STATE = dict(
        node=FIXED, sim=FIXED, net=FIXED, config=FIXED, trace=FIXED,
        _snoop_listeners=FIXED, stat_hits=FIXED, stat_misses=FIXED,
        stat_merges=FIXED, stat_prefetches=FIXED,
        stat_prefetch_discarded=FIXED, stat_prefetch_useful=FIXED,
        stat_prefetch_late=FIXED, stat_prefetch_useful_hit=FIXED,
        stat_prefetch_wasted=FIXED, stat_invals=FIXED, stat_updates=FIXED,
        stat_replacements=FIXED, stat_writebacks=FIXED,
        stat_port_accesses=FIXED,
        _sets=Records(Records(CacheLine), lambda cache: [
            [] for _ in range(cache.config.num_sets)]),
        mshrs=Records(MshrEntry, dict), lru_clock=Lru(0),
        _port=Keyed(_port_budget, (-1, 0)), _writebacks=Value(dict, tuple),
        _txns=Value(dict, tuple), _mshr_waits=Value(list, len),
        messages=Watched(0), events_until=Watched(-1))

    def __init__(
        self,
        node: NodeId,
        sim: Simulator,
        net: Interconnect,
        config: Optional[CacheConfig] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.node = node
        self.sim = sim
        self.net = net
        self.config = config or CacheConfig()
        self.trace = trace or TraceRecorder(enabled=False)
        self._snoop_listeners: List[SnoopListener] = []
        net.attach(node, self.receive)

        s = sim.stats
        prefix = self.name
        self.stat_hits = s.counter(f"{prefix}/hits")
        self.stat_misses = s.counter(f"{prefix}/misses")
        self.stat_merges = s.counter(f"{prefix}/mshr_merges")
        self.stat_prefetches = s.counter(f"{prefix}/prefetches_issued")
        self.stat_prefetch_discarded = s.counter(f"{prefix}/prefetches_discarded")
        self.stat_prefetch_useful = s.counter(f"{prefix}/prefetches_useful")
        # effectiveness split: "late" = a demand access caught the
        # prefetch still in flight (merged; latency only partly hidden);
        # "useful_hit" = the demand access hit a completed prefetch;
        # "useless_invalidated" = the line left the cache untouched
        self.stat_prefetch_late = s.counter(f"{prefix}/prefetches_late")
        self.stat_prefetch_useful_hit = s.counter(f"{prefix}/prefetches_useful_hit")
        self.stat_prefetch_wasted = s.counter(f"{prefix}/prefetches_useless_invalidated")
        self.stat_invals = s.counter(f"{prefix}/invals_received")
        self.stat_updates = s.counter(f"{prefix}/updates_received")
        self.stat_replacements = s.counter(f"{prefix}/replacements")
        self.stat_writebacks = s.counter(f"{prefix}/writebacks")
        self.stat_port_accesses = s.counter(f"{prefix}/port_accesses")
        reset(self)

    @property
    def name(self) -> str:
        return f"cache{self.node}"

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def _find_line(self, line_addr: int) -> Optional[CacheLine]:
        for line in self._sets[self.config.set_index(line_addr)]:
            if line.line_addr == line_addr and line.state is not LineState.INVALID:
                return line
        return None

    def line_state(self, addr: int) -> LineState:
        """Coherence state of the line containing ``addr`` (probe; no port use)."""
        line = self._find_line(self.config.line_addr(addr))
        return line.state if line else LineState.INVALID

    def peek_word(self, addr: int) -> Optional[int]:
        """Debug/test helper: current cached value of ``addr``, if present."""
        line = self._find_line(self.config.line_addr(addr))
        if line is None:
            return None
        return line.data[self.config.word_index(addr)]

    def _touch(self, line: CacheLine) -> None:
        self.lru_clock += 1
        line.lru = self.lru_clock

    # ------------------------------------------------------------------
    # Port arbitration
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """True if a CPU-side access may start this cycle."""
        cycle, used = self._port
        if cycle != self.sim.cycle:
            return self.config.ports > 0
        return used < self.config.ports

    def _use_port(self) -> None:
        now = self.sim.cycle
        cycle, used = self._port
        self._port = (now, used + 1 if cycle == now else 1)
        self.stat_port_accesses.inc()

    # ------------------------------------------------------------------
    # Demand accesses
    # ------------------------------------------------------------------
    def access(self, req: AccessRequest) -> bool:
        """Present a demand access.  Returns False if not accepted: the
        port budget is spent this cycle (it resets next cycle), or the
        access needs an MSHR and none is free (:meth:`await_mshr`)."""
        if not self.can_accept():
            return False
        if self.config.uncached_ranges and self.config.is_uncached(req.addr):
            return self._uncached_access(req)
        if self.config.protocol == "update" and req.kind is not AccessKind.LOAD:
            return self._update_protocol_write(req)
        line_addr = self.config.line_addr(req.addr)
        line = self._find_line(line_addr)
        mshr = self.mshrs.get(line_addr)
        needs_excl = req.kind.needs_exclusive or req.exclusive_hint

        # Hit with sufficient permission (and no pending transaction that
        # will change the line under us in a way the access must wait for).
        if line is not None and (line.state is LineState.MODIFIED
                                 or (line.state is LineState.SHARED and not needs_excl)):
            self._use_port()
            self.stat_hits.inc()
            if line.prefetched:
                line.prefetched = False
                self.stat_prefetch_useful.inc()
                self.stat_prefetch_useful_hit.inc()
            self._touch(line)
            req.issued_cycle = cycle = self.sim.cycle
            latency = self.config.hit_latency
            # no event of this node's is due later than the latest hit's
            # (see :meth:`schedule`): no need to compare
            self.events_until = cycle + latency
            self.sim.schedule(latency,
                              lambda: self._complete_access(req, line_addr))
            return True

        # Merge with an outstanding transaction for this line.
        if mshr is not None:
            self._use_port()
            self.stat_merges.inc()
            req.issued_cycle = self.sim.cycle
            if mshr.prefetch_only:
                mshr.prefetch_only = False
                self.stat_prefetch_useful.inc()
                self.stat_prefetch_late.inc()
            if needs_excl and not mshr.exclusive:
                mshr.pending_exclusive.append(req)
            else:
                mshr.waiters.append(req)
            return True

        if len(self.mshrs) >= self.config.mshr_entries:
            return False

        self._use_port()
        self.stat_misses.inc()
        req.issued_cycle = self.sim.cycle
        self._start_miss(line_addr, line, needs_excl, False).waiters.append(req)
        return True

    def await_mshr(self, resume: Callable[[], None]) -> None:
        """Call ``resume`` once, when a fill next releases an MSHR."""
        if resume not in self._mshr_waits:
            self._mshr_waits.append(resume)

    def _start_miss(self, line_addr: int, line: Optional[CacheLine],
                    exclusive: bool, prefetch_only: bool) -> MshrEntry:
        """Allocate the line's MSHR and ask the directory: an UPGRADE
        when ownership is wanted of a line held SHARED."""
        entry = self.mshrs[line_addr] = MshrEntry(
            line_addr=line_addr, exclusive=exclusive,
            prefetch_only=prefetch_only, issued_cycle=self.sim.cycle)
        if exclusive and line is not None and line.state is LineState.SHARED:
            self._send(MessageKind.UPGRADE, line_addr)
        else:
            self._send(MessageKind.READX if exclusive else MessageKind.READ, line_addr)
        return entry

    def _uncached_access(self, req: AccessRequest) -> bool:
        """Appendix A's non-cached locations: performed atomically at
        the home node, never cached, never speculated or prefetched."""
        self._use_port()
        req.issued_cycle = self.sim.cycle
        self._txns[req.req_id] = req
        self._send(MessageKind.UNCACHED_OP,
                   self.config.line_addr(req.addr),
                   txn=req.req_id,
                   addr=req.addr,
                   value=req.value,
                   uncached_kind=req.kind.value,
                   rmw_op=req.rmw_op)
        return True

    def _on_uncached_done(self, msg: Message) -> None:
        req = self._txns.pop(msg.txn, None)
        if req is None:
            raise ProtocolError(
                f"cache{self.node}: UNCACHED_DONE for unknown txn {msg.txn}")
        if req.callback is not None:
            req.callback(req, msg.value if msg.value is not None else 0)

    def _update_protocol_write(self, req: AccessRequest) -> bool:
        """Store handling under the write-update protocol.

        The new value is propagated to all sharers; the store completes
        when the directory reports every copy updated (UPDATE_DONE).
        This is exactly why read-exclusive prefetch cannot help writes
        under update protocols: "it is difficult to partially service a
        write operation without making the new value available to other
        processors" (Section 3.2).
        """
        if req.kind is AccessKind.RMW:
            raise ProtocolError("the update protocol model supports LOAD/STORE only; "
                                "use flag-based synchronization or the invalidate protocol")
        line_addr = self.config.line_addr(req.addr)
        self._use_port()
        req.issued_cycle = self.sim.cycle
        txn = req.req_id
        self._txns[txn] = req
        self._send(MessageKind.UPDATE_WRITE, line_addr, txn=txn,
                   addr=req.addr, value=req.value)
        return True

    def prefetch(self, addr: int, exclusive: bool) -> bool:
        """Hardware non-binding prefetch (Section 3.2).

        Checks the cache first; a prefetch for a line already present
        with sufficient permission, or already outstanding, is
        discarded.  Returns True if the port was consumed (i.e. a real
        probe happened).
        """
        if not self.can_accept():
            return False
        if self.config.uncached_ranges and self.config.is_uncached(addr):
            self._use_port()
            self.stat_prefetch_discarded.inc()  # uncached: nothing to bring
            return True
        line_addr = self.config.line_addr(addr)
        line = self._find_line(line_addr)
        self._use_port()

        sufficient = line is not None and (
            line.state is LineState.MODIFIED
            or (line.state is LineState.SHARED and not exclusive)
        )
        if sufficient:
            self.stat_prefetch_discarded.inc()
            return True
        pending = self.mshrs.get(line_addr)
        if pending is not None:
            if exclusive and not pending.exclusive and not pending.pending_exclusive:
                # a shared miss (e.g. from a speculative load) is in
                # flight; upgrade to ownership once the fill lands so
                # the delayed store still finds the line exclusive
                pending.upgrade_after_fill = True
                self.stat_prefetches.inc()
            else:
                self.stat_prefetch_discarded.inc()
            return True
        if len(self.mshrs) >= self.config.mshr_entries:
            self.stat_prefetch_discarded.inc()
            return True

        self.stat_prefetches.inc()
        self._start_miss(line_addr, line, exclusive, True)
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, f"cache{self.node}",
                              "prefetch", line=line_addr, exclusive=exclusive)
        return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete_access(self, req: AccessRequest, line_addr: int) -> None:
        """Perform ``req`` against the (now present) line and call back."""
        line = self._find_line(line_addr)
        if line is None or (req.kind is not AccessKind.LOAD
                            and line.state is not LineState.MODIFIED):
            # Since the hit (multi-cycle hit latency) the line left, or
            # a RECALL downgraded it under a store/RMW: probe again (an
            # UPGRADE re-acquires ownership).
            self._rerun(req)
            return
        widx = self.config.word_index(req.addr)
        if req.kind is AccessKind.LOAD:
            value = line.data[widx]
        elif req.kind is AccessKind.STORE:
            line.data[widx] = req.value
            value = req.value
        else:  # RMW
            old = line.data[widx]
            line.data[widx] = rmw_result(req.rmw_op, old, req.value)
            value = old
        self._touch(line)
        if req.callback is not None:
            req.callback(req, value)

    def _rerun(self, req: AccessRequest) -> None:
        if self.access(req):
            return
        if self.can_accept():
            self.await_mshr(lambda: self._rerun(req))
        else:
            self.schedule(1, lambda: self._rerun(req))  # port budget: free next cycle

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule an event of this node's CPU side — this cache's, or
        its core's — ``delay`` cycles from now, ``delay`` no more than
        the hit latency.  Unlike a message, none is announced: so
        :attr:`events_until` keeps the last cycle one of them is due at
        (a hit's completion, the one in :meth:`access`, too)."""
        due = self.sim.cycle + delay
        if due > self.events_until:
            self.events_until = due
        self.sim.schedule(delay, callback)

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def _send(self, kind: MessageKind, line_addr: int, **kw) -> None:
        self.messages += 1
        self.net.send(Message(kind=kind, src=self.node, dst=DIRECTORY_NODE,
                              line_addr=line_addr, **kw))

    def register_snoop_listener(self, listener: SnoopListener) -> None:
        self._snoop_listeners.append(listener)

    def _notify_snoop(self, kind: SnoopKind, line_addr: int) -> None:
        for listener in self._snoop_listeners:
            listener(kind, line_addr)

    def receive(self, msg: Message) -> None:
        self.messages += 1
        handler = _HANDLERS.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"cache{self.node} cannot handle {msg.describe()}")
        handler(self, msg)

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------
    def _install(self, line_addr: int, state: LineState, data: List[int]) -> CacheLine:
        """Place a fill into the set, evicting the LRU victim if needed.

        A fill never waits for a way.  A victim is any way but a valid
        line with a miss or a writeback in flight — an INVALID way is
        one even with a miss outstanding for its address.  With no
        victim, the fill takes a way beyond the set's (in hardware, the
        MSHR's data buffer); a later fill into the set gives it back.
        Parking the fill instead deadlocks: two caches' fills can each
        wait for a way behind the other's invalidation.  An INVALID
        victim just leaves the set: the invalidation that emptied it
        already took the line, so it is no replacement (no count, no
        ``evict`` event, no snoop).
        """
        cache_set = self._sets[self.config.set_index(line_addr)]
        for line in cache_set:
            if line.line_addr == line_addr:
                line.state = state
                line.data = list(data)
                self._touch(line)
                self._record_fill(line_addr, state)
                return line
        if len(cache_set) >= self.config.assoc:
            victims = sorted(
                (l for l in cache_set
                 if l.state is LineState.INVALID
                 or (l.line_addr not in self.mshrs
                     and l.line_addr not in self._writebacks)),
                key=lambda l: l.lru)
            for victim in victims[:len(cache_set) - self.config.assoc + 1]:
                if victim.state is not LineState.INVALID:
                    self._evict(victim)
                cache_set.remove(victim)
        line = CacheLine(line_addr=line_addr, state=state, data=list(data))
        self._touch(line)
        cache_set.append(line)
        self._record_fill(line_addr, state)
        return line

    def _record_fill(self, line_addr: int, state: LineState) -> None:
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, f"cache{self.node}", "fill",
                              line=line_addr, state=state.value)

    @staticmethod
    def _mark_prefetch_fill(line: CacheLine, entry: MshrEntry) -> None:
        """A fill for ``entry`` landed in ``line``; if it was still
        prefetch-only (no demand access merged onto it), start tracking
        whether the line is ever used before it leaves the cache."""
        if (entry.prefetch_only and not entry.waiters
                and not entry.pending_exclusive):
            line.prefetched = True

    def _note_prefetched_line_lost(self, line: CacheLine) -> None:
        """The line left the cache (invalidation or replacement)
        without any demand access touching it: the prefetch was wasted."""
        if line.prefetched:
            line.prefetched = False
            self.stat_prefetch_wasted.inc()

    def _evict(self, line: CacheLine) -> None:
        self.stat_replacements.inc()
        self._note_prefetched_line_lost(line)
        # record before notifying: corrections the snoop listeners emit
        # must appear after their cause in the trace
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, f"cache{self.node}", "evict",
                              line=line.line_addr, state=line.state.value)
        self._notify_snoop(SnoopKind.REPLACEMENT, line.line_addr)
        if line.state is LineState.MODIFIED:
            self.stat_writebacks.inc()
            self._writebacks[line.line_addr] = list(line.data)
            self._send(MessageKind.WRITEBACK, line.line_addr, data=list(line.data))
        line.state = LineState.INVALID

    def _release_mshrs(self) -> None:
        """A fill released an MSHR: resume what waits for one, in order."""
        if self._mshr_waits and len(self.mshrs) < self.config.mshr_entries:
            waits, self._mshr_waits = self._mshr_waits, []
            for resume in waits:
                resume()

    def _on_data(self, msg: Message) -> None:
        entry = self.mshrs.get(msg.line_addr)
        if entry is None:
            raise ProtocolError(f"cache{self.node}: DATA with no MSHR for line {msg.line_addr:#x}")
        line = self._install(msg.line_addr, LineState.SHARED, msg.data or [])
        del self.mshrs[msg.line_addr]
        self._mark_prefetch_fill(line, entry)
        waiters = entry.waiters
        pending_excl = entry.pending_exclusive
        for req in waiters:
            self._complete_access(req, msg.line_addr)
        if pending_excl or entry.upgrade_after_fill:
            # Stores (or an exclusive prefetch) were merged onto a
            # shared miss: start the exclusive transaction now
            # (upgrade, since we just got an S copy).
            self._start_miss(msg.line_addr, line, True,
                             not pending_excl).waiters.extend(pending_excl)
        self._release_mshrs()

    def _on_data_excl(self, msg: Message) -> None:
        entry = self.mshrs.get(msg.line_addr)
        if entry is None:
            raise ProtocolError(f"cache{self.node}: DATA_EXCL with no MSHR for line {msg.line_addr:#x}")
        if msg.data is not None:
            data = msg.data
        else:
            # upgrade ack: keep the data we already have
            existing = self._find_line(msg.line_addr)
            if existing is None:
                raise ProtocolError(
                    f"cache{self.node}: upgrade ack for line {msg.line_addr:#x} not present"
                )
            data = existing.data
        line = self._install(msg.line_addr, LineState.MODIFIED, data)
        del self.mshrs[msg.line_addr]
        self._mark_prefetch_fill(line, entry)
        for req in entry.waiters + entry.pending_exclusive:
            self._complete_access(req, msg.line_addr)
        self._release_mshrs()

    # ------------------------------------------------------------------
    # Snoops
    # ------------------------------------------------------------------
    def _on_inval(self, msg: Message) -> None:
        self.stat_invals.inc()
        line = self._find_line(msg.line_addr)
        if line is not None:
            line.state = LineState.INVALID
            self._note_prefetched_line_lost(line)
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, f"cache{self.node}", "inval", line=msg.line_addr)
        self._notify_snoop(SnoopKind.INVALIDATION, msg.line_addr)
        self._send(MessageKind.INVAL_ACK, msg.line_addr, txn=msg.txn)

    def _on_recall(self, msg: Message) -> None:
        line = self._find_line(msg.line_addr)
        if line is None or line.state is not LineState.MODIFIED:
            # Raced with our own writeback; the directory will use the
            # writeback data when it arrives.
            self._send(MessageKind.RECALL_ACK, msg.line_addr, txn=msg.txn, data=None)
            return
        line.state = LineState.SHARED
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, f"cache{self.node}", "downgrade",
                              line=msg.line_addr)
        self._send(MessageKind.RECALL_ACK, msg.line_addr, txn=msg.txn, data=list(line.data))

    def _on_recall_inval(self, msg: Message) -> None:
        line = self._find_line(msg.line_addr)
        data: Optional[List[int]] = None
        if line is not None:
            if line.state is LineState.MODIFIED:
                data = list(line.data)
            line.state = LineState.INVALID
            self._note_prefetched_line_lost(line)
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, f"cache{self.node}", "inval", line=msg.line_addr)
        self._notify_snoop(SnoopKind.INVALIDATION, msg.line_addr)
        self._send(MessageKind.RECALL_ACK, msg.line_addr, txn=msg.txn, data=data)

    def _on_update(self, msg: Message) -> None:
        self.stat_updates.inc()
        line = self._find_line(msg.line_addr)
        if line is not None and msg.addr is not None:
            line.data[self.config.word_index(msg.addr)] = msg.value
        self._notify_snoop(SnoopKind.UPDATE, msg.line_addr)
        self._send(MessageKind.UPDATE_ACK, msg.line_addr, txn=msg.txn)

    def _on_wb_ack(self, msg: Message) -> None:
        self._writebacks.pop(msg.line_addr, None)

    def _on_update_done(self, msg: Message) -> None:
        # Update-protocol write transaction finished: the store that
        # initiated it completes now (globally performed).
        req = self._txns.pop(msg.txn, None)
        if req is None:
            raise ProtocolError(
                f"cache{self.node}: UPDATE_DONE for unknown txn {msg.txn}"
            )
        line = self._find_line(msg.line_addr)
        if line is not None:
            line.data[self.config.word_index(req.addr)] = req.value
        if req.callback is not None:
            req.callback(req, req.value if req.value is not None else 0)

    # ------------------------------------------------------------------
    # Spin sleep (see Processor.next_wake)
    # ------------------------------------------------------------------
    def stamps_since(self, clock: int) -> Dict[int, int]:
        """The lines touched since the LRU clock read ``clock``, each
        with its last stamp counted from there."""
        return {line.line_addr: line.lru - clock
                for cache_set in self._sets for line in cache_set
                if line.lru > clock}

    def waiting(self) -> Dict[int, int]:
        """How many requests wait on each outstanding miss."""
        return {line: len(entry.waiters) for line, entry in self.mshrs.items()}

    def merged_since(self, waiting: Dict[int, int]) -> Dict[int, list]:
        """The requests merged into each outstanding miss since
        :meth:`waiting` read ``waiting``."""
        return {line: entry.waiters[waiting[line]:]
                for line, entry in self.mshrs.items()
                if len(entry.waiters) > waiting[line]}

    def add_merged(self, merged: Dict[int, list], periods: int) -> None:
        """Merge into each miss what ``periods`` periods of a spin merge
        into it (``merged``, as :meth:`merged_since` found it)."""
        for line, requests in merged.items():
            self.mshrs[line].waiters.extend(requests * periods)

    # ------------------------------------------------------------------
    def is_quiescent(self) -> bool:
        return not self.mshrs and not self._writebacks and not self._txns

    def describe_wait(self) -> str:
        waits = [f"{what} {', '.join(f'{line:#x}' for line in lines)}"
                 for what, lines in (("misses", self.mshrs),
                                     ("writebacks", self._writebacks))
                 if lines]
        return f"{self.name} " + "; ".join(waits) if waits else ""

    def warm_install(self, line_addr: int, state: LineState, data: Optional[List[int]] = None) -> None:
        """Pre-install a line for warm-start experiments (not a timed path).

        The caller is responsible for keeping directory state consistent
        (use :meth:`MemoryFabric.warm` which does both sides).
        """
        if data is None:
            data = [0] * self.config.line_size
        if len(data) != self.config.line_size:
            raise ProtocolError("warm_install data must cover the whole line")
        self._install(line_addr, state, data)

    def contents(self) -> Dict[int, Tuple[str, List[int]]]:
        """Snapshot {line_addr: (state, data)} of all valid lines."""
        out: Dict[int, Tuple[str, List[int]]] = {}
        for cache_set in self._sets:
            for line in cache_set:
                if line.state is not LineState.INVALID:
                    out[line.line_addr] = (line.state.value, list(line.data))
        return out


_HANDLERS = {
    MessageKind.DATA: LockupFreeCache._on_data,
    MessageKind.DATA_EXCL: LockupFreeCache._on_data_excl,
    MessageKind.INVAL: LockupFreeCache._on_inval,
    MessageKind.RECALL: LockupFreeCache._on_recall,
    MessageKind.RECALL_INVAL: LockupFreeCache._on_recall_inval,
    MessageKind.UPDATE: LockupFreeCache._on_update,
    MessageKind.WB_ACK: LockupFreeCache._on_wb_ack,
    MessageKind.UPDATE_DONE: LockupFreeCache._on_update_done,
    MessageKind.UNCACHED_DONE: LockupFreeCache._on_uncached_done,
}
