"""Packed per-lane coherence fast path (the batch envelope's fabric).

:class:`FastFabric` is a specialized transliteration of the scalar
memory system — :class:`~repro.memory.interconnect.Interconnect` +
:class:`~repro.coherence.directory.DirectoryController` +
:class:`~repro.memory.cache.LockupFreeCache` — restricted to the batch
envelope (invalidate protocol, no prefetch, no speculation, no update
protocol, no uncached ranges).  Within that envelope it is *bit-exact*:
every ``sim.schedule`` call the scalar classes would make is made here
in the same order with the same delay, so event sequence numbers, FIFO
channel floors, transaction interleavings, final memory, and every
statistic come out identical.  The differential suite pins this against
the scalar kernel.

What makes it fast rather than faithful-but-slow:

* no :class:`~repro.coherence.messages.Message` dataclasses — a message
  is one scheduled closure carrying its handler arguments;
* no :class:`~repro.sim.kernel.Component` registration, no trace
  recorder calls, no label strings;
* statistics are plain integer attributes (flushed into a
  :class:`~repro.sim.stats.StatsRegistry` only when a caller actually
  asks for stats);
* per-line directory state and cache sets are tiny ``__slots__``
  records in dicts keyed by line address.

The transliteration drops the prefetch bookkeeping (``prefetch_only``
MSHRs, ``_prefetched_unused``) because no prefetch can be issued inside
the envelope — the corresponding counters are constant zero, which the
flush reproduces.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, TYPE_CHECKING

from ...memory.cache import _rmw_new_value
from ...memory.types import AccessKind, AccessRequest, LatencyConfig
from ...sim.errors import ProtocolError
from ...sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BatchEngine
    from ...system.jobs import BatchJob

# line states (mirror LineState; ints for speed)
_INV, _SHARED, _MODIFIED = 0, 1, 2
# directory states (mirror DirState)
_UNOWNED, _DSHARED, _DEXCL = 0, 1, 2
# transaction kinds (mirror MessageKind.READ/READX/UPGRADE)
_T_READ, _T_READX, _T_UPGRADE = 0, 1, 2
#: the directory's node id on FIFO channels (caches are 0..ncpu-1)
_DIR = -1

#: LatencyConfig derivation memo — every fuzz lane shares a couple of
#: distinct miss latencies, and lane construction is throughput-critical
_LAT_CACHE: Dict[int, LatencyConfig] = {}


class _Line:
    __slots__ = ("line_addr", "state", "data", "lru")

    def __init__(self, line_addr: int, state: int, data: List[int]) -> None:
        self.line_addr = line_addr
        self.state = state
        self.data = data
        self.lru = 0


class _Mshr:
    __slots__ = ("line_addr", "exclusive", "waiters", "pending_exclusive",
                 "issued_cycle")

    def __init__(self, line_addr: int, exclusive: bool, issued_cycle: int) -> None:
        self.line_addr = line_addr
        self.exclusive = exclusive
        self.waiters: List[AccessRequest] = []
        self.pending_exclusive: List[AccessRequest] = []
        self.issued_cycle = issued_cycle


class _DirEnt:
    __slots__ = ("state", "sharers", "owner")

    def __init__(self) -> None:
        self.state = _UNOWNED
        self.sharers: set = set()
        self.owner: Optional[int] = None


class _Txn:
    __slots__ = ("txn_id", "kind", "requester", "line_addr", "pending_acks",
                 "awaiting_writeback", "writeback_arrived", "grant_with_data")

    def __init__(self, txn_id: int, kind: int, requester: int,
                 line_addr: int) -> None:
        self.txn_id = txn_id
        self.kind = kind
        self.requester = requester
        self.line_addr = line_addr
        self.pending_acks = 0
        self.awaiting_writeback = False
        self.writeback_arrived = False
        self.grant_with_data = True


class FastCache:
    """One CPU's cache: the ``can_accept``/``access`` surface the engine
    drives, plus the protocol handlers the lane's directory calls."""

    __slots__ = ("fab", "node", "_sets", "mshrs", "_lru_clock",
                 "_port_cycle", "_port_used", "_writebacks",
                 "hits", "misses", "merges", "invals_received",
                 "replacements", "writebacks_ctr", "port_accesses")

    def __init__(self, fab: "FastFabric", node: int) -> None:
        self.fab = fab
        self.node = node
        # sets come into existence on first touch: a fuzz lane uses a
        # couple of sets out of 64, and lane setup cost is on the
        # throughput-critical path
        self._sets: Dict[int, List[_Line]] = {}
        self.mshrs: Dict[int, _Mshr] = {}
        self._lru_clock = 0
        self._port_cycle = -1
        self._port_used = 0
        self._writebacks: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.merges = 0
        self.invals_received = 0
        self.replacements = 0
        self.writebacks_ctr = 0
        self.port_accesses = 0

    # -- lookup --------------------------------------------------------
    def _find_line(self, line_addr: int) -> Optional[_Line]:
        cache_set = self._sets.get(line_addr % self.fab.num_sets)
        if cache_set:
            for line in cache_set:
                if line.line_addr == line_addr and line.state != _INV:
                    return line
        return None

    def peek_word(self, addr: int) -> Optional[int]:
        line = self._find_line(addr // self.fab.line_size)
        if line is None:
            return None
        return line.data[addr % self.fab.line_size]

    def _touch(self, line: _Line) -> None:
        self._lru_clock += 1
        line.lru = self._lru_clock

    # -- port arbitration ---------------------------------------------
    def can_accept(self) -> bool:
        if self._port_cycle != self.fab.engine.cycle:
            return self.fab.ports > 0
        return self._port_used < self.fab.ports

    def _use_port(self) -> None:
        cycle = self.fab.engine.cycle
        if self._port_cycle != cycle:
            self._port_cycle = cycle
            self._port_used = 0
        self._port_used += 1
        self.port_accesses += 1

    # -- demand accesses ----------------------------------------------
    def access(self, req: AccessRequest) -> bool:
        fab = self.fab
        cycle = fab.engine.cycle
        # can_accept, inlined (hot path: every load/store issue attempt)
        if self._port_cycle == cycle:
            if self._port_used >= fab.ports:
                return False
        elif fab.ports <= 0:
            return False
        line_addr = req.addr // fab.line_size
        line = self._find_line(line_addr)
        mshr = self.mshrs.get(line_addr)
        needs_excl = req.kind is not AccessKind.LOAD or req.exclusive_hint

        if line is not None and (line.state == _MODIFIED
                                 or (line.state == _SHARED and not needs_excl)):
            self._use_port()
            self.hits += 1
            self._touch(line)
            req.issued_cycle = cycle
            fab.post(fab.hit_latency, self._complete_access, req, line_addr)
            return True

        if mshr is not None:
            self._use_port()
            self.merges += 1
            req.issued_cycle = cycle
            if needs_excl and not mshr.exclusive:
                mshr.pending_exclusive.append(req)
            else:
                mshr.waiters.append(req)
            return True

        if len(self.mshrs) >= fab.mshr_entries:
            return False

        self._use_port()
        self.misses += 1
        req.issued_cycle = cycle
        entry = _Mshr(line_addr, needs_excl, cycle)
        entry.waiters.append(req)
        self.mshrs[line_addr] = entry
        if needs_excl and line is not None and line.state == _SHARED:
            fab.send_request(self.node, _T_UPGRADE, line_addr)
        else:
            fab.send_request(self.node, _T_READX if needs_excl else _T_READ,
                             line_addr)
        return True

    # -- completion ----------------------------------------------------
    def _complete_access(self, req: AccessRequest, line_addr: int) -> None:
        line = self._find_line(line_addr)
        if line is None:
            # invalidated/replaced between hit detection and completion
            self.fab.post(0, self._retry, req)
            return
        if req.kind is not AccessKind.LOAD and line.state != _MODIFIED:
            # lost permission (RECALL downgrade) in the same window
            self.fab.post(0, self._retry, req)
            return
        widx = req.addr % self.fab.line_size
        if req.kind is AccessKind.LOAD:
            value = line.data[widx]
        elif req.kind is AccessKind.STORE:
            line.data[widx] = req.value
            value = req.value
        else:  # RMW
            old = line.data[widx]
            line.data[widx] = _rmw_new_value(req.rmw_op, old, req.value)
            value = old
        self._touch(line)
        if req.callback is not None:
            req.callback(req, value)

    def _retry(self, req: AccessRequest) -> None:
        if not self.access(req):
            self.fab.post(1, self._retry, req)

    # -- fills ---------------------------------------------------------
    def _install(self, line_addr: int, state: int,
                 data: List[int]) -> Optional[_Line]:
        cache_set = self._sets.setdefault(line_addr % self.fab.num_sets, [])
        for line in cache_set:
            if line.line_addr == line_addr:
                line.state = state
                line.data = list(data)
                self._touch(line)
                return line
        if len(cache_set) < self.fab.assoc:
            line = _Line(line_addr, state, list(data))
            self._touch(line)
            cache_set.append(line)
            return line
        victims = [
            l for l in cache_set
            if l.line_addr not in self.mshrs and l.line_addr not in self._writebacks
        ]
        if not victims:
            return None
        victim = min(victims, key=lambda l: l.lru)
        self._evict(victim)
        victim.line_addr = line_addr
        victim.state = state
        victim.data = list(data)
        self._touch(victim)
        return victim

    def _evict(self, line: _Line) -> None:
        self.replacements += 1
        if line.state == _MODIFIED:
            self.writebacks_ctr += 1
            self._writebacks[line.line_addr] = list(line.data)
            self.fab.send_writeback(self.node, line.line_addr, list(line.data))
        line.state = _INV

    def _on_data(self, line_addr: int, data: List[int]) -> None:
        entry = self.mshrs.get(line_addr)
        if entry is None:
            raise ProtocolError(
                f"cache{self.node}: DATA with no MSHR for line {line_addr:#x}")
        line = self._install(line_addr, _SHARED, data)
        if line is None:
            self.fab.post(1, self._on_data, line_addr, data)
            return
        del self.mshrs[line_addr]
        pending_excl = entry.pending_exclusive
        for req in entry.waiters:
            self._complete_access(req, line_addr)
        if pending_excl:
            # stores merged onto a shared miss: upgrade to ownership now
            new_entry = _Mshr(line_addr, True, self.fab.engine.cycle)
            new_entry.waiters.extend(pending_excl)
            self.mshrs[line_addr] = new_entry
            self.fab.send_request(self.node, _T_UPGRADE, line_addr)

    def _on_data_excl(self, line_addr: int, data: Optional[List[int]]) -> None:
        entry = self.mshrs.get(line_addr)
        if entry is None:
            raise ProtocolError(
                f"cache{self.node}: DATA_EXCL with no MSHR for line {line_addr:#x}")
        if data is None:
            # upgrade ack: keep the data we already have
            existing = self._find_line(line_addr)
            if existing is None:
                raise ProtocolError(
                    f"cache{self.node}: upgrade ack for line {line_addr:#x} not present")
            fill = existing.data
        else:
            fill = data
        line = self._install(line_addr, _MODIFIED, fill)
        if line is None:
            self.fab.post(1, self._on_data_excl, line_addr, data)
            return
        del self.mshrs[line_addr]
        for req in entry.waiters + entry.pending_exclusive:
            self._complete_access(req, line_addr)

    # -- snoops --------------------------------------------------------
    def _on_inval(self, line_addr: int, txn: int) -> None:
        self.invals_received += 1
        line = self._find_line(line_addr)
        if line is not None:
            line.state = _INV
        self.fab.send_inval_ack(self.node, line_addr, txn)

    def _on_recall(self, line_addr: int, txn: int) -> None:
        line = self._find_line(line_addr)
        if line is None or line.state != _MODIFIED:
            # raced with our own writeback; the directory will use it
            self.fab.send_recall_ack(self.node, line_addr, txn, None)
            return
        line.state = _SHARED
        self.fab.send_recall_ack(self.node, line_addr, txn, list(line.data))

    def _on_recall_inval(self, line_addr: int, txn: int) -> None:
        line = self._find_line(line_addr)
        data: Optional[List[int]] = None
        if line is not None:
            if line.state == _MODIFIED:
                data = list(line.data)
            line.state = _INV
        self.fab.send_recall_ack(self.node, line_addr, txn, data)

    def _on_wb_ack(self, line_addr: int) -> None:
        self._writebacks.pop(line_addr, None)

    # -- bookkeeping ---------------------------------------------------
    def is_quiescent(self) -> bool:
        return not self.mshrs and not self._writebacks

    def warm_install(self, line_addr: int, state: int, data: List[int]) -> None:
        if self._install(line_addr, state, data) is None:
            raise ProtocolError("warm_install could not find a victim way")


class FastFabric:
    """One lane's memory system: caches + directory + FIFO channels."""

    __slots__ = ("engine", "lane", "num_sets", "assoc", "line_size",
                 "hit_latency", "mshr_entries", "ports",
                 "lat_request", "lat_response", "lat_inval", "lat_inval_ack",
                 "lat_recall", "lat_recall_response", "lat_memory",
                 "caches", "_chan", "in_flight", "net_messages", "net_hops",
                 "_mem", "_entries", "_busy", "_queues", "_next_txn",
                 "dir_reads", "dir_readx", "dir_upgrades", "dir_invals_sent",
                 "dir_recalls_sent", "dir_writebacks", "dir_queued")

    def __init__(self, engine: "BatchEngine", lane: int,
                 job: "BatchJob") -> None:
        self.engine = engine
        self.lane = lane
        cfg = job.cache_config()
        self.num_sets = cfg.num_sets
        self.assoc = cfg.assoc
        self.line_size = cfg.line_size
        self.hit_latency = cfg.hit_latency
        self.mshr_entries = cfg.mshr_entries
        self.ports = cfg.ports
        lat = _LAT_CACHE.get(job.miss_latency)
        if lat is None:
            lat = _LAT_CACHE[job.miss_latency] = (
                LatencyConfig.from_miss_latency(job.miss_latency))
        self.lat_request = lat.request
        self.lat_response = lat.response
        self.lat_inval = lat.inval
        self.lat_inval_ack = lat.inval_ack
        self.lat_recall = lat.recall
        self.lat_recall_response = lat.recall_response
        self.lat_memory = lat.memory

        self.caches = [FastCache(self, cpu) for cpu in range(job.ncpu)]
        self._chan: Dict[tuple, int] = {}
        self.in_flight = 0
        self.net_messages = 0
        self.net_hops = 0

        self._mem: Dict[int, int] = {}
        self._entries: Dict[int, _DirEnt] = {}
        self._busy: Dict[int, _Txn] = {}
        self._queues: Dict[int, deque] = {}
        self._next_txn = 1
        self.dir_reads = 0
        self.dir_readx = 0
        self.dir_upgrades = 0
        self.dir_invals_sent = 0
        self.dir_recalls_sent = 0
        self.dir_writebacks = 0
        self.dir_queued = 0

        if job.initial_memory:
            self._mem.update(job.initial_memory)
        for cpu, addr, exclusive in job.warm_lines:
            self.warm(cpu, addr, exclusive=exclusive)

    # -- event plumbing ------------------------------------------------
    def post(self, delay: int, fn, *args) -> None:
        engine = self.engine
        engine.post(self.lane, engine.cycle + delay, None, fn, args)

    def _net_send(self, latency: int, src: int, dst: int, fn, *args) -> None:
        """The Interconnect's ``send``: FIFO per (src, dst) channel."""
        engine = self.engine
        arrival = engine.cycle + latency
        channel = (src, dst)
        floor = self._chan.get(channel, -1)
        if arrival < floor:
            arrival = floor
        self._chan[channel] = arrival
        self.net_messages += 1
        self.net_hops += latency
        self.in_flight += 1
        # the engine decrements in_flight at delivery (no per-message
        # closure; ``self`` rides along in the bucket entry)
        engine.post(self.lane, arrival, self, fn, args)

    # -- cache -> directory --------------------------------------------
    def send_request(self, src: int, kind: int, line_addr: int) -> None:
        self._net_send(self.lat_request, src, _DIR,
                       self._accept_request, kind, src, line_addr)

    def send_writeback(self, src: int, line_addr: int, data: List[int]) -> None:
        self._net_send(self.lat_request, src, _DIR,
                       self._on_writeback, src, line_addr, data)

    def send_inval_ack(self, src: int, line_addr: int, txn: int) -> None:
        self._net_send(self.lat_inval_ack, src, _DIR,
                       self._on_inval_ack, line_addr, txn)

    def send_recall_ack(self, src: int, line_addr: int, txn: int,
                        data: Optional[List[int]]) -> None:
        self._net_send(self.lat_recall_response, src, _DIR,
                       self._on_recall_ack, line_addr, txn, data)

    # -- directory: backing store --------------------------------------
    def init_memory(self, values: Dict[int, int]) -> None:
        self._mem.update(values)

    def _read_line(self, line_addr: int) -> List[int]:
        base = line_addr * self.line_size
        mem = self._mem
        return [mem.get(base + i, 0) for i in range(self.line_size)]

    def _write_line(self, line_addr: int, data: List[int]) -> None:
        base = line_addr * self.line_size
        for i, word in enumerate(data):
            self._mem[base + i] = word

    def entry(self, line_addr: int) -> _DirEnt:
        ent = self._entries.get(line_addr)
        if ent is None:
            ent = self._entries[line_addr] = _DirEnt()
        return ent

    # -- directory: transactions ---------------------------------------
    def _accept_request(self, kind: int, src: int, line_addr: int) -> None:
        if line_addr in self._busy:
            self.dir_queued += 1
            self._queues.setdefault(line_addr, deque()).append((kind, src))
            return
        self._start(kind, src, line_addr)

    def _start(self, kind: int, src: int, line_addr: int) -> None:
        txn = _Txn(self._next_txn, kind, src, line_addr)
        self._next_txn += 1
        self._busy[line_addr] = txn
        # directory lookup + memory access latency, then act
        self.post(self.lat_memory, self._act, txn)

    def _finish(self, txn: _Txn) -> None:
        del self._busy[txn.line_addr]
        queue = self._queues.get(txn.line_addr)
        if queue:
            kind, src = queue.popleft()
            if not queue:
                del self._queues[txn.line_addr]
            self.post(0, self._start, kind, src, txn.line_addr)

    def _act(self, txn: _Txn) -> None:
        if txn.kind == _T_READ:
            self._act_read(txn)
        else:
            self._act_readx(txn, upgrade=txn.kind == _T_UPGRADE)

    def _act_read(self, txn: _Txn) -> None:
        self.dir_reads += 1
        ent = self.entry(txn.line_addr)
        if ent.state != _DEXCL:
            ent.state = _DSHARED
            ent.sharers.add(txn.requester)
            self._send_data(txn)
            self._finish(txn)
            return
        if ent.owner == txn.requester:
            raise ProtocolError(
                f"owner {ent.owner} issued READ for line {txn.line_addr:#x} it still owns")
        self.dir_recalls_sent += 1
        self._net_send(self.lat_recall, _DIR, ent.owner,
                       self.caches[ent.owner]._on_recall,
                       txn.line_addr, txn.txn_id)

    def _act_readx(self, txn: _Txn, upgrade: bool) -> None:
        if upgrade:
            self.dir_upgrades += 1
        else:
            self.dir_readx += 1
        ent = self.entry(txn.line_addr)
        if ent.state == _UNOWNED:
            self._grant_exclusive(txn, with_data=True)
            return
        if ent.state == _DSHARED:
            others = sorted(s for s in ent.sharers if s != txn.requester)
            txn.pending_acks = len(others)
            requester_has_copy = upgrade and txn.requester in ent.sharers
            txn.grant_with_data = not requester_has_copy
            if not others:
                self._grant_exclusive(txn, with_data=not requester_has_copy)
                return
            for node in others:
                self.dir_invals_sent += 1
                self._net_send(self.lat_inval, _DIR, node,
                               self.caches[node]._on_inval,
                               txn.line_addr, txn.txn_id)
            return
        if ent.owner == txn.requester:
            raise ProtocolError(
                f"owner {ent.owner} re-requested exclusive line {txn.line_addr:#x}")
        self.dir_recalls_sent += 1
        self._net_send(self.lat_recall, _DIR, ent.owner,
                       self.caches[ent.owner]._on_recall_inval,
                       txn.line_addr, txn.txn_id)

    def _current_txn(self, line_addr: int, txn_id: int) -> _Txn:
        txn = self._busy.get(line_addr)
        if txn is None or txn.txn_id != txn_id:
            raise ProtocolError(
                f"ack for line {line_addr:#x} txn {txn_id} does not match the busy transaction")
        return txn

    def _on_inval_ack(self, line_addr: int, txn_id: int) -> None:
        txn = self._current_txn(line_addr, txn_id)
        txn.pending_acks -= 1
        if txn.pending_acks == 0:
            self._grant_exclusive(txn, with_data=txn.grant_with_data)

    def _on_recall_ack(self, line_addr: int, txn_id: int,
                       data: Optional[List[int]]) -> None:
        txn = self._current_txn(line_addr, txn_id)
        if data is None:
            # the owner's writeback crossed our recall
            if txn.writeback_arrived:
                self._complete_after_recall(txn)
            else:
                txn.awaiting_writeback = True
            return
        self._write_line(line_addr, data)
        self._complete_after_recall(txn)

    def _complete_after_recall(self, txn: _Txn) -> None:
        ent = self.entry(txn.line_addr)
        old_owner = ent.owner
        if txn.kind == _T_READ:
            ent.state = _DSHARED
            ent.owner = None
            ent.sharers = {txn.requester}
            if old_owner is not None:
                ent.sharers.add(old_owner)
            self._send_data(txn)
            self._finish(txn)
        else:  # READX / UPGRADE that found an exclusive owner
            self._grant_exclusive(txn, with_data=True)

    def _on_writeback(self, src: int, line_addr: int, data: List[int]) -> None:
        self.dir_writebacks += 1
        ent = self.entry(line_addr)
        txn = self._busy.get(line_addr)
        if txn is not None and ent.state == _DEXCL and ent.owner == src:
            # the owner is writing back a line we are recalling
            self._write_line(line_addr, data or [])
            ent.state = _UNOWNED
            ent.owner = None
            ent.sharers = set()
            self._net_send(self.lat_response, _DIR, src,
                           self.caches[src]._on_wb_ack, line_addr)
            if txn.awaiting_writeback:
                txn.awaiting_writeback = False
                self._complete_after_recall(txn)
            else:
                txn.writeback_arrived = True
            return
        if ent.state == _DEXCL and ent.owner == src:
            self._write_line(line_addr, data or [])
            ent.state = _UNOWNED
            ent.owner = None
            ent.sharers = set()
        self._net_send(self.lat_response, _DIR, src,
                       self.caches[src]._on_wb_ack, line_addr)

    # -- directory: replies --------------------------------------------
    def _grant_exclusive(self, txn: _Txn, with_data: bool) -> None:
        ent = self.entry(txn.line_addr)
        ent.state = _DEXCL
        ent.owner = txn.requester
        ent.sharers = set()
        self._net_send(self.lat_response, _DIR, txn.requester,
                       self.caches[txn.requester]._on_data_excl,
                       txn.line_addr,
                       self._read_line(txn.line_addr) if with_data else None)
        self._finish(txn)

    def _send_data(self, txn: _Txn) -> None:
        self._net_send(self.lat_response, _DIR, txn.requester,
                       self.caches[txn.requester]._on_data,
                       txn.line_addr, self._read_line(txn.line_addr))

    # -- fabric-level helpers (mirror MemoryFabric) --------------------
    def read_word(self, addr: int) -> int:
        ent = self.entry(addr // self.line_size)
        if isinstance(ent.owner, int) and 0 <= ent.owner < len(self.caches):
            owned = self.caches[ent.owner].peek_word(addr)
            if owned is not None:
                return owned
        return self._mem.get(addr, 0)

    def warm(self, cpu: int, addr: int, exclusive: bool = False) -> None:
        line_addr = addr // self.line_size
        data = self._read_line(line_addr)
        self.caches[cpu].warm_install(
            line_addr, _MODIFIED if exclusive else _SHARED, data)
        ent = self.entry(line_addr)
        if exclusive:
            ent.state = _DEXCL
            ent.owner = cpu
            ent.sharers = set()
        else:
            if ent.state == _DEXCL:
                raise ValueError("cannot warm-share a line that is exclusively owned")
            ent.state = _DSHARED
            ent.sharers.add(cpu)

    def is_quiescent(self) -> bool:
        if self.in_flight or self._busy or self._queues:
            return False
        for cache in self.caches:
            if cache.mshrs or cache._writebacks:
                return False
        return True

    # -- stats ---------------------------------------------------------
    def flush_stats(self, stats: StatsRegistry) -> None:
        """Create the exact counter set the scalar fabric classes create
        eagerly, with this lane's final values (prefetch/update counters
        are structurally zero inside the envelope)."""
        stats.counter("net/messages").inc(self.net_messages)
        stats.counter("net/total_latency").inc(self.net_hops)
        stats.counter("dir/reads").inc(self.dir_reads)
        stats.counter("dir/readx").inc(self.dir_readx)
        stats.counter("dir/upgrades").inc(self.dir_upgrades)
        stats.counter("dir/invals_sent").inc(self.dir_invals_sent)
        stats.counter("dir/recalls_sent").inc(self.dir_recalls_sent)
        stats.counter("dir/writebacks").inc(self.dir_writebacks)
        stats.counter("dir/updates_sent")
        stats.counter("dir/requests_queued").inc(self.dir_queued)
        for cache in self.caches:
            p = f"cache{cache.node}"
            stats.counter(f"{p}/hits").inc(cache.hits)
            stats.counter(f"{p}/misses").inc(cache.misses)
            stats.counter(f"{p}/mshr_merges").inc(cache.merges)
            stats.counter(f"{p}/prefetches_issued")
            stats.counter(f"{p}/prefetches_discarded")
            stats.counter(f"{p}/prefetches_useful")
            stats.counter(f"{p}/prefetches_late")
            stats.counter(f"{p}/prefetches_useful_hit")
            stats.counter(f"{p}/prefetches_useless_invalidated")
            stats.counter(f"{p}/invals_received").inc(cache.invals_received)
            stats.counter(f"{p}/updates_received")
            stats.counter(f"{p}/replacements").inc(cache.replacements)
            stats.counter(f"{p}/writebacks").inc(cache.writebacks_ctr)
            stats.counter(f"{p}/port_accesses").inc(cache.port_accesses)
