"""Directory-based cache coherence controller (DASH-style).

One directory/memory controller serves all lines (conceptually banked;
bank contention is not modelled).  The directory is *blocking*: it
processes one transaction per line at a time and queues subsequent
requests for that line, which is how many real directories (including
DASH) sidestep protocol races.  The one unavoidable race — a dirty
eviction's WRITEBACK crossing a RECALL — is handled explicitly: an
ownerless RECALL_ACK parks the transaction until the writeback arrives.

Two protocols are provided:

* **invalidate** (default): read-exclusive requests invalidate sharers
  and grant dirty ownership — the protocol the paper's read-exclusive
  prefetch requires;
* **update**: writes propagate values to sharers (UPDATE messages) and
  complete when all sharers acknowledge.  Used to reproduce the paper's
  Section 3.2 discussion of why write prefetching needs invalidations.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..isa.instructions import rmw_result
from ..memory.interconnect import Interconnect
from ..memory.types import LatencyConfig
from ..sim.errors import ProtocolError
from ..sim.kernel import Component, Simulator
from ..sim.state import FIXED, Value, reset
from ..sim.trace import TraceRecorder
from .messages import DIRECTORY_NODE, Message, MessageKind, NodeId


class DirState(enum.Enum):
    UNOWNED = "U"
    SHARED = "S"
    EXCLUSIVE = "E"


@dataclass
class DirEntry:
    sharers: Set[NodeId] = field(default_factory=set)
    owner: Optional[NodeId] = None

    @property
    def state(self) -> DirState:
        """What the owner and the sharers say: an owned line is
        exclusive, a shared one has no owner and a sharer."""
        if self.owner is not None:
            return DirState.EXCLUSIVE
        return DirState.SHARED if self.sharers else DirState.UNOWNED


@dataclass
class Transaction:
    txn_id: int
    kind: MessageKind
    requester: NodeId
    line_addr: int
    pending_acks: int = 0
    awaiting_writeback: bool = False
    #: the raced writeback arrived before the data-less RECALL_ACK
    writeback_arrived: bool = False
    grant_with_data: bool = True
    update_addr: Optional[int] = None
    update_value: Optional[int] = None


class DirectoryController(Component):
    """The home node: directory state plus backing memory."""

    name = "directory"

    #: a reset leaves every line unowned, memory all zero and no
    #: transaction in flight or queued
    STATE = dict(
        sim=FIXED, net=FIXED, trace=FIXED, lat=FIXED, line_size=FIXED,
        stat_reads=FIXED, stat_readx=FIXED, stat_upgrades=FIXED,
        stat_invals=FIXED, stat_recalls=FIXED, stat_writebacks=FIXED,
        stat_updates=FIXED, stat_queued=FIXED, _entries=Value(dict),
        _memory=Value(dict), _busy=Value(dict), _queues=Value(dict),
        _txn_ids=Value(lambda directory: itertools.count(1)))

    def __init__(
        self,
        sim: Simulator,
        net: Interconnect,
        latencies: Optional[LatencyConfig] = None,
        line_size: int = 4,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.trace = trace or TraceRecorder(enabled=False)
        self.lat = latencies or LatencyConfig()
        self.line_size = line_size
        net.attach(DIRECTORY_NODE, self.receive)

        s = sim.stats
        self.stat_reads = s.counter("dir/reads")
        self.stat_readx = s.counter("dir/readx")
        self.stat_upgrades = s.counter("dir/upgrades")
        self.stat_invals = s.counter("dir/invals_sent")
        self.stat_recalls = s.counter("dir/recalls_sent")
        self.stat_writebacks = s.counter("dir/writebacks")
        self.stat_updates = s.counter("dir/updates_sent")
        self.stat_queued = s.counter("dir/requests_queued")
        reset(self)

    # ------------------------------------------------------------------
    # Backing store
    # ------------------------------------------------------------------
    def init_memory(self, values: Dict[int, int]) -> None:
        """Set initial word values (addresses are word-granular)."""
        self._memory.update(values)

    def read_word(self, addr: int) -> int:
        return self._memory.get(addr, 0)

    def _read_line(self, line_addr: int) -> List[int]:
        base = line_addr * self.line_size
        return [self._memory.get(base + i, 0) for i in range(self.line_size)]

    def _write_line(self, line_addr: int, data: List[int]) -> None:
        base = line_addr * self.line_size
        for i, word in enumerate(data):
            self._memory[base + i] = word

    def entry(self, line_addr: int) -> DirEntry:
        if line_addr not in self._entries:
            self._entries[line_addr] = DirEntry()
        return self._entries[line_addr]

    # ------------------------------------------------------------------
    # Message entry point
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if msg.kind in (MessageKind.READ, MessageKind.READX, MessageKind.UPGRADE,
                        MessageKind.UPDATE_WRITE):
            self._accept_request(msg)
        elif msg.kind is MessageKind.WRITEBACK:
            self._on_writeback(msg)
        elif msg.kind is MessageKind.INVAL_ACK:
            self._on_inval_ack(msg)
        elif msg.kind is MessageKind.RECALL_ACK:
            self._on_recall_ack(msg)
        elif msg.kind is MessageKind.UPDATE_ACK:
            self._on_update_ack(msg)
        elif msg.kind is MessageKind.UNCACHED_OP:
            self._on_uncached_op(msg)
        else:
            raise ProtocolError(f"directory cannot handle {msg.describe()}")

    def _on_uncached_op(self, msg: Message) -> None:
        """Perform an uncached access atomically at the home (Appendix A).

        Uncached words are never cached by anyone, so no coherence
        actions are needed; atomicity comes from the home node being
        the single serialization point for the word.
        """

        def act() -> None:
            addr = msg.addr
            old = self._memory.get(addr, 0)
            if msg.uncached_kind == "load":
                result = old
            elif msg.uncached_kind == "store":
                self._memory[addr] = msg.value
                result = msg.value
            elif msg.uncached_kind == "rmw":
                self._memory[addr] = rmw_result(msg.rmw_op, old, msg.value)
                result = old
            else:
                raise ProtocolError(
                    f"unknown uncached access kind {msg.uncached_kind!r}")
            self.net.send(Message(kind=MessageKind.UNCACHED_DONE,
                                  src=DIRECTORY_NODE, dst=msg.src,
                                  line_addr=msg.line_addr, txn=msg.txn,
                                  value=result))

        self.sim.schedule(self.lat.memory, act)

    def _accept_request(self, msg: Message) -> None:
        if msg.line_addr in self._busy:
            self.stat_queued.inc()
            if self.trace.enabled:
                self.trace.record(self.sim.cycle, "dir", "queued",
                                  line=msg.line_addr, op=msg.kind.value,
                                  src=msg.src)
            self._queues.setdefault(msg.line_addr, deque()).append(msg)
            return
        self._start(msg)

    def _start(self, msg: Message) -> None:
        txn = Transaction(
            txn_id=next(self._txn_ids),
            kind=msg.kind,
            requester=msg.src,
            line_addr=msg.line_addr,
            update_addr=msg.addr,
            update_value=msg.value,
        )
        if msg.kind is MessageKind.UPDATE_WRITE:
            txn.txn_id = msg.txn  # the cache's own txn id, echoed in UPDATE_DONE
        self._busy[msg.line_addr] = txn
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, "dir", "txn_start",
                              txn=txn.txn_id, line=txn.line_addr,
                              op=msg.kind.value, src=msg.src)
        # Directory lookup + memory access latency, then act.
        self.sim.schedule(self.lat.memory, lambda: self._act(txn))

    def _finish(self, txn: Transaction) -> None:
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, "dir", "txn_finish",
                              txn=txn.txn_id, line=txn.line_addr)
        del self._busy[txn.line_addr]
        queue = self._queues.get(txn.line_addr)
        if queue:
            # hand the line straight to the next queued request: it
            # never looks idle, so a request arriving later this cycle
            # queues behind it instead of starting a second transaction
            nxt = queue.popleft()
            if not queue:
                del self._queues[txn.line_addr]
            self._start(nxt)

    # ------------------------------------------------------------------
    # Transaction logic
    # ------------------------------------------------------------------
    def _act(self, txn: Transaction) -> None:
        if txn.kind is MessageKind.READ:
            self._act_read(txn)
        elif txn.kind is MessageKind.READX:
            self._act_readx(txn)
        elif txn.kind is MessageKind.UPGRADE:
            self._act_readx(txn, upgrade=True)
        elif txn.kind is MessageKind.UPDATE_WRITE:
            self._act_update_write(txn)
        else:  # pragma: no cover - _start filters kinds
            raise ProtocolError(f"illegal transaction kind {txn.kind}")

    def _act_read(self, txn: Transaction) -> None:
        self.stat_reads.inc()
        ent = self.entry(txn.line_addr)
        if ent.state is not DirState.EXCLUSIVE:
            ent.sharers.add(txn.requester)
            self._send_data(txn, exclusive=False)
            self._finish(txn)
            return
        # EXCLUSIVE: recall from owner, downgrading it to shared.
        if ent.owner == txn.requester:
            raise ProtocolError(
                f"owner {ent.owner} issued READ for line {txn.line_addr:#x} it still owns"
            )
        self.stat_recalls.inc()
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, "dir", "recall_sent",
                              txn=txn.txn_id, line=txn.line_addr, dst=ent.owner)
        self._send(MessageKind.RECALL, ent.owner, txn)

    def _act_readx(self, txn: Transaction, upgrade: bool = False) -> None:
        (self.stat_upgrades if upgrade else self.stat_readx).inc()
        ent = self.entry(txn.line_addr)
        if ent.state is DirState.UNOWNED:
            self._grant_exclusive(txn, with_data=True)
            return
        if ent.state is DirState.SHARED:
            others = sorted(s for s in ent.sharers if s != txn.requester)
            # A "clean" upgrade keeps the requester's copy; data is only
            # needed if the requester is no longer a sharer (its copy was
            # invalidated after it sent the upgrade).
            txn.pending_acks = len(others)
            requester_has_copy = upgrade and txn.requester in ent.sharers
            txn.grant_with_data = not requester_has_copy
            if not others:
                self._grant_exclusive(txn, with_data=not requester_has_copy)
                return
            for node in others:
                self.stat_invals.inc()
                if self.trace.enabled:
                    self.trace.record(self.sim.cycle, "dir", "inval_sent",
                                      txn=txn.txn_id, line=txn.line_addr,
                                      dst=node)
                self._send(MessageKind.INVAL, node, txn)
            return
        # EXCLUSIVE at another cache: recall-invalidate it.
        if ent.owner == txn.requester:
            raise ProtocolError(
                f"owner {ent.owner} re-requested exclusive line {txn.line_addr:#x}"
            )
        self.stat_recalls.inc()
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, "dir", "recall_sent",
                              txn=txn.txn_id, line=txn.line_addr, dst=ent.owner)
        self._send(MessageKind.RECALL_INVAL, ent.owner, txn)

    def _act_update_write(self, txn: Transaction) -> None:
        ent = self.entry(txn.line_addr)
        if ent.state is DirState.EXCLUSIVE:
            raise ProtocolError("update protocol lines can never be EXCLUSIVE")
        if txn.update_addr is None:
            raise ProtocolError("UPDATE_WRITE without a word address")
        self._memory[txn.update_addr] = txn.update_value
        others = sorted(s for s in ent.sharers if s != txn.requester)
        txn.pending_acks = len(others)
        if not others:
            self._send(MessageKind.UPDATE_DONE, txn.requester, txn)
            self._finish(txn)
            return
        for node in others:
            self.stat_updates.inc()
            self.net.send(Message(
                kind=MessageKind.UPDATE, src=DIRECTORY_NODE, dst=node,
                line_addr=txn.line_addr, txn=txn.txn_id,
                addr=txn.update_addr, value=txn.update_value,
            ))

    # ------------------------------------------------------------------
    # Acknowledgement handling
    # ------------------------------------------------------------------
    def _current_txn(self, msg: Message) -> Transaction:
        txn = self._busy.get(msg.line_addr)
        if txn is None or txn.txn_id != msg.txn:
            raise ProtocolError(
                f"ack {msg.describe()} does not match the busy transaction"
            )
        return txn

    def _on_inval_ack(self, msg: Message) -> None:
        txn = self._current_txn(msg)
        txn.pending_acks -= 1
        if txn.pending_acks == 0:
            self._grant_exclusive(txn, with_data=txn.grant_with_data)

    def _on_recall_ack(self, msg: Message) -> None:
        txn = self._current_txn(msg)
        if msg.data is None:
            # The owner's writeback crossed our recall.  The two
            # messages travel different logical paths, so either order
            # is possible at the home node:
            if txn.writeback_arrived:
                self._complete_after_recall(txn)   # writeback got here first
            else:
                txn.awaiting_writeback = True      # wait for it
            return
        self._write_line(txn.line_addr, msg.data)
        self._complete_after_recall(txn)

    def _complete_after_recall(self, txn: Transaction) -> None:
        ent = self.entry(txn.line_addr)
        old_owner = ent.owner
        if txn.kind is MessageKind.READ:
            ent.owner = None
            ent.sharers = {txn.requester}
            if old_owner is not None:
                ent.sharers.add(old_owner)
            self._send_data(txn, exclusive=False)
            self._finish(txn)
        else:  # READX / UPGRADE that found an exclusive owner
            self._grant_exclusive(txn, with_data=True)

    def _on_update_ack(self, msg: Message) -> None:
        txn = self._current_txn(msg)
        txn.pending_acks -= 1
        if txn.pending_acks == 0:
            self._send(MessageKind.UPDATE_DONE, txn.requester, txn)
            self._finish(txn)

    def _on_writeback(self, msg: Message) -> None:
        self.stat_writebacks.inc()
        ent = self.entry(msg.line_addr)
        txn = self._busy.get(msg.line_addr)
        if txn is not None and ent.state is DirState.EXCLUSIVE and ent.owner == msg.src:
            # The owner is writing back a line we are recalling on
            # behalf of ``txn``.  Use the writeback data; the data-less
            # RECALL_ACK may arrive before or after this message.
            self._write_line(msg.line_addr, msg.data or [])
            ent.owner = None
            ent.sharers = set()
            self._send(MessageKind.WB_ACK, msg.src, txn)
            if txn.awaiting_writeback:
                txn.awaiting_writeback = False
                self._complete_after_recall(txn)
            else:
                txn.writeback_arrived = True
            return
        if ent.state is DirState.EXCLUSIVE and ent.owner == msg.src:
            self._write_line(msg.line_addr, msg.data or [])
            ent.owner = None
            ent.sharers = set()
        self.net.send(Message(kind=MessageKind.WB_ACK, src=DIRECTORY_NODE,
                              dst=msg.src, line_addr=msg.line_addr))

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def _grant_exclusive(self, txn: Transaction, with_data: bool) -> None:
        ent = self.entry(txn.line_addr)
        ent.owner = txn.requester
        ent.sharers = set()
        self.net.send(Message(
            kind=MessageKind.DATA_EXCL, src=DIRECTORY_NODE, dst=txn.requester,
            line_addr=txn.line_addr, txn=txn.txn_id,
            data=self._read_line(txn.line_addr) if with_data else None,
        ))
        self._finish(txn)

    def _send_data(self, txn: Transaction, exclusive: bool) -> None:
        self.net.send(Message(
            kind=MessageKind.DATA_EXCL if exclusive else MessageKind.DATA,
            src=DIRECTORY_NODE, dst=txn.requester,
            line_addr=txn.line_addr, txn=txn.txn_id,
            data=self._read_line(txn.line_addr),
        ))

    def _send(self, kind: MessageKind, dst: NodeId, txn: Transaction) -> None:
        self.net.send(Message(kind=kind, src=DIRECTORY_NODE, dst=dst,
                              line_addr=txn.line_addr, txn=txn.txn_id))

    # ------------------------------------------------------------------
    def is_quiescent(self) -> bool:
        return not self._busy and not self._queues

    def describe_wait(self) -> str:
        busy = [f"{line:#x} {txn.kind.value} txn {txn.txn_id} "
                f"({txn.pending_acks} acks pending, "
                f"{len(self._queues.get(line, ()))} queued)"
                for line, txn in self._busy.items()]
        return "directory busy: " + ", ".join(busy) if busy else ""

    def sharers_of(self, line_addr: int) -> Set[NodeId]:
        return set(self.entry(line_addr).sharers)
