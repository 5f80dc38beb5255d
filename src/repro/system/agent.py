"""A scripted coherence agent.

Attaches to the interconnect like a cache, but is driven by a script of
(cycle, action) pairs instead of a processor.  Used to inject precisely
timed coherence events — e.g. the invalidation for location D that
Figure 5 assumes arrives mid-execution — without having to reverse-
engineer a second processor's pipeline timing.

The agent is a well-behaved protocol citizen: it acks invalidations and
recalls, and keeps just enough line state to answer them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..coherence.messages import DIRECTORY_NODE, Message, MessageKind, NodeId
from ..memory.interconnect import Interconnect
from ..sim.errors import ProtocolError
from ..sim.kernel import Simulator


class ScriptedAgent:
    """A fake processor node issuing scripted coherence requests."""

    def __init__(self, node: NodeId, sim: Simulator, net: Interconnect,
                 line_size: int = 4) -> None:
        self.node = node
        self.sim = sim
        self.net = net
        self.line_size = line_size
        net.attach(node, self.receive)
        self.reset()

    def reset(self) -> None:
        """Holding no line, no write pending."""
        self._owned: Dict[int, List[int]] = {}   # line_addr -> data
        self._shared: Dict[int, List[int]] = {}
        self._pending_write: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Scripted actions
    # ------------------------------------------------------------------
    def write_at(self, cycle: int, addr: int, value: int) -> None:
        """Schedule a write: a READX that invalidates every other copy."""
        line_addr = addr // self.line_size

        def fire() -> None:
            self.net.send(Message(kind=MessageKind.READX, src=self.node,
                                  dst=DIRECTORY_NODE, line_addr=line_addr))
            self._pending_write = (line_addr, addr % self.line_size, value)

        self.sim.schedule_at(cycle, fire)

    def read_at(self, cycle: int, addr: int) -> None:
        """Schedule a read: a READ that downgrades a remote owner."""
        line_addr = addr // self.line_size

        def fire() -> None:
            self.net.send(Message(kind=MessageKind.READ, src=self.node,
                                  dst=DIRECTORY_NODE, line_addr=line_addr))

        self.sim.schedule_at(cycle, fire)

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if msg.kind is MessageKind.DATA_EXCL:
            data = list(msg.data or [0] * self.line_size)
            if self._pending_write and self._pending_write[0] == msg.line_addr:
                _, widx, value = self._pending_write
                data[widx] = value
                self._pending_write = None
            self._owned[msg.line_addr] = data
        elif msg.kind is MessageKind.DATA:
            self._shared[msg.line_addr] = list(msg.data or [])
        elif msg.kind is MessageKind.INVAL:
            self._shared.pop(msg.line_addr, None)
            self._owned.pop(msg.line_addr, None)
            self.net.send(Message(kind=MessageKind.INVAL_ACK, src=self.node,
                                  dst=DIRECTORY_NODE, line_addr=msg.line_addr,
                                  txn=msg.txn))
        elif msg.kind in (MessageKind.RECALL, MessageKind.RECALL_INVAL):
            data = self._owned.pop(msg.line_addr, None)
            if msg.kind is MessageKind.RECALL and data is not None:
                self._shared[msg.line_addr] = data
            self.net.send(Message(kind=MessageKind.RECALL_ACK, src=self.node,
                                  dst=DIRECTORY_NODE, line_addr=msg.line_addr,
                                  txn=msg.txn, data=data))
        elif msg.kind in (MessageKind.WB_ACK, MessageKind.UPDATE_DONE):
            pass
        elif msg.kind is MessageKind.UPDATE:
            self.net.send(Message(kind=MessageKind.UPDATE_ACK, src=self.node,
                                  dst=DIRECTORY_NODE, line_addr=msg.line_addr,
                                  txn=msg.txn))
        else:
            raise ProtocolError(f"scripted agent cannot handle {msg.describe()}")
