"""Point-to-point interconnect model.

Delivers :class:`~repro.coherence.messages.Message` objects between
nodes after a configurable latency.  Delivery on each (src, dst) channel
is FIFO: a message never overtakes an earlier message on the same
channel, which real networks guarantee per virtual channel and which
the protocol relies on (e.g. INVAL ordered before a later DATA).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..coherence.messages import Message, NodeId
from ..sim.errors import ConfigurationError
from ..sim.kernel import Component, Simulator

#: maps a message to its transit latency in cycles
LatencyFn = Callable[[Message], int]


class Interconnect(Component):
    """Latency-only network: no contention, but FIFO per channel.

    Contention modelling is intentionally out of scope — the paper's
    analysis assumes a high-bandwidth pipelined memory system able to
    accept an access every cycle (Section 3.3).
    """

    def __init__(self, sim: Simulator, latency_fn: LatencyFn, name: str = "net",
                 floor: int = 0) -> None:
        self.sim = sim
        self.latency_fn = latency_fn
        self.name = name
        #: no message takes fewer cycles than this (a shorter one is a
        #: ``ConfigurationError``): how far ahead a sleeping node hears
        #: of what is sent to it
        self.floor = floor
        self._endpoints: Dict[NodeId, Callable[[Message], None]] = {}
        self._stat_msgs = sim.stats.counter(f"{name}/messages")
        self._stat_hops = sim.stats.counter(f"{name}/total_latency")
        self.reset()

    def reset(self) -> None:
        """Nothing in flight, nobody watching."""
        #: per channel, the arrival cycles of its messages in flight,
        #: in order: the last is the FIFO watermark (a few at a time, so
        #: a list: a machine has two channels a cache)
        self._channels: Dict[Tuple[NodeId, NodeId], List[int]] = {}
        self._in_flight = 0
        #: node -> told the arrival cycle of each message sent to it
        self._watchers: Dict[NodeId, Callable[[int], None]] = {}

    def attach(self, node: NodeId, receive: Callable[[Message], None]) -> None:
        if node in self._endpoints:
            raise ConfigurationError(f"node {node!r} already attached to {self.name}")
        self._endpoints[node] = receive

    def send(self, msg: Message) -> None:
        """Send ``msg``; it is delivered ``latency_fn(msg)`` cycles later."""
        if msg.dst not in self._endpoints:
            raise ConfigurationError(f"message to unattached node {msg.dst!r}: {msg.describe()}")
        latency = self.latency_fn(msg)
        if latency < self.floor:
            raise ConfigurationError(
                f"latency {latency} below the floor {self.floor} "
                f"for {msg.describe()}")
        arrival = self.sim.cycle + latency
        channel = (msg.src, msg.dst)
        queue = self._channels.get(channel)
        if queue is None:
            queue = self._channels[channel] = []
        elif queue and queue[-1] > arrival:
            arrival = queue[-1]  # FIFO per channel
        queue.append(arrival)
        self._stat_msgs.inc()
        self._stat_hops.inc(latency)
        self._in_flight += 1
        if self._watchers:
            watcher = self._watchers.get(msg.dst)
            if watcher is not None:
                watcher(arrival)

        def deliver() -> None:
            self._in_flight -= 1
            del queue[0]
            self._endpoints[msg.dst](msg)

        self.sim.schedule_at(arrival, deliver)

    def watch(self, node: NodeId,
              watcher: Optional[Callable[[int], None]]) -> None:
        """Tell ``watcher`` the arrival cycle of every message sent to
        ``node`` from now on (``None``: stop)."""
        if watcher is None:
            self._watchers.pop(node, None)
        else:
            self._watchers[node] = watcher

    def next_arrival(self, node: NodeId) -> Optional[int]:
        """Arrival cycle of the first message in flight to ``node``."""
        firsts = [queue[0] for (_, dst), queue in self._channels.items()
                  if dst == node and queue]
        return min(firsts) if firsts else None

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def is_quiescent(self) -> bool:
        return self._in_flight == 0

