"""Point-to-point interconnect model.

Delivers :class:`~repro.coherence.messages.Message` objects between
nodes after a configurable latency.  Delivery on each (src, dst) channel
is FIFO: a message never overtakes an earlier message on the same
channel, which real networks guarantee per virtual channel and which
the protocol relies on (e.g. INVAL ordered before a later DATA).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

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

    def __init__(self, sim: Simulator, latency_fn: LatencyFn, name: str = "net") -> None:
        self.sim = sim
        self.latency_fn = latency_fn
        self.name = name
        self._endpoints: Dict[NodeId, Callable[[Message], None]] = {}
        self._stat_msgs = sim.stats.counter(f"{name}/messages")
        self._stat_hops = sim.stats.counter(f"{name}/total_latency")
        self.reset()

    def reset(self) -> None:
        """Nothing in flight, every channel's FIFO watermark forgotten."""
        # per-channel watermark enforcing FIFO delivery
        self._last_delivery: Dict[Tuple[NodeId, NodeId], int] = {}
        self._in_flight = 0

    def attach(self, node: NodeId, receive: Callable[[Message], None]) -> None:
        if node in self._endpoints:
            raise ConfigurationError(f"node {node!r} already attached to {self.name}")
        self._endpoints[node] = receive

    def send(self, msg: Message) -> None:
        """Send ``msg``; it is delivered ``latency_fn(msg)`` cycles later."""
        if msg.dst not in self._endpoints:
            raise ConfigurationError(f"message to unattached node {msg.dst!r}: {msg.describe()}")
        latency = self.latency_fn(msg)
        if latency < 0:
            raise ConfigurationError(f"negative latency {latency} for {msg.describe()}")
        arrival = self.sim.cycle + latency
        channel = (msg.src, msg.dst)
        floor = self._last_delivery.get(channel, -1)
        arrival = max(arrival, floor)  # FIFO per channel
        self._last_delivery[channel] = arrival
        self._stat_msgs.inc()
        self._stat_hops.inc(latency)
        self._in_flight += 1

        def deliver() -> None:
            self._in_flight -= 1
            self._endpoints[msg.dst](msg)

        self.sim.schedule_at(max(arrival, self.sim.cycle), deliver)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def is_quiescent(self) -> bool:
        return self._in_flight == 0

