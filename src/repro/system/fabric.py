"""Memory fabric assembly: interconnect + directory + per-CPU caches.

This is the memory-system half of a multiprocessor, usable on its own
(the protocol tests drive caches directly) and by the full
:class:`~repro.system.machine.Multiprocessor`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..coherence.directory import DirectoryController, DirState
from ..coherence.messages import Message, MessageKind
from ..memory.cache import LockupFreeCache
from ..memory.interconnect import Interconnect
from ..memory.types import CacheConfig, LatencyConfig, LineState
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder


def latency_table(lat: LatencyConfig) -> Dict[MessageKind, int]:
    """Each message kind's transit latency."""
    return {
        MessageKind.READ: lat.request,
        MessageKind.READX: lat.request,
        MessageKind.UPGRADE: lat.request,
        MessageKind.WRITEBACK: lat.request,
        MessageKind.UPDATE_WRITE: lat.request,
        MessageKind.DATA: lat.response,
        MessageKind.DATA_EXCL: lat.response,
        MessageKind.WB_ACK: lat.response,
        MessageKind.UPDATE_DONE: lat.response,
        MessageKind.INVAL: lat.inval,
        MessageKind.INVAL_ACK: lat.inval_ack,
        MessageKind.UPDATE: lat.inval,
        MessageKind.UPDATE_ACK: lat.inval_ack,
        MessageKind.RECALL: lat.recall,
        MessageKind.RECALL_INVAL: lat.recall,
        MessageKind.RECALL_ACK: lat.recall_response,
        MessageKind.UNCACHED_OP: lat.request,
        MessageKind.UNCACHED_DONE: lat.response,
    }


def latency_by_kind(lat: LatencyConfig):
    """Interconnect latency function keyed on message kind."""
    table = latency_table(lat)

    def fn(msg: Message) -> int:
        return table[msg.kind]

    return fn


class MemoryFabric:
    """N coherent caches over one directory and interconnect."""

    def __init__(
        self,
        sim: Simulator,
        num_cpus: int,
        cache_config: Optional[CacheConfig] = None,
        latencies: Optional[LatencyConfig] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.cache_config = cache_config or CacheConfig()
        self.latencies = latencies or LatencyConfig()
        self.net = Interconnect(
            sim, latency_by_kind(self.latencies),
            floor=min(latency_table(self.latencies).values()))
        self.directory = DirectoryController(
            sim, self.net, self.latencies,
            line_size=self.cache_config.line_size, trace=trace,
        )
        self.caches: List[LockupFreeCache] = [
            LockupFreeCache(cpu, sim, self.net, self.cache_config, trace=trace)
            for cpu in range(num_cpus)
        ]
        # none of these ticks, but a wedged run waits on their work
        for component in (self.net, self.directory, *self.caches):
            sim.watch(component)

    def reset(self) -> None:
        """Every cache empty, memory zero, nothing in flight."""
        self.net.reset()
        self.directory.reset()
        for cache in self.caches:
            cache.reset()

    def init_memory(self, values: Dict[int, int]) -> None:
        self.directory.init_memory(values)

    def read_word(self, addr: int) -> int:
        """Coherent read of the current global value of ``addr``.

        Checks for a dirty copy in some cache first, then falls back to
        the backing store.  Debug/validation helper — not a timed path.
        """
        line_addr = self.cache_config.line_addr(addr)
        ent = self.directory.entry(line_addr)
        if isinstance(ent.owner, int) and 0 <= ent.owner < len(self.caches):
            owned = self.caches[ent.owner].peek_word(addr)
            if owned is not None:
                return owned
        return self.directory.read_word(addr)

    def warm(self, cpu: int, addr: int, exclusive: bool = False) -> None:
        """Pre-install the line containing ``addr`` into ``cpu``'s cache,
        updating directory state to match (warm-start for experiments
        where the paper declares an access a cache hit).

        Refuses (``ValueError``) what would break single-writer /
        multiple-reader: sharing a line another CPU owns, or owning a
        line another CPU shares or owns."""
        line_addr = self.cache_config.line_addr(addr)
        ent = self.directory.entry(line_addr)
        if exclusive:
            if ent.sharers - {cpu} or ent.owner not in (None, cpu):
                raise ValueError(
                    "cannot warm-own a line another CPU holds")
        elif ent.state is DirState.EXCLUSIVE:
            raise ValueError("cannot warm-share a line that is exclusively owned")
        base = line_addr * self.cache_config.line_size
        data = [self.directory.read_word(base + i)
                for i in range(self.cache_config.line_size)]
        state = LineState.MODIFIED if exclusive else LineState.SHARED
        self.caches[cpu].warm_install(line_addr, state, data)
        if exclusive:
            ent.owner = cpu
            ent.sharers = set()
        else:
            ent.sharers.add(cpu)

    def is_quiescent(self) -> bool:
        return (
            self.net.is_quiescent()
            and self.directory.is_quiescent()
            and all(c.is_quiescent() for c in self.caches)
        )
