"""Shared memory-system types: line states, access requests, configs.

Addresses are word-granular integers.  A cache line covers
``line_size`` consecutive words; ``line_addr = addr // line_size``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..sim.errors import ConfigurationError


class LineState(enum.Enum):
    """Cache line states (MSI; read-exclusive fills install MODIFIED).

    The DASH-style protocol the paper assumes grants *dirty exclusive*
    ownership on a read-exclusive, so a plain E state is unnecessary:
    ownership always arrives with intent to write.
    """

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class AccessKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    RMW = "rmw"

    @property
    def needs_exclusive(self) -> bool:
        return self is not AccessKind.LOAD


class SnoopKind(enum.Enum):
    """Coherence events forwarded to snoop listeners.

    The speculative-load buffer treats all three identically: a matching
    buffered load's value may be stale (paper, Section 4.2 — including
    replacements, whose future coherence traffic would be lost).
    """

    INVALIDATION = "inval"
    UPDATE = "update"
    REPLACEMENT = "replacement"


#: Callback invoked when an access completes: (request, value) -> None.
AccessCallback = Callable[["AccessRequest", int], None]

#: Callback invoked on a coherence snoop event: (kind, line_addr) -> None.
SnoopListener = Callable[[SnoopKind, int], None]


@dataclass
class AccessRequest:
    """A demand memory access presented to the cache by the processor.

    ``req_id`` is unique per processor and lets the LSU match responses
    (and drop stale responses after a speculative reissue, which bumps
    ``generation``).
    """

    req_id: int
    kind: AccessKind
    addr: int
    value: Optional[int] = None           # store/rmw operand
    rmw_op: Optional[str] = None          # "ts" | "swap" | "add" for RMW
    callback: Optional[AccessCallback] = None
    generation: int = 0
    issued_cycle: int = -1
    tag: str = ""                         # human-readable, for traces
    #: a LOAD that should acquire exclusive ownership (the speculative
    #: read-exclusive half of an RMW, Appendix A)
    exclusive_hint: bool = False

    def __post_init__(self) -> None:
        if self.kind is not AccessKind.LOAD and self.value is None:
            raise ConfigurationError(f"{self.kind.value} access requires a value")
        if self.kind is AccessKind.RMW and self.rmw_op is None:
            raise ConfigurationError("RMW access requires rmw_op")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one processor's cache."""

    num_sets: int = 64
    assoc: int = 4
    line_size: int = 4            # words per line
    hit_latency: int = 1
    mshr_entries: int = 16
    ports: int = 1                # demand/prefetch accesses accepted per cycle
    #: "invalidate" (DASH-style, default) or "update" (Dragon-style).
    #: The update protocol supports LOAD/STORE only and disables
    #: read-exclusive prefetching (paper, Section 3.2).
    protocol: str = "invalidate"
    #: word-address ranges [lo, hi) that are never cached (Appendix A's
    #: non-cached read-modify-write locations).  Accesses go straight
    #: to the home node; they are never prefetched or speculated.
    uncached_ranges: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("num_sets", "assoc", "line_size", "hit_latency", "mshr_entries", "ports"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"CacheConfig.{name} must be >= 1")
        if self.protocol not in ("invalidate", "update"):
            raise ConfigurationError(
                f"CacheConfig.protocol must be 'invalidate' or 'update', got {self.protocol!r}"
            )

    def is_uncached(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self.uncached_ranges)

    def line_addr(self, addr: int) -> int:
        return addr // self.line_size

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def word_index(self, addr: int) -> int:
        return addr % self.line_size


@dataclass(frozen=True)
class LatencyConfig:
    """Interconnect and memory latencies, in cycles.

    A clean (two-hop) miss costs ``request + memory + response`` cycles
    end to end; a dirty-remote (three-hop) miss adds
    ``recall + recall_response``.  :meth:`from_miss_latency` builds a
    config whose clean-miss total matches the paper's abstract number
    (100 cycles in Sections 3.3/4.1).
    """

    request: int = 40
    memory: int = 20
    response: int = 40
    recall: int = 30
    recall_response: int = 30
    inval: int = 30
    inval_ack: int = 30

    def __post_init__(self) -> None:
        for name in ("request", "memory", "response", "recall",
                     "recall_response", "inval", "inval_ack"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"LatencyConfig.{name} must be >= 0")

    @property
    def clean_miss(self) -> int:
        return self.request + self.memory + self.response

    @classmethod
    def from_miss_latency(cls, total: int) -> "LatencyConfig":
        """Split ``total`` into request/memory/response ≈ 40/20/40%."""
        if total < 3:
            raise ConfigurationError(f"miss latency must be >= 3 cycles, got {total}")
        request = total * 2 // 5
        memory = total - 2 * request
        hop = max(1, total // 3)
        return cls(
            request=request,
            memory=memory,
            response=request,
            recall=hop,
            recall_response=hop,
            inval=hop,
            inval_ack=hop,
        )
