"""Memory system: lockup-free caches, interconnect, shared types."""

from .cache import CacheLine, LockupFreeCache, MshrEntry
from .interconnect import Interconnect
from .types import (
    AccessKind,
    AccessRequest,
    CacheConfig,
    LatencyConfig,
    LineState,
    SnoopKind,
)

__all__ = [
    "AccessKind",
    "AccessRequest",
    "CacheConfig",
    "CacheLine",
    "Interconnect",
    "LatencyConfig",
    "LineState",
    "LockupFreeCache",
    "MshrEntry",
    "SnoopKind",
]
