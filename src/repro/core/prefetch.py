"""Hardware-controlled non-binding prefetch (paper, Section 3).

The prefetcher watches the load/store unit's buffers for accesses that
are *delayed due to consistency constraints* but whose addresses are
already computable, and issues non-binding prefetches for them:

* **read prefetch** for delayed loads — brings the line in read-shared
  state;
* **read-exclusive prefetch** for delayed stores and RMWs — acquires
  ownership early, so the write completes quickly once the consistency
  model allows it to issue.  Only meaningful under an invalidation
  protocol (Section 3.2), so it is disabled under the update protocol.

A prefetch probes the cache first and is discarded if the line is
already present or already being fetched (that logic lives in
:meth:`LockupFreeCache.prefetch`).  Prefetches only consume cache
bandwidth left over by demand accesses: the LSU ticks before the
prefetcher, and the cache port check arbitrates.
"""

from __future__ import annotations

from ..memory.cache import LockupFreeCache
from ..sim.state import FIXED
from ..sim.stats import StatsRegistry


class HardwarePrefetcher:
    #: it keeps no run state: the buffers it reads are the unit's
    STATE = dict(cache=FIXED, per_cycle=FIXED, allow_exclusive=FIXED,
                 stat_issued=FIXED, stat_exclusive=FIXED)

    def __init__(
        self,
        cache: LockupFreeCache,
        per_cycle: int,
        stats: StatsRegistry,
        name: str = "prefetcher",
    ) -> None:
        self.cache = cache
        #: prefetches the load/store unit may issue in one cycle
        self.per_cycle = per_cycle
        self.allow_exclusive = cache.config.protocol == "invalidate"
        self.stat_issued = stats.counter(f"{name}/issued")
        self.stat_exclusive = stats.counter(f"{name}/exclusive")

    def issue(self, addr: int, exclusive: bool) -> bool:
        """Prefetch the line of one delayed access; False when the cache
        port turned it away, so the caller offers it again next cycle
        and nothing younger before it."""
        # Under the update protocol a write cannot be partially
        # serviced (Section 3.2); fall back to a read prefetch,
        # which at least brings the line near.
        exclusive = exclusive and self.allow_exclusive
        if not self.cache.prefetch(addr, exclusive=exclusive):
            return False
        self.stat_issued.inc()
        if exclusive:
            self.stat_exclusive.inc()
        return True
