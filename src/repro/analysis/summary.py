"""Run summaries: digest a RunResult's statistics into readable reports.

Turns the raw counter soup into the quantities an architect actually
reads — IPC, squash rates, prefetch effectiveness, cache behaviour,
network traffic — per CPU and machine-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..system.machine import RunResult
from .tables import Table


@dataclass
class CpuSummary:
    cpu: int
    instructions_retired: int
    instructions_squashed: int
    squash_events: int
    branch_mispredicts: int
    loads: int
    stores: int
    rmws: int
    store_forwards: int
    rs_stalls: int
    sb_stalls: int
    prefetches_issued: int
    slb_squashes: int
    slb_reissues: int
    avg_load_latency: float
    avg_store_latency: float

    def ipc(self, cycles: int) -> float:
        return self.instructions_retired / cycles if cycles else 0.0

    def squash_overhead(self) -> float:
        total = self.instructions_retired + self.instructions_squashed
        return self.instructions_squashed / total if total else 0.0


@dataclass
class MachineSummary:
    cycles: int
    cpus: List[CpuSummary] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    net_messages: int = 0
    dir_invals: int = 0
    dir_recalls: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_ipc(self) -> float:
        retired = sum(c.instructions_retired for c in self.cpus)
        return retired / self.cycles if self.cycles else 0.0


def summarize(result: RunResult) -> MachineSummary:
    """Build a :class:`MachineSummary` from a finished run."""
    stats = result.stats
    num_cpus = len(result.machine.processors)

    def counter(name: str) -> int:
        return stats.counter(name).value

    summary = MachineSummary(
        cycles=result.cycles,
        net_messages=counter("net/messages"),
        dir_invals=counter("dir/invals_sent"),
        dir_recalls=counter("dir/recalls_sent"),
    )
    for cpu in range(num_cpus):
        p = f"cpu{cpu}"
        load_hist = stats.histogram(f"{p}/lsu/load_latency")
        store_hist = stats.histogram(f"{p}/lsu/store_latency")
        summary.cpus.append(CpuSummary(
            cpu=cpu,
            instructions_retired=counter(f"{p}/instructions_retired"),
            instructions_squashed=counter(f"{p}/instructions_squashed"),
            squash_events=counter(f"{p}/squash_events"),
            branch_mispredicts=counter(f"{p}/branch_mispredicts"),
            loads=counter(f"{p}/lsu/loads"),
            stores=counter(f"{p}/lsu/stores"),
            rmws=counter(f"{p}/lsu/rmws"),
            store_forwards=counter(f"{p}/lsu/store_forwards"),
            rs_stalls=counter(f"{p}/lsu/rs_consistency_stalls"),
            sb_stalls=counter(f"{p}/lsu/sb_consistency_stalls"),
            prefetches_issued=counter(f"{p}/prefetcher/issued"),
            slb_squashes=counter(f"{p}/slb/squashes"),
            slb_reissues=counter(f"{p}/slb/reissues"),
            avg_load_latency=round(load_hist.mean, 2),
            avg_store_latency=round(store_hist.mean, 2),
        ))
        summary.cache_hits += counter(f"cache{cpu}/hits")
        summary.cache_misses += counter(f"cache{cpu}/misses")
    return summary


def summary_table(result: RunResult, title: str = "run summary") -> Table:
    """Render the per-CPU digest as a table."""
    s = summarize(result)
    table = Table(
        f"{title} — {s.cycles} cycles, machine IPC {s.total_ipc:.2f}, "
        f"cache hit rate {s.hit_rate:.0%}, {s.net_messages} messages",
        ["cpu", "retired", "IPC", "squashed", "mispredicts",
         "ld/st/rmw", "forwards", "stalls (rs/sb)", "prefetches",
         "slb squash/reissue", "avg ld lat"],
    )
    for c in s.cpus:
        table.add_row(
            c.cpu,
            c.instructions_retired,
            round(c.ipc(s.cycles), 2),
            c.instructions_squashed,
            c.branch_mispredicts,
            f"{c.loads}/{c.stores}/{c.rmws}",
            c.store_forwards,
            f"{c.rs_stalls}/{c.sb_stalls}",
            c.prefetches_issued,
            f"{c.slb_squashes}/{c.slb_reissues}",
            c.avg_load_latency,
        )
    return table
