"""The run report: one record per CPU, read once from a run's statistics.

:meth:`CpuSummary.from_stats` is the one reader of the per-CPU counters
of a :class:`~repro.sim.stats.StatsRegistry`: activity (IPC, the access
mix, consistency stalls), cycle blame (the paper's normalized
execution-time breakdown, via
:func:`~repro.obs.accounting.breakdown_from_stats`), and how often the
two techniques fired and paid off:

* prefetch (Section 3): the prefetcher's *requests*, each of which the
  cache either *issues* to memory (it missed and an MSHR was free) or
  *discards* (line present, already in flight, no MSHR, uncached); of
  the issued ones, how many were *late* (a demand access merged onto
  the in-flight miss), *useful hits* (the demand access hit the
  completed line) or *useless* (the line was lost before any demand
  access, the binding-prefetch failure of Section 3.1 that non-binding
  prefetch turns into wasted bandwidth);
* speculative loads (Section 4.2): loads inserted into the
  speculative-load buffer, confirmed at retirement, or corrected —
  by reissue (the value was not yet used) or rollback (it was) — with
  each correction's cause by snoop kind.

:func:`summarize` adds the machine-wide counters, and
``python -m repro.run --summary`` prints :func:`summary_table`,
:func:`breakdown_table` and :func:`effectiveness_table`, each a view of
the same records; the experiments that report a per-CPU prefetch or SLB
count read them too.  A report only reads: ``--stats-json`` after
``--summary`` holds the statistics the run registered, no more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..memory.types import SnoopKind
from ..obs.accounting import CAUSES, CycleBreakdown, breakdown_from_stats
from ..sim.stats import StatsRegistry
from ..system.machine import RunResult
from .tables import Table


@dataclass
class CpuSummary:
    """Everything the run report says about one CPU."""

    cpu: int
    # activity
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
    avg_load_latency: float
    avg_store_latency: float
    #: every cycle on exactly one cause; sums to the run's cycle count
    blame: CycleBreakdown
    # prefetch: requested == issued + discarded
    pf_requested: int
    pf_exclusive: int   # of the requests, read-exclusive
    pf_issued: int
    pf_discarded: int
    pf_late: int
    pf_hits: int
    pf_useless: int
    # speculative loads
    slb_inserted: int
    slb_confirmed: int
    slb_reissues: int
    slb_rollbacks: int
    #: corrections by the snoop kind that triggered them
    reissue_causes: Dict[str, int]
    rollback_causes: Dict[str, int]
    #: processor-level squashes by reason
    squash_reasons: Dict[str, int]

    @classmethod
    def from_stats(cls, stats: StatsRegistry, cpu: int) -> "CpuSummary":
        counters = stats.counters()
        histograms = stats.histograms()
        p, cache = f"cpu{cpu}", f"cache{cpu}"

        def c(name: str) -> int:
            return counters.get(name, 0)

        def mean(name: str) -> float:
            hist = histograms.get(name)
            return round(hist.mean, 2) if hist is not None else 0.0

        def causes(bucket: str) -> Dict[str, int]:
            return {kind.value: c(f"{p}/slb/{bucket}_cause/{kind.value}")
                    for kind in SnoopKind}

        reason = f"{p}/squash_reason/"
        return cls(
            cpu=cpu,
            instructions_retired=c(f"{p}/instructions_retired"),
            instructions_squashed=c(f"{p}/instructions_squashed"),
            squash_events=c(f"{p}/squash_events"),
            branch_mispredicts=c(f"{p}/branch_mispredicts"),
            loads=c(f"{p}/lsu/loads"),
            stores=c(f"{p}/lsu/stores"),
            rmws=c(f"{p}/lsu/rmws"),
            store_forwards=c(f"{p}/lsu/store_forwards"),
            rs_stalls=c(f"{p}/lsu/rs_consistency_stalls"),
            sb_stalls=c(f"{p}/lsu/sb_consistency_stalls"),
            avg_load_latency=mean(f"{p}/lsu/load_latency"),
            avg_store_latency=mean(f"{p}/lsu/store_latency"),
            blame=breakdown_from_stats(stats, cpu),
            pf_requested=c(f"{p}/prefetcher/issued"),
            pf_exclusive=c(f"{p}/prefetcher/exclusive"),
            pf_issued=c(f"{cache}/prefetches_issued"),
            pf_discarded=c(f"{cache}/prefetches_discarded"),
            pf_late=c(f"{cache}/prefetches_late"),
            pf_hits=c(f"{cache}/prefetches_useful_hit"),
            pf_useless=c(f"{cache}/prefetches_useless_invalidated"),
            slb_inserted=c(f"{p}/slb/inserted"),
            slb_confirmed=c(f"{p}/slb/retired"),
            slb_reissues=c(f"{p}/slb/reissues"),
            slb_rollbacks=c(f"{p}/slb/squashes"),
            reissue_causes=causes("reissue"),
            rollback_causes=causes("rollback"),
            squash_reasons={name[len(reason):]: value
                            for name, value in counters.items()
                            if name.startswith(reason)},
        )

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

    @property
    def blame(self) -> CycleBreakdown:
        """All CPUs' cycle causes summed."""
        total = CycleBreakdown()
        for c in self.cpus:
            total = total.merged_with(c.blame)
        return total


def summarize(result: RunResult) -> MachineSummary:
    """Build a :class:`MachineSummary` from a finished run."""
    counters: Mapping[str, int] = result.stats.counters()
    num_cpus = len(result.machine.processors)
    return MachineSummary(
        cycles=result.cycles,
        cpus=[CpuSummary.from_stats(result.stats, cpu)
              for cpu in range(num_cpus)],
        cache_hits=sum(counters.get(f"cache{cpu}/hits", 0)
                       for cpu in range(num_cpus)),
        cache_misses=sum(counters.get(f"cache{cpu}/misses", 0)
                         for cpu in range(num_cpus)),
        net_messages=counters.get("net/messages", 0),
        dir_invals=counters.get("dir/invals_sent", 0),
        dir_recalls=counters.get("dir/recalls_sent", 0),
    )


# ----------------------------------------------------------------------
# The three views ``--summary`` prints
# ----------------------------------------------------------------------

def summary_table(result: RunResult, title: str = "run summary") -> Table:
    """Per-CPU activity, under the machine-wide figures."""
    s = summarize(result)
    table = Table(
        f"{title} — {s.cycles} cycles, machine IPC {s.total_ipc:.2f}, "
        f"cache hit rate {s.hit_rate:.0%}, {s.net_messages} messages",
        ["cpu", "retired", "IPC", "squashed", "mispredicts",
         "ld/st/rmw", "forwards", "stalls (rs/sb)", "avg ld lat"],
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
            c.avg_load_latency,
        )
    return table


def breakdown_table(result: RunResult, title: str = "cycle breakdown") -> Table:
    """Per-CPU (plus machine-total) cause columns for one finished run."""
    s = summarize(result)
    table = Table(title, ["cpu"] + [c.value for c in CAUSES] + ["total"])
    rows = [(f"cpu{c.cpu}", c.blame) for c in s.cpus]
    if len(s.cpus) > 1:
        rows.append(("all", s.blame))
    for name, bd in rows:
        table.add_row(name, *[bd.get(c) for c in CAUSES], bd.total)
    table.add_note("every cycle of every CPU is attributed to exactly one "
                   "cause, so each row sums to the run's cycle count")
    return table


def effectiveness_table(result: RunResult) -> Table:
    """Prefetch / speculation outcome counts for one finished run."""
    table = Table(
        "technique effectiveness",
        ["cpu", "pf requested", "pf issued", "pf discarded", "pf late",
         "pf hits", "pf useless", "spec inserted", "spec confirmed",
         "spec reissued", "spec rolled back"],
    )
    for c in summarize(result).cpus:
        table.add_row(f"cpu{c.cpu}", c.pf_requested, c.pf_issued,
                      c.pf_discarded, c.pf_late, c.pf_hits, c.pf_useless,
                      c.slb_inserted, c.slb_confirmed, c.slb_reissues,
                      c.slb_rollbacks)
    table.add_note("requested = issued + discarded; late = demand access "
                   "merged onto the in-flight prefetch; useless = line "
                   "lost before any demand access")
    return table
