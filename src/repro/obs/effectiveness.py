"""Technique-effectiveness metrics (how well Sections 3/4 worked).

The paper argues prefetching and speculative loads recover most of the
stall time the consistency model imposes.  Whether they actually do on
a given run depends on *how often the techniques fire and how often
they pay off* — which this module extracts from the shared
:class:`~repro.sim.stats.StatsRegistry` into two small summary records:

* :class:`PrefetchEffectiveness` — prefetches issued vs discarded, and
  of those issued: how many were *late* (a demand access arrived while
  the prefetch was still in flight and merged onto its MSHR), how many
  were *useful hits* (the demand access hit the completed prefetched
  line), and how many were *useless* (the line was invalidated or
  replaced before any demand access touched it — the binding-prefetch
  failure mode of Section 3.1, which non-binding prefetch turns from a
  correctness problem into a mere waste of bandwidth);
* :class:`SpeculationEffectiveness` — speculative loads inserted into
  the speculative-load buffer vs confirmed (retired) vs corrected,
  with the correction split by remedy (reissue vs full rollback) and
  by the snoop kind that triggered it (invalidation, update,
  replacement) — the paper's Section 4.2 correction taxonomy.

Everything here reads plain counters, so the records work equally on a
live run's registry or on one aggregated across sweep workers with
:meth:`StatsRegistry.merge_from`.

Like :mod:`repro.obs.accounting`, this module imports nothing above
``repro.sim`` so it stays free of import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..sim.stats import StatsRegistry

#: Snoop kinds that can trigger a speculative-load correction
#: (mirrors :class:`repro.memory.types.SnoopKind` values).
SNOOP_KINDS = ("inval", "update", "replacement")


@dataclass
class PrefetchEffectiveness:
    """One CPU's prefetch outcome counts (cache + prefetcher counters)."""

    cpu: int
    requested: int          # lookahead candidates handed to the cache
    exclusive: int          # of those, read-exclusive (for stores/RMWs)
    issued: int             # actually sent to memory (missed, MSHR free)
    discarded: int          # dropped: line present, MSHR busy, uncached
    late: int               # demand access merged onto the in-flight miss
    useful_hits: int        # demand access hit the completed line
    useless_invalidated: int  # line lost before any demand access

    @classmethod
    def from_stats(cls, stats: StatsRegistry, cpu: int) -> "PrefetchEffectiveness":
        def c(name: str) -> int:
            return stats.counter(name).value

        return cls(
            cpu=cpu,
            requested=c(f"cpu{cpu}/prefetcher/issued"),
            exclusive=c(f"cpu{cpu}/prefetcher/exclusive"),
            issued=c(f"cache{cpu}/prefetches_issued"),
            discarded=c(f"cache{cpu}/prefetches_discarded"),
            late=c(f"cache{cpu}/prefetches_late"),
            useful_hits=c(f"cache{cpu}/prefetches_useful_hit"),
            useless_invalidated=c(f"cache{cpu}/prefetches_useless_invalidated"),
        )


@dataclass
class SpeculationEffectiveness:
    """One CPU's speculative-load buffer outcome counts."""

    cpu: int
    inserted: int            # loads that entered the SLB speculatively
    confirmed: int           # retired with the speculative value intact
    reissues: int            # corrected by re-access (value not yet used)
    rollbacks: int           # corrected by squash (value already bound)
    reissue_causes: Dict[str, int]
    rollback_causes: Dict[str, int]
    squash_reasons: Dict[str, int]  # processor-level squashes by reason

    @property
    def corrections(self) -> int:
        return self.reissues + self.rollbacks

    @classmethod
    def from_stats(cls, stats: StatsRegistry, cpu: int) -> "SpeculationEffectiveness":
        def c(name: str) -> int:
            return stats.counter(name).value

        def causes(bucket: str) -> Dict[str, int]:
            return {kind: c(f"cpu{cpu}/slb/{bucket}_cause/{kind}")
                    for kind in SNOOP_KINDS}

        prefix = f"cpu{cpu}/squash_reason/"
        reasons = {name[len(prefix):]: value
                   for name, value in stats.counters(prefix).items()}
        return cls(
            cpu=cpu,
            inserted=c(f"cpu{cpu}/slb/inserted"),
            confirmed=c(f"cpu{cpu}/slb/retired"),
            reissues=c(f"cpu{cpu}/slb/reissues"),
            rollbacks=c(f"cpu{cpu}/slb/squashes"),
            reissue_causes=causes("reissue"),
            rollback_causes=causes("rollback"),
            squash_reasons=reasons,
        )


def prefetch_effectiveness(stats: StatsRegistry,
                           num_cpus: int) -> List[PrefetchEffectiveness]:
    return [PrefetchEffectiveness.from_stats(stats, cpu)
            for cpu in range(num_cpus)]


def speculation_effectiveness(stats: StatsRegistry,
                              num_cpus: int) -> List[SpeculationEffectiveness]:
    return [SpeculationEffectiveness.from_stats(stats, cpu)
            for cpu in range(num_cpus)]

