"""Analytical timing model for straight-line access segments.

This is an executable version of the cycle arithmetic the paper uses in
Sections 3.3 and 4.1.  A *segment* is a list of :class:`AccessSpec`
(program-ordered shared-memory accesses with hit/miss classification and
value dependences).  The model schedules the segment under a consistency
model with the two techniques optionally enabled and reports per-access
issue/complete times plus the total.

Timing conventions (DESIGN.md, Section 6):

* an access issued at cycle ``t`` with latency ``L`` completes at
  ``t + L - 1``;
* a dependent access issues no earlier than ``completion + 1``;
* one access (demand or prefetch) begins cache service per cycle;
* demand accesses have port priority over prefetches; among ready
  demand accesses the scheduler picks the one heading the longest
  remaining dependence chain (ties: program order) — accesses the
  consistency model leaves unordered may issue out of program order.

Technique semantics:

* **prefetch** (Section 3): an access that would miss and is currently
  *delayed by a consistency arc* gets a non-binding prefetch as soon as
  its address is known and the port is free; the demand access later
  merges with it (completes at ``max(issue, prefetch_complete)``).
* **speculative loads** (Section 4): pure loads ignore consistency arcs
  at issue; they wait only for their address operands and the port.
  Stores (and the store half of RMWs) never speculate.

The model assumes speculation always succeeds (no invalidations), which
is exactly the assumption in the paper's examples ("we also assume no
other processes are writing to the locations used in the examples").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..consistency.access_class import AccessClass
from ..consistency.models import ConsistencyModel
from ..sim.errors import ConfigurationError, SimulationError

#: technique name -> (prefetch, speculation): the paper's four
#: configurations, in the column order every table uses
TECHNIQUES: Dict[str, Tuple[bool, bool]] = {
    "baseline": (False, False),
    "prefetch": (True, False),
    "speculation": (False, True),
    "prefetch+speculation": (True, True),
}


@dataclass(frozen=True)
class AccessSpec:
    """One access of a segment.

    ``deps`` are labels of earlier accesses whose *values* this access
    needs before it can issue (address or store-value dependences) —
    e.g. ``read E[D]`` depends on ``read D``.
    """

    label: str
    klass: AccessClass
    hit: bool = False
    deps: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TimingConfig:
    hit_latency: int = 1
    miss_latency: int = 100

    def __post_init__(self) -> None:
        if self.hit_latency < 1 or self.miss_latency < self.hit_latency:
            raise ConfigurationError("need miss_latency >= hit_latency >= 1")


@dataclass
class AccessTiming:
    label: str
    issue: int
    complete: int
    prefetch_issue: Optional[int] = None
    prefetch_complete: Optional[int] = None
    speculative: bool = False


@dataclass
class ScheduleResult:
    """Outcome of scheduling one segment."""

    model_name: str
    prefetch: bool
    speculation: bool
    timings: List[AccessTiming]
    total_cycles: int

    def timing(self, label: str) -> AccessTiming:
        for t in self.timings:
            if t.label == label:
                return t
        raise KeyError(f"no access labelled {label!r}")

    def describe(self) -> str:
        tech = []
        if self.prefetch:
            tech.append("prefetch")
        if self.speculation:
            tech.append("speculative loads")
        header = f"{self.model_name} ({' + '.join(tech) if tech else 'baseline'}): " \
                 f"{self.total_cycles} cycles"
        lines = [header]
        for t in self.timings:
            extra = ""
            if t.prefetch_issue is not None:
                extra = f"  [prefetch {t.prefetch_issue}->{t.prefetch_complete}]"
            spec = "  (speculative)" if t.speculative else ""
            lines.append(f"  {t.label:<12} issue {t.issue:>4}  complete {t.complete:>4}{extra}{spec}")
        return "\n".join(lines)


class AnalyticalTimingModel:
    """List scheduler implementing the conventions above."""

    def __init__(self, config: Optional[TimingConfig] = None) -> None:
        self.config = config or TimingConfig()

    # ------------------------------------------------------------------
    def schedule(
        self,
        segment: Sequence[AccessSpec],
        model: ConsistencyModel,
        prefetch: bool = False,
        speculation: bool = False,
    ) -> ScheduleResult:
        specs = list(segment)
        self._validate(specs)
        n = len(specs)
        label_to_idx = {s.label: i for i, s in enumerate(specs)}
        dep_idx: List[List[int]] = [
            [label_to_idx[d] for d in s.deps] for s in specs
        ]

        def speculates(i: int) -> bool:
            s = specs[i]
            return speculation and s.klass.is_load and not s.klass.is_store

        # consistency-arc predecessors (dropped for speculative loads)
        arc_preds: List[List[int]] = [[] for _ in range(n)]
        for b in range(n):
            if speculates(b):
                continue
            for a in range(b):
                if model.delay_arc(specs[a].klass, specs[b].klass):
                    arc_preds[b].append(a)

        # successor graph for critical-chain weights
        succs: List[List[int]] = [[] for _ in range(n)]
        for b in range(n):
            for a in dep_idx[b]:
                succs[a].append(b)
            for a in arc_preds[b]:
                succs[a].append(b)

        issue: List[Optional[int]] = [None] * n
        complete: List[Optional[int]] = [None] * n
        pf_issue: List[Optional[int]] = [None] * n
        pf_complete: List[Optional[int]] = [None] * n
        hit_lat, miss_lat = self.config.hit_latency, self.config.miss_latency

        def eff_latency(i: int, t: int) -> int:
            """Expected service time of access ``i`` if issued at ``t``."""
            if specs[i].hit:
                return hit_lat
            if pf_complete[i] is not None:
                return max(hit_lat, pf_complete[i] - t + 1)
            return miss_lat

        def chain_weights(t: int) -> List[int]:
            """Critical-chain weight of every unissued access at cycle
            ``t``.  Dependences and arcs only point forward in program
            order, so a reverse-order DP suffices (no recursion)."""
            w = [0] * n
            for i in range(n - 1, -1, -1):
                best_succ = 0
                for s in succs[i]:
                    if issue[s] is None and w[s] > best_succ:
                        best_succ = w[s]
                w[i] = eff_latency(i, t) + best_succ
            return w

        def deps_ready(i: int, t: int) -> bool:
            return all(complete[d] is not None and complete[d] < t for d in dep_idx[i])

        def arcs_ready(i: int, t: int) -> bool:
            return all(complete[a] is not None and complete[a] < t for a in arc_preds[i])

        def arc_blocked(i: int, t: int) -> bool:
            """Is the access currently delayed *by a consistency arc*?
            (The prefetcher's trigger condition, Section 3.2.)"""
            return deps_ready(i, t) and not arcs_ready(i, t)

        t = 0
        limit = (n + 1) * (miss_lat + 1) * 4 + 16
        while any(c is None for c in complete):
            t += 1
            if t > limit:
                raise SimulationError(
                    "analytical schedule did not converge (dependence deadlock?)"
                )
            # demand accesses first
            ready = [i for i in range(n)
                     if issue[i] is None and deps_ready(i, t) and arcs_ready(i, t)]
            if ready:
                weights = chain_weights(t)
                best = max(ready, key=lambda i: (weights[i], -i))
                issue[best] = t
                if specs[best].hit:
                    complete[best] = t + hit_lat - 1
                elif pf_complete[best] is not None:
                    complete[best] = max(t + hit_lat - 1, pf_complete[best])
                else:
                    complete[best] = t + miss_lat - 1
                continue
            # otherwise one prefetch may use the port
            if prefetch:
                pf_ready = [i for i in range(n)
                            if issue[i] is None and pf_issue[i] is None
                            and not specs[i].hit and not speculates(i)
                            and arc_blocked(i, t)]
                if pf_ready:
                    i = pf_ready[0]  # program order
                    pf_issue[i] = t
                    pf_complete[i] = t + miss_lat - 1

        timings = [
            AccessTiming(
                label=specs[i].label,
                issue=issue[i],
                complete=complete[i],
                prefetch_issue=pf_issue[i],
                prefetch_complete=pf_complete[i] if pf_issue[i] is not None else None,
                speculative=speculates(i),
            )
            for i in range(n)
        ]
        return ScheduleResult(
            model_name=model.name,
            prefetch=prefetch,
            speculation=speculation,
            timings=timings,
            total_cycles=max(c for c in complete if c is not None),
        )

    # ------------------------------------------------------------------
    def _validate(self, specs: List[AccessSpec]) -> None:
        labels = [s.label for s in specs]
        if len(labels) != len(set(labels)):
            raise ConfigurationError("segment labels must be unique")
        seen: set = set()
        for s in specs:
            for d in s.deps:
                if d not in seen:
                    raise ConfigurationError(
                        f"{s.label!r} depends on {d!r}, which is not an earlier access"
                    )
            seen.add(s.label)


def compare_configurations(
    segment: Sequence[AccessSpec],
    models: Sequence[ConsistencyModel],
    config: Optional[TimingConfig] = None,
) -> Dict[Tuple[str, str], int]:
    """Total cycles for every (model, technique) combination.

    Keys are ``(model_name, technique)`` with technique a key of
    :data:`TECHNIQUES`.
    """
    engine = AnalyticalTimingModel(config)
    out: Dict[Tuple[str, str], int] = {}
    for model in models:
        for tech, (pf, sp) in TECHNIQUES.items():
            res = engine.schedule(segment, model, prefetch=pf, speculation=sp)
            out[(model.name, tech)] = res.total_cycles
    return out
