"""Related-work baselines (paper, Section 6).

Each scheme is modelled at the same abstraction level as the
analytical timing model so they can be compared head-to-head on the
same segments:

* **conventional** — the delay-based implementation: each access waits
  for every delay-arc predecessor to perform (this is simply the
  analytical model with both techniques off);
* **binding prefetch** (Lee; Gornish/Granston/Veidenbaum) — a prefetch
  whose value is bound at prefetch time.  Issuing it early would
  violate the model, so "a binding prefetch can not be issued any
  earlier than the actual access is allowed to be issued" — it
  degenerates to the conventional schedule for consistency-delayed
  accesses;
* **Adve–Hill SC** — writes stall only until *ownership* is acquired
  rather than until the write completes; reads are unaffected.  The
  paper expects limited gains because ownership latency is only
  slightly below full write latency;
* **Stenström NST** — access order is guaranteed at the memory via
  per-processor sequence numbers, allowing full pipelining of all
  accesses — but caches are not allowed, so every access pays the full
  memory latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..consistency.models import SC, ConsistencyModel
from ..core.timing import (
    AccessSpec,
    AnalyticalTimingModel,
    TimingConfig,
)
from ..sim.errors import ConfigurationError


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    model_name: str
    total_cycles: int
    note: str = ""


def conventional(segment: Sequence[AccessSpec], model: ConsistencyModel,
                 config: Optional[TimingConfig] = None) -> SchemeResult:
    """The delay-based implementation every scheme is measured against."""
    res = AnalyticalTimingModel(config).schedule(segment, model)
    return SchemeResult("conventional", model.name, res.total_cycles)


def binding_prefetch(segment: Sequence[AccessSpec], model: ConsistencyModel,
                     config: Optional[TimingConfig] = None) -> SchemeResult:
    """Binding prefetch cannot start before the access itself may issue.

    For accesses delayed by consistency constraints that is exactly the
    conventional issue time, so the schedule equals the conventional
    one — the quantitative form of Section 6's argument.
    """
    res = AnalyticalTimingModel(config).schedule(segment, model)
    return SchemeResult(
        "binding-prefetch", model.name, res.total_cycles,
        note="binding prefetch cannot be issued earlier than the access itself",
    )


def adve_hill_sc(segment: Sequence[AccessSpec],
                 config: Optional[TimingConfig] = None,
                 ownership_fraction: float = 0.8) -> SchemeResult:
    """Adve & Hill's efficient SC implementation.

    A write's *successors* may proceed once ownership is obtained
    (``ownership_fraction`` of the miss latency); the write itself still
    takes the full latency to complete globally.  Reads see no benefit.
    """
    if not 0.0 < ownership_fraction <= 1.0:
        raise ConfigurationError("ownership_fraction must be in (0, 1]")
    cfg = config or TimingConfig()
    ownership = max(1, int(round(cfg.miss_latency * ownership_fraction)))

    # Schedule by hand with SC's total order: each access issues one
    # cycle after its predecessor "unblocks" (ownership for writes,
    # completion for reads), plus port and dependence constraints.
    label_to_idx = {s.label: i for i, s in enumerate(segment)}
    issue: List[int] = []
    complete: List[int] = []
    unblock: List[int] = []  # when the *next* access may issue
    port_free = 1
    for i, spec in enumerate(segment):
        earliest = port_free
        if i > 0:
            earliest = max(earliest, unblock[i - 1] + 1)
        for dep in spec.deps:
            earliest = max(earliest, complete[label_to_idx[dep]] + 1)
        issue.append(earliest)
        port_free = earliest + 1
        lat = cfg.hit_latency if spec.hit else cfg.miss_latency
        complete.append(earliest + lat - 1)
        if spec.klass.is_store and not spec.hit:
            unblock.append(earliest + ownership - 1)
        else:
            unblock.append(complete[-1])
    return SchemeResult(
        "adve-hill-sc", SC.name, max(complete),
        note=f"writes unblock successors after ownership "
             f"({ownership} of {cfg.miss_latency} cycles)",
    )


def stenstrom_nst(segment: Sequence[AccessSpec],
                  config: Optional[TimingConfig] = None) -> SchemeResult:
    """Stenström's next-sequence-number-table ordering at the memory.

    All accesses pipeline freely (order is enforced at the memory), but
    caching is impossible: every access, including the ones the paper's
    examples count as hits, pays the full memory latency.
    """
    cfg = config or TimingConfig()
    label_to_idx = {s.label: i for i, s in enumerate(segment)}
    complete: List[int] = []
    port_free = 1
    for spec in segment:
        earliest = port_free
        for dep in spec.deps:
            earliest = max(earliest, complete[label_to_idx[dep]] + 1)
        port_free = earliest + 1
        complete.append(earliest + cfg.miss_latency - 1)
    return SchemeResult(
        "stenstrom-nst", "SC", max(complete),
        note="fully pipelined, but no caches: every access is a miss",
    )


def our_techniques(segment: Sequence[AccessSpec], model: ConsistencyModel,
                   config: Optional[TimingConfig] = None) -> SchemeResult:
    """The paper's combination: exclusive prefetch + speculative loads."""
    res = AnalyticalTimingModel(config).schedule(
        segment, model, prefetch=True, speculation=True)
    return SchemeResult("prefetch+speculation", model.name, res.total_cycles)


def compare_schemes(segment: Sequence[AccessSpec],
                    config: Optional[TimingConfig] = None) -> List[SchemeResult]:
    """Section 6's comparison on one segment (SC-based schemes)."""
    return [
        conventional(segment, SC, config),
        binding_prefetch(segment, SC, config),
        adve_hill_sc(segment, config),
        stenstrom_nst(segment, config),
        our_techniques(segment, SC, config),
    ]
