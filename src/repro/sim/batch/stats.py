"""Per-lane stats parity with the scalar kernel.

A scalar ``run_workload`` eagerly creates every CPU-side counter at
construction time (so zero-valued counters still appear in snapshots),
while fabric-side counters come from the coherence layer
(``FastFabric.flush_stats``).  This module reproduces the eager
CPU-side creation and folds the engine's vector accumulators and
latency sample lists into a registry *lazily*: fuzz/sweep consumers
compare outcomes only and never pay for registry construction.
Deferring histogram fills is exact because
:class:`~repro.sim.stats.Histogram` is a multiset of bucketed samples —
insertion order never affects any snapshot field.  ``squash_reason/*``
and ``slb/*`` counters are lazily created in the scalar kernel and can
never fire inside the batch envelope (no branches, no speculation), so
they are correctly absent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...obs.accounting import CAUSES
from ...sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BatchEngine

#: eager per-CPU counters, in scalar creation order (order is cosmetic —
#: snapshots sort by name — but kept for debuggability)
_PROC_COUNTERS = (
    "instructions_retired",
    "instructions_decoded",
    "instructions_squashed",
    "squash_events",
    "branch_mispredicts",
)
_LSU_COUNTERS = (
    "loads",
    "stores",
    "rmws",
    "store_forwards",
    "rs_consistency_stalls",
    "sb_consistency_stalls",
)


def create_cpu_stats(stats: StatsRegistry, ncpu: int) -> None:
    """Pre-create the eager CPU-side counters/histograms for a lane."""
    for k in range(ncpu):
        for name in _PROC_COUNTERS:
            stats.counter(f"cpu{k}/{name}")
        stats.histogram(f"cpu{k}/squash_depth")
        for cause in CAUSES:
            stats.counter(f"cpu{k}/cycles/{cause.value}")
        for name in _LSU_COUNTERS:
            stats.counter(f"cpu{k}/lsu/{name}")
        stats.histogram(f"cpu{k}/lsu/load_latency")
        stats.histogram(f"cpu{k}/lsu/store_latency")


def materialize_lane_stats(stats: StatsRegistry, engine: "BatchEngine",
                           lane: int) -> None:
    """Fold one lane's accumulators into ``stats`` (CPU side only; the
    fabric side comes from the lane fabric's own counters)."""
    ncpu = engine.ncpu
    create_cpu_stats(stats, ncpu)
    for k in range(ncpu):
        ctx = lane * ncpu + k
        stats.counter(f"cpu{k}/instructions_retired").inc(
            int(engine.retired_acc[ctx]))
        stats.counter(f"cpu{k}/instructions_decoded").inc(
            int(engine.decoded_acc[ctx]))
        for ci, cause in enumerate(CAUSES):
            amount = int(engine.cause_acc[ctx, ci])
            if amount:
                stats.counter(f"cpu{k}/cycles/{cause.value}").inc(amount)
        stats.counter(f"cpu{k}/lsu/loads").inc(int(engine.loads_acc[ctx]))
        stats.counter(f"cpu{k}/lsu/stores").inc(int(engine.stores_acc[ctx]))
        stats.counter(f"cpu{k}/lsu/rmws").inc(int(engine.rmws_acc[ctx]))
        stats.counter(f"cpu{k}/lsu/store_forwards").inc(
            int(engine.forwards_acc[ctx]))
        stats.counter(f"cpu{k}/lsu/rs_consistency_stalls").inc(
            int(engine.rs_stalls_acc[ctx]))
        stats.counter(f"cpu{k}/lsu/sb_consistency_stalls").inc(
            int(engine.sb_stalls_acc[ctx]))
        load_hist = stats.histogram(f"cpu{k}/lsu/load_latency")
        for sample in engine.load_lat[ctx]:
            load_hist.add(sample)
        store_hist = stats.histogram(f"cpu{k}/lsu/store_latency")
        for sample in engine.store_lat[ctx]:
            store_hist.add(sample)
