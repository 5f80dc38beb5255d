"""Host-side self-profiler for the simulation kernel.

Everything else in :mod:`repro.obs` measures the *guest* — the simulated
machine.  This module measures the *host*: how much wall-clock time the
simulator itself spends per registered :class:`~repro.sim.kernel.Component`
class per tick, how deep the event queue runs, and how many simulated
cycles / retired instructions per wall-second the stack sustains.

Design constraints:

* **near-zero overhead when off** — the kernel's ``step`` is one loop
  for both; without a profiler it pays a few ``is not None`` tests per
  cycle and never reads the clock;
* **no effect on simulation results** — the profiler only *reads* the
  monotonic clock; it never feeds wall time back into any simulated
  decision, so cycle counts, statistics, and traces are bit-identical
  with profiling on or off (``host/*`` counters excepted);
* **exported through the stats registry** — :meth:`HostProfiler.export`
  writes integer gauges under ``host/profile/...``, so ``--stats-json``
  and :func:`~repro.sim.stats.format_stats_table` pick them up for free.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional

from .stats import StatsRegistry

#: prefix of every counter the profiler writes into a stats registry
HOST_PREFIX = "host/profile/"


def _retired_instructions(stats: StatsRegistry) -> int:
    """Total retired instructions across every CPU counter."""
    return sum(value for name, value in stats.counters().items()
               if name.endswith("/instructions_retired"))


@dataclass
class HostHeartbeat:
    """One live progress sample, emitted every ``heartbeat_cycles``."""

    cycle: int                      # current simulated cycle
    wall_seconds: float             # wall time since profiling started
    cycles_per_second: float        # instantaneous, since last heartbeat
    instructions_per_second: float  # instantaneous, since last heartbeat
    event_queue_depth: int          # pending events right now

    def describe(self) -> str:
        kips = self.instructions_per_second / 1e3
        kcps = self.cycles_per_second / 1e3
        return (f"cycle {self.cycle}: {kcps:.0f} kcycles/s, "
                f"{kips:.0f} KIPS, queue={self.event_queue_depth}, "
                f"{self.wall_seconds:.1f}s")


class HostProfiler:
    """Accumulates per-component wall time while the kernel steps.

    The kernel's step writes the raw nanosecond buckets
    directly (they are plain attributes — no per-tick method calls);
    this class owns aggregation, heartbeats, and export.
    """

    def __init__(self,
                 heartbeat: Optional[Callable[[HostHeartbeat], None]] = None,
                 heartbeat_cycles: int = 50_000) -> None:
        if heartbeat_cycles < 1:
            raise ValueError(
                f"heartbeat_cycles must be >= 1, got {heartbeat_cycles}")
        self.heartbeat = heartbeat
        self.heartbeat_cycles = heartbeat_cycles
        self.reset()

    def reset(self) -> None:
        """Start counting from zero (a re-armed machine's next run)."""
        #: wall nanoseconds per Component subclass name, tick phase only
        self.component_ns: Dict[str, int] = {}
        #: ticks actually made per Component subclass name — with
        #: per-component sleep, fewer than instances x ``ticks``
        self.component_ticks: Dict[str, int] = {}
        #: registered instances per Component subclass name
        self.registered: Dict[str, int] = {}
        self.events_ns = 0      # event-queue run_due phase
        self.wall_ns = 0        # total time inside profiled steps
        self.ticks = 0          # cycles stepped while profiling
        self.ff_spans = 0       # fast-forward jumps taken
        self.ff_cycles = 0      # cycles elided by fast-forward
        self.ff_ns = 0          # wall time inside wake/sleep analysis
        self.queue_depth_sum = 0
        self.queue_depth_max = 0
        self._start_ns = time.perf_counter_ns()
        self._hb_last_ns = self._start_ns
        self._hb_due = self.heartbeat_cycles  # simulated cycle of the next beat
        self._hb_last_cycle = 0
        self._hb_last_retired = 0

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        return (self.wall_ns + self.ff_ns) / 1e9

    @property
    def sim_cycles(self) -> int:
        """Simulated cycles covered: stepped ticks plus elided cycles."""
        return self.ticks + self.ff_cycles

    @property
    def tick_ns_total(self) -> int:
        """Wall nanoseconds spent inside component ticks (all classes)."""
        return sum(self.component_ns.values())

    def shares(self) -> Dict[str, float]:
        """Fraction of component-tick wall time per component class.

        By construction the values sum to 1.0 (within float rounding)
        whenever any tick time was measured at all.
        """
        total = self.tick_ns_total
        if total <= 0:
            return {name: 0.0 for name in self.component_ns}
        return {name: ns / total
                for name, ns in sorted(self.component_ns.items())}

    def cycles_per_second(self) -> float:
        total_ns = self.wall_ns + self.ff_ns
        if total_ns <= 0:
            return 0.0
        return self.sim_cycles / (total_ns / 1e9)

    def mean_queue_depth(self) -> float:
        return self.queue_depth_sum / self.ticks if self.ticks else 0.0

    # ------------------------------------------------------------------
    # Heartbeats (live progress for long runs)
    # ------------------------------------------------------------------
    def maybe_heartbeat(self, cycle: int, stats: StatsRegistry,
                        queue_depth: int) -> None:
        """Emit a heartbeat if one is due; called by the profiled step.

        Due means the simulated cycle reached the next multiple of
        ``heartbeat_cycles`` — one beat per step, also when that step
        followed a fast-forward jump over several multiples."""
        if self.heartbeat is None or cycle < self._hb_due:
            return
        self._hb_due = (cycle // self.heartbeat_cycles + 1) * self.heartbeat_cycles
        now = time.perf_counter_ns()
        dt = (now - self._hb_last_ns) / 1e9
        retired = _retired_instructions(stats)
        d_cycles = cycle - self._hb_last_cycle
        d_retired = retired - self._hb_last_retired
        cps = d_cycles / dt if dt > 1e-9 else 0.0
        ips = d_retired / dt if dt > 1e-9 else 0.0
        self._hb_last_ns = now
        self._hb_last_cycle = cycle
        self._hb_last_retired = retired
        self.heartbeat(HostHeartbeat(
            cycle=cycle,
            wall_seconds=(now - self._start_ns) / 1e9,
            cycles_per_second=cps,
            instructions_per_second=ips,
            event_queue_depth=queue_depth,
        ))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, stats: StatsRegistry) -> None:
        """Write the profile as integer gauges under ``host/profile/``.

        Idempotent: gauges are *set*, not incremented, so calling after
        every ``run()`` of a multi-run simulation never double-counts.
        """
        def put(name: str, value: int) -> None:
            stats.counter(HOST_PREFIX + name).value = int(value)

        put("cycles", self.sim_cycles)
        put("ticks", self.ticks)
        put("wall_ns", self.wall_ns + self.ff_ns)
        put("events_ns", self.events_ns)
        put("fastforward/spans", self.ff_spans)
        put("fastforward/cycles", self.ff_cycles)
        put("fastforward/ns", self.ff_ns)
        for name, ns in sorted(self.component_ns.items()):
            put(f"tick_ns/{name}", ns)
        for name, count in sorted(self.component_ticks.items()):
            put(f"tick_count/{name}", count)
        put("queue_depth/max", self.queue_depth_max)
        put("queue_depth/milli_mean", round(self.mean_queue_depth() * 1000))
        put("cycles_per_sec", round(self.cycles_per_second()))
        retired = _retired_instructions(stats)
        wall_s = self.wall_seconds
        ips = retired / wall_s if wall_s > 1e-9 else 0.0
        put("instructions_per_sec", round(ips))

    def summary(self, stats: Optional[StatsRegistry] = None) -> Dict[str, object]:
        """A JSON-friendly digest (rates, phases, per-class tick counts)."""
        out: Dict[str, object] = {
            "cycles": self.sim_cycles,
            "ticks": self.ticks,
            "fastforward_spans": self.ff_spans,
            "fastforward_cycles": self.ff_cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "cycles_per_second": round(self.cycles_per_second(), 1),
            "event_queue_depth_max": self.queue_depth_max,
            "event_queue_depth_mean": round(self.mean_queue_depth(), 3),
            "events_ns": self.events_ns,
        }
        if stats is not None:
            retired = _retired_instructions(stats)
            wall_s = self.wall_seconds
            out["instructions_retired"] = retired
            out["kips"] = round(retired / wall_s / 1e3, 3) if wall_s > 1e-9 else 0.0
        out["component_ticks"] = {
            name: self.tick_profile(name)
            for name in sorted(self.component_ticks)
        }
        return out

    def note_registered(self, components: Iterable[object]) -> None:
        """The kernel's registry, as ``run()`` finds it."""
        self.registered = dict(Counter(type(c).__name__ for c in components))

    def tick_profile(self, name: str) -> Dict[str, float]:
        """One component class: ticks made, mean wall microseconds per
        tick, and the share of the kernel's steps its instances slept
        through (``1 - ticks / (instances x kernel steps)``)."""
        ticks = self.component_ticks.get(name, 0)
        every = self.registered.get(name, 0) * self.ticks
        ns = self.component_ns.get(name, 0)
        return {
            "ticks": ticks,
            "mean_us": round(ns / ticks / 1e3, 3) if ticks else 0.0,
            "slept_share": round(1 - ticks / every, 4) if every else 0.0,
        }

    def render(self, stats: Optional[StatsRegistry] = None) -> str:
        """Human-readable profile report."""
        lines = ["host profile", "------------"]
        summary = self.summary(stats)
        per_class: Mapping[str, Mapping[str, float]] = summary.pop("component_ticks")  # type: ignore[assignment]
        for key, value in summary.items():
            lines.append(f"{key:<28} {value}")
        ranked = sorted(per_class, key=lambda name: self.component_ns.get(name, 0),
                        reverse=True)
        for name in ranked:
            row = per_class[name]
            ns = self.component_ns.get(name, 0)
            lines.append(
                f"  tick {name:<22} {row['ticks']} ticks, "
                f"{row['mean_us']:.1f} us/tick, "
                f"slept {row['slept_share'] * 100:.1f}%  ({ns / 1e6:.1f} ms)")
        return "\n".join(lines)
