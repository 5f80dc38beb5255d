"""Hybrid cycle/event simulation kernel.

The kernel advances a global clock one cycle at a time.  Each cycle:

1. every event due at this cycle fires (message deliveries, memory
   response arrivals), then
2. every registered :class:`Component` is ticked in registration order.

Per-component sleep: components may additionally implement a
wake/sleep protocol (:meth:`Component.next_wake` /
:meth:`Component.skip_cycles`).  Inside ``run()`` the kernel asks each
component after its tick when it next needs one, and until that cycle —
or until :meth:`Simulator.wake` says something was delivered to it —
leaves it out of the tick loop, whatever the other components do: a
component in which nothing moved stays frozen until its own clock or a
delivery *to it* can move it.  A component that knows a delivery is on
its way asks, with ``wake(component, by=cycle)``, to tick no later
than the cycle it chooses.  The ticks it slept through are owed, not
lost: a component whose idle ticks have deterministic side effects
(per-cycle stall counters) replays them via ``skip_cycles`` when it next
ticks, or when ``run()`` returns or raises, so results stay
bit-identical to the naive path.  When every component sleeps and the
next event is also in the future, the clock jumps straight to the
earliest of those.  The per-cycle deadlock scan collapses into the same
check: a frozen span cannot un-deadlock itself.

Determinism: no wall-clock time, no unordered dict/set iteration in any
decision path, and the event queue breaks ties by scheduling order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Union

from .errors import DeadlockError
from .events import EventCallback, EventQueue
from .profiler import HostProfiler
from .stats import StatsRegistry

#: Sentinel wake cycle meaning "no tick needed until something is
#: delivered to me" (see :meth:`Simulator.wake`).
WAKE_NEVER = 1 << 62


class Component:
    """Anything with per-cycle behaviour.

    Subclasses override :meth:`tick`.  A component becomes active by
    being registered with a :class:`Simulator`.
    """

    name: str = "component"

    def tick(self, cycle: int) -> None:  # pragma: no cover - interface
        """Advance one cycle of this component's local state."""

    def is_quiescent(self) -> bool:
        """True when the component has no pending work.

        Used by the kernel's deadlock detector: if *every* component is
        quiescent and the event queue is empty but the simulation has not
        reached its termination condition, we are deadlocked.
        """
        return True

    def next_wake(self, cycle: int) -> int:
        """Earliest future cycle at which this component needs a tick.

        Called at cycle ``cycle`` *after* the component has ticked.  A
        return value of ``cycle + 1`` (the default) means "tick me every
        cycle"; :data:`WAKE_NEVER` means "only something delivered to
        me can change my state".  The contract: for every cycle ``c``
        with ``cycle < c < next_wake``, and for as long as nobody calls
        :meth:`Simulator.wake` on this component, ``tick(c)`` would
        leave all simulation state unchanged *except* for the
        deterministic per-cycle effects the component replays in
        :meth:`skip_cycles` — whatever other components and events not
        addressed to it do meanwhile.  Returning too-early wakes is
        always safe; too-late wakes break bit-identity.
        """
        return cycle + 1

    def describe_wait(self) -> str:
        """What a busy component waits on, for a deadlock's diagnostic
        ("" when its name says enough)."""
        return ""

    def skip_cycles(self, skipped: int) -> None:
        """Bulk-apply the per-cycle effects of ``skipped`` elided ticks.

        Invoked by the kernel just before the component's first tick
        after a sleep, and at the end of ``run()`` for one still asleep
        — possibly after the delivery that woke it, so what to replay
        is what the last tick kept, not something to derive from the
        current state.  The default is a no-op; components whose idle
        ticks increment stall/idle counters apply ``skipped``
        increments here.
        """


class Simulator:
    """Owns the clock, the event queue, the components, and statistics."""

    def __init__(self, stats: Optional[StatsRegistry] = None,
                 profile: Union[bool, HostProfiler] = False,
                 fast_forward: bool = True) -> None:
        self.events = EventQueue()
        self.stats = stats if stats is not None else StatsRegistry()
        self.fast_forward = fast_forward
        self._components: List[Component] = []
        self._watched: List[Component] = []
        self.profiler: Optional[HostProfiler] = None
        self.reset()
        if profile:
            self.enable_profiling(
                profile if isinstance(profile, HostProfiler) else None)

    def reset(self) -> None:
        """Back to cycle 0 with nothing scheduled, for a new run of the
        same components; a profiler starts counting from zero.  The
        statistics registry is its owner's to reset."""
        self.cycle = 0
        self.events.reset()
        #: inside a sleeping ``run()``: the cycle each component's next
        #: tick is due, and the last cycle whose tick (real or replayed)
        #: is in its books; ``None`` otherwise — everybody ticks
        self._wakes: Optional[Dict[Component, int]] = None
        self._synced: Dict[Component, int] = {}
        #: the last cycle the current ``run()`` may step: no sleep need
        #: last beyond it
        self.horizon = WAKE_NEVER
        if self.profiler is not None:
            self.profiler.reset()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, component: Component) -> None:
        """Register a component; ticked each cycle in registration order."""
        self._components.append(component)

    def watch(self, component: Component) -> None:
        """Name ``component`` in a deadlock's diagnostic while it is
        busy, without ticking it: for the components that only react to
        events (caches, the directory, the interconnect), whose pending
        work is what a wedged run waits on."""
        self._watched.append(component)

    def enable_profiling(
        self, profiler: Optional[HostProfiler] = None,
    ) -> HostProfiler:
        """Attach a host profiler: ``step`` then also times each phase.

        The profiler only reads the monotonic clock — simulated results
        (cycles, stats, traces) are identical with profiling on or off;
        the run merely gains ``host/profile/*`` gauges in the stats
        registry.  Idempotent; returns the active profiler.
        """
        if self.profiler is None:
            self.profiler = profiler if profiler is not None else HostProfiler()
        return self.profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: EventCallback) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``delay`` of 0 means "later this same cycle" when called from an
        event, or "at the start of the next processed cycle" when called
        from a component tick.
        """
        self.events.schedule(self.cycle + delay, callback)

    def schedule_at(self, cycle: int, callback: EventCallback) -> None:
        if cycle < self.cycle:
            raise ValueError(f"cannot schedule in the past ({cycle} < {self.cycle})")
        self.events.schedule(cycle, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def wake(self, component: Optional[Component],
             by: Optional[int] = None) -> None:
        """Mark ``component`` due: something was just delivered to it.

        Whoever changes a component's state from outside its own tick
        calls this.  Woken in the event phase, or by the tick of a
        component registered before it, the component ticks this very
        cycle; woken by a later one it ticks next cycle and replays this
        one — in both cases exactly when the naive path, which runs
        events before ticks and ticks in registration order, would first
        show it the change.  A no-op when it is awake anyway, or not
        one of the registered components.

        With ``by``, a future cycle, the component asks instead to tick
        no later than ``by``: something will be delivered to it then,
        and it wants its own books settled first.
        """
        wakes = self._wakes
        if wakes is not None:
            if by is None:
                by = self.cycle
            if wakes.get(component, 0) > by:
                wakes[component] = by

    def step(self) -> None:
        """Advance the simulation by exactly one cycle.

        With a profiler attached the same loop also attributes wall
        time per phase and per component class.
        """
        prof = self.profiler
        t0 = prev = time.perf_counter_ns() if prof is not None else 0
        self.cycle = cycle = self.cycle + 1
        wakes = self._wakes
        synced = self._synced
        passed = 0
        try:
            self.events.run_due(cycle)
            if prof is not None:
                prev = time.perf_counter_ns()
                prof.events_ns += prev - t0
            for passed, component in enumerate(self._components, 1):
                if wakes is None:
                    component.tick(cycle)
                elif wakes[component] > cycle:
                    continue
                else:
                    if synced[component] < cycle - 1:
                        component.skip_cycles(cycle - 1 - synced[component])
                    synced[component] = cycle
                    component.tick(cycle)
                    wakes[component] = component.next_wake(cycle)
                if prof is not None:
                    now = time.perf_counter_ns()
                    key = type(component).__name__
                    prof.component_ns[key] = (
                        prof.component_ns.get(key, 0) + now - prev)
                    prof.component_ticks[key] = (
                        prof.component_ticks.get(key, 0) + 1)
                    prev = now
        except BaseException:
            if wakes is not None:
                self._forgive(passed)
            raise
        if prof is not None:
            prof.wall_ns += time.perf_counter_ns() - t0
            prof.ticks += 1
            depth = len(self.events)
            prof.queue_depth_sum += depth
            if depth > prof.queue_depth_max:
                prof.queue_depth_max = depth
            prof.maybe_heartbeat(cycle, self.stats, depth)

    def _forgive(self, passed: int) -> None:
        """A step raised after ``passed`` components had their turn.

        The naive path never ticked the rest at this cycle, so the
        replay does not owe it to them either.
        """
        for later in self._components[passed:]:
            self._synced[later] += 1

    def _replay_sleepers(self) -> None:
        """Bring every sleeper's books up to the clock (lazy replay's
        flush), and stop sleeping."""
        for component, synced in self._synced.items():
            if synced < self.cycle:
                component.skip_cycles(self.cycle - synced)
        self._wakes = None

    def _maybe_fast_forward(self, next_event: Optional[int], max_cycles: int) -> int:
        """Everyone asleep: jump the clock; return the cycles elided.

        Only jumps when the next event *and* every recorded wake lie
        beyond the next cycle.  The jump lands one cycle short of the
        earliest wake/event so the following ``step()`` processes that
        cycle normally; the target is clamped to ``max_cycles`` so a
        runaway-cycle :class:`DeadlockError` raises at the identical
        cycle it would on the naive path.  Nobody is replayed here: the
        span is owed like any other slept cycle.
        """
        assert self._wakes is not None
        floor = self.cycle + 1
        target = next_event if next_event is not None else WAKE_NEVER
        for wake in self._wakes.values():
            if wake <= floor:
                return 0
            if wake < target:
                target = wake
        if target > max_cycles:
            target = max_cycles
        skipped = target - floor
        if skipped <= 0:
            return 0
        self.cycle = target - 1
        return skipped

    def run(
        self,
        until: Callable[[], bool],
        max_cycles: int = 1_000_000,
        deadlock_check: bool = True,
    ) -> int:
        """Step until ``until()`` is true; return the final cycle.

        Raises :class:`DeadlockError` if ``max_cycles`` elapse first, or
        earlier if every component is quiescent with an empty event queue
        while ``until()`` remains false.

        ``until`` must be a function of simulation *state* (finished
        flags, queue emptiness), not of ``self.cycle`` or of per-cycle
        stall counters: with fast-forward enabled intermediate idle
        cycles are never observed, and a sleeper's counters lag the
        clock until it next ticks or ``run()`` ends.
        """
        fast = self.fast_forward
        prof = self.profiler
        self.horizon = max_cycles
        if prof is not None:
            prof.note_registered(self._components)
        if fast:
            cycle = self.cycle
            self._wakes = {c: c.next_wake(cycle) for c in self._components}
            self._synced = dict.fromkeys(self._components, cycle)
        try:
            while not until():
                if self.cycle >= max_cycles:
                    raise DeadlockError(self.cycle, self._diagnose())
                next_event = self.events.next_cycle()
                if (
                    deadlock_check
                    and next_event is None
                    and all(c.is_quiescent() for c in self._components)
                ):
                    raise DeadlockError(
                        self.cycle, "all components quiescent; " + self._diagnose())
                if fast and (next_event is None or next_event > self.cycle + 1):
                    if prof is not None:
                        t0 = time.perf_counter_ns()
                        skipped = self._maybe_fast_forward(next_event, max_cycles)
                        prof.ff_ns += time.perf_counter_ns() - t0
                        if skipped:
                            prof.ff_spans += 1
                            prof.ff_cycles += skipped
                    else:
                        self._maybe_fast_forward(next_event, max_cycles)
                self.step()
        finally:
            self.horizon = WAKE_NEVER
            if fast:
                self._replay_sleepers()
            # export even on DeadlockError — the profile is most useful
            # exactly when a run wedges
            if prof is not None:
                prof.export(self.stats)
        return self.cycle

    def _diagnose(self) -> str:
        busy = [c for c in self._components + self._watched
                if not c.is_quiescent()]
        if not busy:
            return "no pending work anywhere"
        waits = [wait for wait in (c.describe_wait() for c in busy) if wait]
        return "; ".join([f"non-quiescent components: {[c.name for c in busy]!r}",
                          *waits])
