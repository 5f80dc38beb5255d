"""Differential tests for the kernel's idle-cycle fast-forward path.

The hybrid cycle/event kernel must be a pure wall-clock optimisation:
jumping over idle spans may never change a simulated result.  These
tests run the naive step-every-cycle path against the fast path and
require bit-identical final cycle counts, full stats snapshots
(counters *and* histograms), and trace event streams — for the paper's
Examples 1 and 2 on the detailed simulator across all 4 consistency
models x 4 technique combos, plus a multiprocessor critical-section
workload.  They also pin the kernel-level mechanics: the jump lands
exactly on the next event/wake, ``skip_cycles`` sees the exact elided
count, ``max_cycles`` deadlocks fire at the identical cycle, and a
deadlocked profiled run still exports its ``host/profile/*`` gauges.
"""

import pytest

from repro.consistency import PC, RC, SC, WC
from repro.sim import Component, DeadlockError, Simulator, WAKE_NEVER
from repro.sim.profiler import HOST_PREFIX
from repro.sim.trace import TraceRecorder
from repro.system import run_workload
from repro.workloads import critical_section_workload
from repro.workloads.paper_examples import example1_program, example2_program

MODELS = (SC, PC, WC, RC)
TECHNIQUES = (
    ("baseline", False, False),
    ("prefetch", True, False),
    ("speculation", False, True),
    ("both", True, True),
)


def _run(programs, initial_memory, warm_lines, model, pf, spec, fast_forward):
    trace = TraceRecorder()
    result = run_workload(
        programs, model=model, prefetch=pf, speculation=spec,
        initial_memory=initial_memory, warm_lines=warm_lines,
        max_cycles=2_000_000, trace=trace, fast_forward=fast_forward)
    return (result.cycles,
            result.stats.snapshot(),
            [ev.describe() for ev in trace.events])


def _assert_identical(fast, naive):
    assert fast[0] == naive[0], "final cycle counts differ"
    assert fast[1] == naive[1], "stats snapshots differ"
    assert fast[2] == naive[2], "trace event streams differ"


class TestDifferentialPaperExamples:
    """Fast path == naive path, bit for bit (the tentpole guarantee)."""

    @pytest.mark.parametrize("example", ["example1", "example2"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("tech,pf,spec", TECHNIQUES,
                             ids=[t[0] for t in TECHNIQUES])
    def test_examples_bit_identical(self, example, model, tech, pf, spec):
        wl = (example1_program if example == "example1" else example2_program)()
        fast = _run([wl.program], wl.initial_memory, wl.warm_lines,
                    model, pf, spec, fast_forward=True)
        naive = _run([wl.program], wl.initial_memory, wl.warm_lines,
                     model, pf, spec, fast_forward=False)
        _assert_identical(fast, naive)


class TestDifferentialMultiprocessor:
    @pytest.mark.parametrize("model,pf,spec",
                             [(SC, False, False), (SC, True, True),
                              (WC, True, False), (RC, True, True)],
                             ids=["sc-base", "sc-both", "wc-pf", "rc-both"])
    def test_critical_section_bit_identical(self, model, pf, spec):
        wl = critical_section_workload(num_cpus=2, iterations=2,
                                       shared_counters=3, private=True)
        fast = _run(wl.programs, wl.initial_memory, (), model, pf, spec,
                    fast_forward=True)
        naive = _run(wl.programs, wl.initial_memory, (), model, pf, spec,
                     fast_forward=False)
        _assert_identical(fast, naive)


def _cpu_stats(machine, cpu):
    prefix = f"cpu{cpu}/"
    return {name: value for name, value in machine.sim.stats.snapshot().items()
            if name.startswith(prefix)}


def _changes(before, after):
    return {name: after[name] - before.get(name, 0) for name in after
            if after[name] != before.get(name, 0)}


def _replayed_by_skip(machine, cpu):
    """What ``skip_cycles`` adds to this CPU's stats per elided cycle."""
    before = _cpu_stats(machine, cpu)
    machine.processors[cpu].skip_cycles(1)
    replay = _changes(before, _cpu_stats(machine, cpu))
    assert all(delta == 1 for delta in replay.values()), replay
    for name in replay:  # take the probe back out of the books
        machine.sim.stats.counter(name).inc(-1)
    return replay


def _check_sleep_promises(programs, initial_memory, warm_lines,
                          model, pf, spec):
    """Step the naive path; hold every ``next_wake`` to its contract.

    Whenever a processor, after its tick at cycle ``c``, names a wake
    beyond ``c + 1``, each following tick before that wake — for as long
    as no event fires — must change nothing under ``cpu<k>/`` except the
    counters ``skip_cycles`` replays, each by exactly 1.  Returns the
    number of ticks held to a promise.
    """
    from repro.system.machine import MachineConfig, Multiprocessor

    machine = Multiprocessor(
        programs,
        MachineConfig(model=model, enable_prefetch=pf,
                      enable_speculation=spec),
        fast_forward=False)
    machine.init_memory(initial_memory)
    for cpu, addr, exclusive in warm_lines:
        machine.warm(cpu, addr, exclusive=exclusive)
    sim = machine.sim
    cpus = range(len(machine.processors))
    promises = {cpu: None for cpu in cpus}   # cpu -> (wake, replay)
    checked = 0
    while not machine.done():
        assert sim.cycle < 100_000
        next_event = sim.events.next_cycle()
        before = {cpu: _cpu_stats(machine, cpu) for cpu in cpus}
        sim.step()
        cycle = sim.cycle
        event_fired = next_event is not None and next_event <= cycle
        for cpu in cpus:
            if promises[cpu] is not None:
                wake, replay = promises[cpu]
                if cycle < wake and not event_fired:
                    changed = _changes(before[cpu], _cpu_stats(machine, cpu))
                    assert changed == replay, (
                        f"cpu{cpu} promised at most {replay} per idle tick "
                        f"until cycle {wake} but tick {cycle} did {changed}")
                    checked += 1
                    continue
                promises[cpu] = None
            wake = machine.processors[cpu].next_wake(cycle)
            if wake > cycle + 1:
                promises[cpu] = (wake, _replayed_by_skip(machine, cpu))
    return checked


class TestSleepPromise:
    """The ``next_wake``/``skip_cycles`` contract itself, tick by tick —
    whole-run equality above only implies it."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("tech,pf,spec", TECHNIQUES,
                             ids=[t[0] for t in TECHNIQUES])
    def test_example2_idle_ticks_do_only_what_skip_replays(
            self, model, tech, pf, spec):
        wl = example2_program()
        checked = _check_sleep_promises(
            [wl.program], wl.initial_memory, wl.warm_lines, model, pf, spec)
        assert checked > 0, "no promise was ever held to account"

    @pytest.mark.parametrize("model,pf,spec",
                             [(SC, False, False), (SC, True, True),
                              (WC, True, False), (RC, True, True)],
                             ids=["sc-base", "sc-both", "wc-pf", "rc-both"])
    def test_critical_section_idle_ticks_do_only_what_skip_replays(
            self, model, pf, spec):
        wl = critical_section_workload(num_cpus=2, iterations=2,
                                       shared_counters=3, private=True)
        checked = _check_sleep_promises(
            wl.programs, wl.initial_memory, (), model, pf, spec)
        # with speculation on, a lock RMW's speculative read polls the
        # store buffer through a one-cycle event, so no cycle of this
        # workload is event-free and no promise outlives its own cycle
        assert checked > 0 or spec, "no promise was ever held to account"


class TestFastForwardEngages:
    """The optimisation must actually fire, not just be harmless."""

    def test_profiled_run_reports_elided_cycles(self):
        wl = example1_program()
        result = run_workload([wl.program], model=SC,
                              initial_memory=wl.initial_memory,
                              warm_lines=wl.warm_lines, profile=True)
        snap = result.stats.snapshot()
        assert snap[HOST_PREFIX + "fastforward/spans"] > 0
        assert snap[HOST_PREFIX + "fastforward/cycles"] > 0
        # stepped ticks + elided cycles must cover the whole run
        assert snap[HOST_PREFIX + "cycles"] == result.cycles
        assert (snap[HOST_PREFIX + "ticks"]
                + snap[HOST_PREFIX + "fastforward/cycles"]) == result.cycles

    @pytest.mark.parametrize("tech,pf,spec,cycles",
                             [("baseline", False, False, 309),
                              ("both", True, True, 110)])
    def test_most_idle_cycles_are_elided(self, tech, pf, spec, cycles):
        # a core that always reports "moved" stays bit-identical and
        # loses the whole speed-up; example2/SC is nearly all miss waits
        wl = example2_program()
        result = run_workload([wl.program], model=SC, prefetch=pf,
                              speculation=spec,
                              initial_memory=wl.initial_memory,
                              warm_lines=wl.warm_lines, profile=True)
        snap = result.stats.snapshot()
        assert result.cycles == cycles
        assert snap[HOST_PREFIX + "ticks"] <= 40
        assert (snap[HOST_PREFIX + "ticks"]
                + snap[HOST_PREFIX + "fastforward/cycles"]) == result.cycles

    def test_trace_hooks_disable_fast_forward(self):
        sim = Simulator()
        sim.register(_Sleeper())
        seen = []
        sim.add_trace_hook(seen.append)
        sim.schedule(10, lambda: None)
        sim.run(until=lambda: sim.events.next_cycle() is None,
                max_cycles=100, deadlock_check=False)
        assert seen == list(range(1, 11))  # every cycle observed


class _Sleeper(Component):
    """Event-driven-only component that counts its elided cycles."""

    name = "sleeper"

    def __init__(self) -> None:
        self.skipped = 0
        self.ticks = 0

    def tick(self, cycle: int) -> None:
        self.ticks += 1

    def is_quiescent(self) -> bool:
        return False

    def next_wake(self, cycle: int) -> int:
        return WAKE_NEVER

    def skip_cycles(self, skipped: int) -> None:
        self.skipped += skipped


class _TimedWaker(Component):
    name = "timed-waker"

    def __init__(self, wake_at: int) -> None:
        self.wake_at = wake_at
        self.ticked_at = []

    def tick(self, cycle: int) -> None:
        self.ticked_at.append(cycle)

    def is_quiescent(self) -> bool:
        return False

    def next_wake(self, cycle: int) -> int:
        return self.wake_at if cycle < self.wake_at else cycle + 1


class TestKernelJumpMechanics:
    def test_jump_lands_on_next_event(self):
        sim = Simulator()
        sleeper = _Sleeper()
        sim.register(sleeper)
        fired = []
        sim.schedule(100, lambda: fired.append(sim.cycle))
        sim.run(until=lambda: bool(fired), max_cycles=1000,
                deadlock_check=False)
        assert fired == [100]
        assert sim.cycle == 100
        # cycles 1..99 were elided; cycle 100 was stepped normally
        assert sleeper.skipped == 99
        assert sleeper.ticks == 1

    def test_jump_lands_on_component_wake(self):
        sim = Simulator()
        waker = _TimedWaker(wake_at=50)
        sim.register(waker)
        sim.run(until=lambda: len(waker.ticked_at) >= 2, max_cycles=1000,
                deadlock_check=False)
        assert waker.ticked_at == [50, 51]

    def test_fast_forward_off_steps_every_cycle(self):
        sim = Simulator(fast_forward=False)
        sleeper = _Sleeper()
        sim.register(sleeper)
        sim.schedule(40, lambda: None)
        sim.run(until=lambda: sim.events.next_cycle() is None,
                max_cycles=100, deadlock_check=False)
        assert sleeper.ticks == 40
        assert sleeper.skipped == 0

    def test_max_cycles_deadlock_at_identical_cycle(self):
        cycles = []
        for ff in (True, False):
            sim = Simulator(fast_forward=ff)
            sim.register(_Sleeper())
            with pytest.raises(DeadlockError) as exc:
                sim.run(until=lambda: False, max_cycles=500,
                        deadlock_check=False)
            cycles.append(exc.value.cycle)
        assert cycles[0] == cycles[1] == 500


class _Spinner(Component):
    """Never quiescent, never finishes: a guaranteed deadlock."""

    name = "spinner"

    def is_quiescent(self) -> bool:
        return False


class TestProfilerExportOnDeadlock:
    """Satellite bugfix: profile data must survive a DeadlockError."""

    def test_deadlocked_profiled_run_still_exports_gauges(self):
        sim = Simulator(profile=True)
        sim.register(_Spinner())
        with pytest.raises(DeadlockError):
            sim.run(until=lambda: False, max_cycles=100)
        snap = sim.stats.snapshot()
        assert snap[HOST_PREFIX + "cycles"] == 100
        assert HOST_PREFIX + "wall_ns" in snap
        assert HOST_PREFIX + "cycles_per_sec" in snap

    def test_deadlocked_profiled_machine_run_exports_gauges(self):
        # a two-CPU workload wedged by an impossible cycle budget
        from repro.system.machine import MachineConfig, Multiprocessor
        wl = critical_section_workload(num_cpus=2, iterations=2,
                                       shared_counters=3, private=True)
        machine = Multiprocessor(wl.programs, MachineConfig(model=SC),
                                 profile=True)
        machine.init_memory(wl.initial_memory)
        with pytest.raises(DeadlockError):
            machine.run(max_cycles=40)
        snap = machine.sim.stats.snapshot()
        assert snap[HOST_PREFIX + "cycles"] == 40
        assert HOST_PREFIX + "wall_ns" in snap
