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

Sleep is per component: the mechanics tests also pin who ticks when
(woken in the event phase or by an earlier component: this cycle; by a
later one: the next, this one replayed), and ``TestRaisingRunParity``
that a run that raises leaves the books the naive path leaves.
"""

from types import SimpleNamespace

import pytest

from repro.coherence.messages import DIRECTORY_NODE, Message, MessageKind
from repro.consistency import PC, RC, SC, WC
from repro.isa import assemble
from repro.sim import Component, DeadlockError, Simulator, WAKE_NEVER
from repro.sim.errors import ProtocolError, SimulationError
from repro.sim.profiler import HOST_PREFIX
from repro.sim.trace import TraceRecorder
from repro.system import run_workload
from repro.system.agent import ScriptedAgent
from repro.workloads import (
    critical_section_workload,
    grid_relaxation_workload,
)
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
    beyond ``c + 1``, each following tick before that wake — until that
    very core is woken through ``Simulator.wake``, whatever events reach
    the others meanwhile — must change nothing under ``cpu<k>/`` except
    the counters ``skip_cycles`` replays, each by exactly 1, and must
    leave the core naming the same wake (it moved nothing).  This is
    the guard on the list of wake sites: a callback into a core that
    does not pass through the wake breaks a promise nobody lapsed.
    Returns the number of ticks held to a promise, and how many of them
    a speculative RMW read of that core waited through unsent.
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
    woken = set()
    sim.wake = woken.add    # outside run() the kernel's own is a no-op
    cpus = range(len(machine.processors))
    promises = {cpu: None for cpu in cpus}   # cpu -> (wake, replay)
    checked = across_rmw_reads = 0
    while not machine.done():
        assert sim.cycle < 100_000
        before = {cpu: _cpu_stats(machine, cpu) for cpu in cpus}
        woken.clear()
        sim.step()
        cycle = sim.cycle
        for cpu in cpus:
            if promises[cpu] is not None:
                wake, replay = promises[cpu]
                if cycle < wake and machine.processors[cpu] not in woken:
                    changed = _changes(before[cpu], _cpu_stats(machine, cpu))
                    assert changed == replay, (
                        f"cpu{cpu} promised at most {replay} per idle tick "
                        f"until cycle {wake} but tick {cycle} did {changed}")
                    # nor anything the books do not show yet
                    assert machine.processors[cpu].next_wake(cycle) == wake, (
                        f"cpu{cpu} promised to sleep until cycle {wake} "
                        f"but tick {cycle} moved")
                    checked += 1
                    across_rmw_reads += bool(
                        machine.processors[cpu].lsu._rmw_reads)
                    continue
                promises[cpu] = None
            wake = machine.processors[cpu].next_wake(cycle)
            if wake > cycle + 1:
                promises[cpu] = (wake, _replayed_by_skip(machine, cpu))
    return checked, across_rmw_reads


class TestSleepPromise:
    """The ``next_wake``/``skip_cycles`` contract itself, tick by tick —
    whole-run equality above only implies it.

    This holds the idle sleep to account: it probes each promise with
    ``skip_cycles(1)`` and takes the replayed counters back, which
    cannot undo a chain sleep's shift of the window.  None of these
    inputs has a run of one self-dependent ``add`` (a start skew), so no
    core here promises a chain sleep; ``tests/test_chain_sleep.py``
    holds that one to the naive path.
    """

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("tech,pf,spec", TECHNIQUES,
                             ids=[t[0] for t in TECHNIQUES])
    def test_example2_idle_ticks_do_only_what_skip_replays(
            self, model, tech, pf, spec):
        wl = example2_program()
        checked, _ = _check_sleep_promises(
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
        checked, across_rmw_reads = _check_sleep_promises(
            wl.programs, wl.initial_memory, (), model, pf, spec)
        assert checked > 0, "no promise was ever held to account"
        if spec:
            # the lock RMW's speculative read waits for the unlock store
            # to perform; the core it belongs to sleeps meanwhile
            assert across_rmw_reads > 0, (
                "no promise was held across a blocked speculative RMW read")

    def test_grid_relaxation_spec_rmw_value_reaches_sleeping_core(self):
        # the one input here on which a speculative RMW read's value
        # (``_spec_rmw_read_done``) comes back to a core that is asleep;
        # the tick after it issues a dependent branch, which no counter
        # shows for another two cycles
        wl = grid_relaxation_workload(4, 4, 2)
        checked, _ = _check_sleep_promises(
            wl.programs, wl.initial_memory, (), SC, True, True)
        assert checked > 0, "no promise was ever held to account"

    @pytest.mark.parametrize("seed", [0, 2, 3, 9])
    @pytest.mark.parametrize("model,pf,spec",
                             [(WC, True, True), (SC, False, True),
                              (RC, True, True)],
                             ids=["wc-both", "sc-spec", "rc-both"])
    def test_fuzz_legs_snoops_reach_sleeping_cores(self, seed, model, pf,
                                                   spec):
        # the critical section never snoops a core that is asleep; these
        # generated tests do (an invalidation corrects a speculative
        # load of a core that is stalled on something else), which is
        # what holds ``_on_snoop`` to the wake
        from repro.verify.generator import generate_litmus
        from repro.verify.harness import DEFAULT_RUN_CONFIGS, leg_jobs

        (job,), _ = leg_jobs(generate_litmus(seed),
                             [(model.name, pf, spec, DEFAULT_RUN_CONFIGS[0])])
        checked, _ = _check_sleep_promises(
            job.programs, job.initial_memory, job.warm_lines, model, pf, spec)
        assert checked > 0, "no promise was ever held to account"


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

    def test_cores_sleep_while_their_neighbour_works(self):
        # an always-awake core is as bit-identical as a sleeping one and
        # loses the whole speed-up.  With both techniques on, the lock
        # RMW's speculative read waits for the unlock store without an
        # event per cycle, so while both cores wait the clock jumps, and
        # in the cycles it steps one core sleeps while the other works:
        # 70 of 228 cycles stepped, 112 core ticks, when this was written
        wl = critical_section_workload(num_cpus=2, iterations=2,
                                       shared_counters=3, private=True)
        result = run_workload(wl.programs, model=SC, prefetch=True,
                              speculation=True,
                              initial_memory=wl.initial_memory, profile=True)
        snap = result.stats.snapshot()
        assert snap[HOST_PREFIX + "fastforward/cycles"] > 0
        assert snap[HOST_PREFIX + "ticks"] <= 0.5 * result.cycles
        assert (snap[HOST_PREFIX + "tick_count/Processor"]
                <= 0.85 * 2 * snap[HOST_PREFIX + "ticks"])


class _Sleeper(Component):
    """Event-driven-only component that counts its elided cycles."""

    name = "sleeper"

    def __init__(self) -> None:
        self.skipped = 0
        self.ticked_at = []
        self.skipped_before_tick = []

    @property
    def ticks(self) -> int:
        return len(self.ticked_at)

    def tick(self, cycle: int) -> None:
        self.ticked_at.append(cycle)
        self.skipped_before_tick.append(self.skipped)

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
        self.on_tick = lambda cycle: None

    def tick(self, cycle: int) -> None:
        self.ticked_at.append(cycle)
        self.on_tick(cycle)

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
        # cycles 1..99 were elided and cycle 100 was stepped, but the
        # event woke nobody: the sleeper slept through that one too
        assert sleeper.skipped == 100
        assert sleeper.ticks == 0

    def test_jump_lands_on_component_wake(self):
        sim = Simulator()
        waker = _TimedWaker(wake_at=50)
        sim.register(waker)
        sim.run(until=lambda: len(waker.ticked_at) >= 2, max_cycles=1000,
                deadlock_check=False)
        assert waker.ticked_at == [50, 51]

    def test_wake_in_event_phase_ticks_same_cycle(self):
        sim = Simulator()
        sleeper = _Sleeper()
        sim.register(sleeper)
        sim.schedule(30, lambda: sim.wake(sleeper))
        sim.run(until=lambda: sleeper.ticks > 0, max_cycles=1000,
                deadlock_check=False)
        assert sim.cycle == 30
        assert sleeper.ticked_at == [30]
        assert sleeper.skipped == 29    # replayed before that tick

    def test_wake_from_later_component_ticks_next_cycle_and_replays_this_one(
            self):
        sim = Simulator()
        sleeper = _Sleeper()
        waker = _TimedWaker(wake_at=20)
        waker.on_tick = lambda cycle: cycle == 20 and sim.wake(sleeper)
        sim.register(sleeper)   # ticks before the one that wakes it
        sim.register(waker)
        sim.run(until=lambda: sleeper.ticks > 0, max_cycles=1000,
                deadlock_check=False)
        # cycle 20 had passed the sleeper by when the wake came
        assert sleeper.ticked_at == [21]
        assert sleeper.skipped == 20
        assert sleeper.skipped_before_tick == [20]

    def test_wake_from_earlier_component_ticks_same_cycle(self):
        sim = Simulator()
        sleeper = _Sleeper()
        waker = _TimedWaker(wake_at=20)
        waker.on_tick = lambda cycle: cycle == 20 and sim.wake(sleeper)
        sim.register(waker)
        sim.register(sleeper)
        sim.run(until=lambda: sleeper.ticks > 0, max_cycles=1000,
                deadlock_check=False)
        assert sleeper.ticked_at == [20]
        assert sleeper.skipped == 19

    def test_step_outside_run_ticks_every_component(self):
        sim = Simulator()
        sleeper = _Sleeper()
        sim.register(sleeper)
        sim.schedule(5, lambda: None)
        sim.run(until=lambda: sim.events.next_cycle() is None,
                max_cycles=100, deadlock_check=False)
        assert (sleeper.ticks, sleeper.skipped) == (0, 5)
        sim.step()
        sim.step()
        assert sleeper.ticked_at == [6, 7]
        assert sleeper.skipped == 5

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


def _left_behind(workload, model, pf, spec, max_cycles, fast_forward,
                 arm=lambda machine: None):
    """Run to the exception; return it and the state it leaves.
    ``arm(machine)`` runs just before the machine does."""
    from repro.system.machine import MachineConfig, Multiprocessor

    machine = Multiprocessor(
        workload.programs,
        MachineConfig(model=model, enable_prefetch=pf,
                      enable_speculation=spec),
        fast_forward=fast_forward)
    machine.init_memory(workload.initial_memory)
    arm(machine)
    with pytest.raises(SimulationError) as exc:
        machine.run(max_cycles=max_cycles)
    return (type(exc.value), str(exc.value), machine.sim.cycle,
            machine.sim.stats.snapshot())


class TestRaisingRunParity:
    """A sleeper's counters lag the clock, so a run that raises must
    still settle them — through the cycle the naive path last ticked
    each core at, which for an exception in mid-cycle is not the same
    cycle for every core."""

    def _check(self, error, workload, model, pf, spec, max_cycles,
               arm=lambda machine: None):
        fast = _left_behind(workload, model, pf, spec, max_cycles, True, arm)
        naive = _left_behind(workload, model, pf, spec, max_cycles, False,
                             arm)
        assert fast[0] is error
        assert fast == naive

    def test_max_cycles_clamp_between_steps(self):
        self._check(DeadlockError,
                    critical_section_workload(num_cpus=2, iterations=2,
                                              shared_counters=3, private=True),
                    SC, False, False, max_cycles=150)

    def test_wedged_guest_runs_out_of_cycles(self):
        # one core spins on a flag nobody sets; the other finished its
        # miss long ago and sleeps through the rest of the 5 000 cycles
        spinner = assemble("""
            spin:
                ld     r1, 0x80
                beqz   r1, spin
                halt
        """)
        idler = assemble("""
                ld     r2, 0x40
                halt
        """)
        wedged = SimpleNamespace(programs=[spinner, idler, idler],
                                 initial_memory={})
        self._check(DeadlockError, wedged, RC, True, False, max_cycles=5_000)

    def test_protocol_error_in_the_event_phase(self):
        # a scripted agent sends the directory an INVAL_ACK for no
        # transaction: the directory raises while the message is
        # delivered, in the event phase, before any core ticks that cycle
        def stray_ack(machine):
            agent = ScriptedAgent("agent0", machine.sim, machine.fabric.net)
            machine.sim.schedule_at(150, lambda: agent.net.send(Message(
                kind=MessageKind.INVAL_ACK, src=agent.node,
                dst=DIRECTORY_NODE, line_addr=0x10, txn=0)))

        self._check(ProtocolError,
                    critical_section_workload(num_cpus=4, iterations=4,
                                              shared_counters=3,
                                              private=False),
                    SC, True, False, max_cycles=1_000_000, arm=stray_ack)

    def test_raise_inside_a_tick_spares_the_components_after_it(self):
        # registration order: a sleeper, the one that raises, a sleeper
        books = []
        for ff in (True, False):
            sim = Simulator(fast_forward=ff)
            first, bomb, last = _Sleeper(), _TimedWaker(wake_at=10), _Sleeper()
            bomb.on_tick = lambda cycle: cycle == 10 and 1 // 0
            for component in (first, bomb, last):
                sim.register(component)
            with pytest.raises(ZeroDivisionError):
                sim.run(until=lambda: False, max_cycles=100,
                        deadlock_check=False)
            books.append((sim.cycle, first.ticks + first.skipped,
                          last.ticks + last.skipped))
        # the naive path ticked `first` at cycle 10 and never got to `last`
        assert books[0] == books[1] == (10, 10, 9)


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
