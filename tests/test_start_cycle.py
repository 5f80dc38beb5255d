"""Start cycles: a start skew costs no ticks.

A run configuration's skew is the cycle each thread's CPU starts at
(:func:`~repro.verify.harness.leg_jobs`).  Up to and including it the
core's tick only charges ``idle``, so the core sleeps to it
(:meth:`~repro.cpu.processor.Processor.next_wake`) and
:meth:`~repro.cpu.processor.Processor.skip_cycles` replays the idle
cycles it slept through.  The naive path (``fast_forward=False``) ticks
every cycle, so it is the reference: each case here must match it on
the final cycle, every registry entry outside ``host/`` and the audit
words the litmus outcome is read from — on generated legs across the
default run configurations, when ``max_cycles`` falls before a core's
start, when an invalidation reaches a core that has not started, on a
traced run and on re-armed machines.
"""

from __future__ import annotations

import pytest

from repro.consistency.litmus import STANDARD_TESTS
from repro.consistency.models import get_model
from repro.cpu.processor import Processor
from repro.memory.types import LatencyConfig
from repro.sim.errors import ConfigurationError, DeadlockError
from repro.sim.trace import TraceRecorder
from repro.system.jobs import run_rearmed
from repro.system.machine import MachineConfig, Multiprocessor, run_machine
from repro.verify.generator import generate_litmus
from repro.verify.harness import (DEFAULT_RUN_CONFIGS, MODEL_NAMES,
                                  TECHNIQUE_COMBOS, RunConfig, leg_jobs)


def _books(stats, read_word, audit_map, cycles):
    """What a run leaves: its cycle, every registry entry the guest's
    run wrote, and the audit words."""
    return (cycles,
            {name: value for name, value in stats.snapshot().items()
             if not name.startswith("host/")},
            {reg: read_word(slot) for reg, slot in sorted(audit_map.items())})


def _run(job, audit_map, fast_forward, trace=None):
    config = MachineConfig(
        model=get_model(job.model_name),
        enable_prefetch=job.prefetch,
        enable_speculation=job.speculation,
        latencies=LatencyConfig.from_miss_latency(job.miss_latency),
        cache=job.cache_config())
    machine = Multiprocessor(job.programs, config, trace=trace,
                             fast_forward=fast_forward, starts=job.starts)
    try:
        cycles = run_machine(machine, job.initial_memory, job.warm_lines,
                             job.max_cycles).cycles
    except DeadlockError as exc:
        cycles = ("deadlock", exc.cycle, str(exc))
    return _books(machine.sim.stats, machine.read_word, audit_map, cycles)


def _assert_matches_naive(job, audit_map):
    fast = _run(job, audit_map, fast_forward=True)
    naive = _run(job, audit_map, fast_forward=False)
    assert fast[0] == naive[0], "final cycles differ"
    assert fast[1] == naive[1], "registries differ"
    assert fast[2] == naive[2], "audit words differ"
    return fast


def _legs(run_configs):
    return [(model, prefetch, speculation, run_config)
            for run_config in run_configs
            for model in MODEL_NAMES
            for prefetch, speculation in TECHNIQUE_COMBOS]


@pytest.fixture
def early_ticks(monkeypatch):
    """Counts the ticks a sleeping core takes before its start cycle
    after its first (at cycle 1, which puts it to sleep)."""
    counts = [0]
    real_tick = Processor.tick

    def tick(core, cycle):
        if 1 < cycle <= core.start and core.sim.fast_forward:
            counts[0] += 1
        return real_tick(core, cycle)

    monkeypatch.setattr(Processor, "tick", tick)
    return counts


class TestStartCycleMatchesNaive:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_legs_across_the_run_configs(self, seed):
        test = generate_litmus(seed)
        jobs, audit_maps = leg_jobs(test, _legs(DEFAULT_RUN_CONFIGS))
        assert any(any(job.starts) for job in jobs)
        for job, audit_map in zip(jobs, audit_maps):
            cycles, stats, _words = _assert_matches_naive(job, audit_map)
            # every cycle of every CPU has one cause, the idle ones
            # before its start among them
            for cpu in range(job.ncpu):
                head = f"cpu{cpu}/cycles/"
                assert sum(value for name, value in stats.items()
                           if name.startswith(head)) == cycles
                assert stats[head + "idle"] >= job.starts[cpu]

    @pytest.mark.parametrize("max_cycles", [150, 333, 700])
    @pytest.mark.parametrize("model", ["SC", "RC"])
    def test_max_cycles_before_a_start(self, model, max_cycles):
        test = STANDARD_TESTS["SB"]()
        (job,), (audit_map,) = leg_jobs(test, [(
            model, True, True,
            RunConfig(name="budget", skew=(0, 1000), max_cycles=max_cycles))])
        cycles, stats, _words = _assert_matches_naive(job, audit_map)
        assert cycles[:2] == ("deadlock", max_cycles)
        # the late CPU never started: the whole run was idle
        assert stats["cpu1/cycles/idle"] == max_cycles
        assert stats["cpu1/instructions_decoded"] == 0

    def test_an_invalidation_reaches_a_core_before_its_start(
            self, early_ticks):
        # every litmus line starts SHARED in both caches; thread 1
        # writes y while thread 0 has not started, which invalidates
        # thread 0's copy and wakes that core before its start cycle
        test = STANDARD_TESTS["SB"]()
        jobs, audit_maps = leg_jobs(test, _legs([
            RunConfig(name="snoop", skew=(300, 0), warm_shared=True)]))
        for job, audit_map in zip(jobs, audit_maps):
            _assert_matches_naive(job, audit_map)
        assert early_ticks[0] > 0, "no delivery woke a core before its start"

    def test_a_traced_run_records_what_the_naive_path_records(self):
        test = STANDARD_TESTS["MP"]()
        (job,), (audit_map,) = leg_jobs(test, [(
            "RC", True, True, RunConfig(name="traced", skew=(200, 0)))])
        runs = []
        for fast_forward in (True, False):
            trace = TraceRecorder()
            books = _run(job, audit_map, fast_forward, trace=trace)
            runs.append((books, [event.describe() for event in trace.events]))
        assert runs[0] == runs[1]

    def test_rearmed_machines(self):
        test = generate_litmus(3)
        configs = [RunConfig(name="tight", skew=(0, 0)),
                   RunConfig(name="long", skew=(0, 250, 40, 417)),
                   RunConfig(name="short", skew=(19, 0, 33, 5),
                             warm_shared=False)]
        jobs, audit_maps = leg_jobs(test, _legs(configs))
        for job, audit_map, result in zip(jobs, audit_maps,
                                          run_rearmed(jobs)):
            assert result.ok, result.error
            rearmed = _books(result.stats, result.read_word, audit_map,
                             result.cycles)
            assert rearmed == _run(job, audit_map, fast_forward=False)


@pytest.mark.parametrize("starts", [(0,), (0, 5, 5), (0, -1)])
def test_a_start_per_cpu_or_none(starts):
    programs, _audit = STANDARD_TESTS["SB"]().to_programs()
    with pytest.raises(ConfigurationError, match="one start cycle"):
        Multiprocessor(programs, starts=starts)
