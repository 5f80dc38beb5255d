"""Chain sleep: a start skew costs no ticks.

A start skew of ``d`` cycles is ``d`` dependent ``add``s
(:meth:`~repro.consistency.litmus.LitmusTest.to_programs`).  Inside a
run of them a core in the steady shape sleeps, and
:meth:`~repro.cpu.processor.Processor.skip_cycles` applies the ticks it
slept through as one shift of its window.  The naive path
(``fast_forward=False``) ticks every cycle, so it is the reference:
each case here must match it on the final cycle, every registry entry
outside ``host/`` and the audit words the litmus outcome is read from —
on generated tests across the run-configuration axes, when a snoop cuts
a sleep short, when ``max_cycles`` falls inside one, on a traced run
and on re-armed machines.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.consistency.litmus import STANDARD_TESTS
from repro.consistency.models import get_model
from repro.cpu.processor import Processor
from repro.memory.types import LatencyConfig
from repro.sim.errors import DeadlockError
from repro.sim.trace import TraceRecorder
from repro.system.jobs import run_rearmed
from repro.system.machine import MachineConfig, Multiprocessor, run_machine
from repro.verify.generator import generate_litmus
from repro.verify.harness import MODEL_NAMES, TECHNIQUE_COMBOS, RunConfig, leg_jobs

#: start skews: short ones, the ones around where the ALU station
#: fills (17-20), and runs long enough to sleep in
SKEWS = (0, 1, 5, 17, 18, 19, 20, 33, 40, 60, 200, 417)


class _Sleeps:
    """Counts the chain sleeps a core promises, and the ones cut short:
    a tick before the promised wake means a delivery woke it early."""

    def __init__(self, monkeypatch) -> None:
        self.slept = self.cut_short = 0
        promised = {}
        real_span, real_tick = Processor._chain_span, Processor.tick

        def chain_span(core, cycle):
            span = real_span(core, cycle)
            if span:
                promised[core] = cycle + 1 + span
                self.slept += 1
            return span

        def tick(core, cycle):
            wake = promised.pop(core, None)
            if wake is not None and cycle < wake:
                self.cut_short += 1
            return real_tick(core, cycle)

        monkeypatch.setattr(Processor, "_chain_span", chain_span)
        monkeypatch.setattr(Processor, "tick", tick)


@pytest.fixture
def sleeps(monkeypatch):
    return _Sleeps(monkeypatch)


def _machine(job, fast_forward, trace=None):
    config = MachineConfig(
        model=get_model(job.model_name),
        enable_prefetch=job.prefetch,
        enable_speculation=job.speculation,
        latencies=LatencyConfig.from_miss_latency(job.miss_latency),
        cache=job.cache_config())
    return Multiprocessor(job.programs, config, trace=trace,
                          fast_forward=fast_forward)


def _books(stats, read_word, audit_map, cycles):
    """What a run leaves: its cycle, every registry entry the guest's
    run wrote, and the audit words."""
    return (cycles,
            {name: value for name, value in stats.snapshot().items()
             if not name.startswith("host/")},
            {reg: read_word(slot) for reg, slot in sorted(audit_map.items())})


def _run(job, audit_map, fast_forward, trace=None):
    """The run's books, and each core's committed registers (a skew's
    own register is in no audit word)."""
    machine = _machine(job, fast_forward, trace)
    try:
        cycles = run_machine(machine, job.initial_memory, job.warm_lines,
                             job.max_cycles).cycles
    except DeadlockError as exc:
        cycles = ("deadlock", exc.cycle, str(exc))
    return (*_books(machine.sim.stats, machine.read_word, audit_map, cycles),
            [core.regfile.snapshot() for core in machine.processors])


def _assert_matches_naive(job, audit_map):
    fast = _run(job, audit_map, fast_forward=True)
    naive = _run(job, audit_map, fast_forward=False)
    assert fast[0] == naive[0], "final cycles differ"
    assert fast[1] == naive[1], "registries differ"
    assert fast[2] == naive[2], "audit words differ"
    assert fast[3] == naive[3], "registers differ"


def _legs(rng, nthreads, warm_shared):
    return [(model, prefetch, speculation,
             RunConfig(name="chain",
                       skew=tuple(rng.choice(SKEWS) for _ in range(nthreads)),
                       warm_shared=warm_shared))
            for model in MODEL_NAMES
            for prefetch, speculation in TECHNIQUE_COMBOS]


class TestChainSleepMatchesNaive:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_tests_across_the_run_axes(self, seed, sleeps):
        test = generate_litmus(seed)
        rng = random.Random(seed)
        legs = (_legs(rng, len(test.threads), warm_shared=False)
                + _legs(rng, len(test.threads), warm_shared=True))
        jobs, audit_maps = leg_jobs(test, legs)
        for job, audit_map in zip(jobs, audit_maps):
            _assert_matches_naive(job, audit_map)
        assert sleeps.slept > 0, "no core ever slept in a chain"

    def test_a_snoop_cuts_a_chain_sleep_short(self, sleeps):
        # every litmus line starts SHARED in both caches; thread 1
        # writes y while thread 0 still sits in its skew, which
        # invalidates thread 0's copy and wakes that core
        test = STANDARD_TESTS["SB"]()
        legs = [(model, prefetch, speculation,
                 RunConfig(name="snoop", skew=(300, 0), warm_shared=True))
                for model in MODEL_NAMES
                for prefetch, speculation in TECHNIQUE_COMBOS]
        jobs, audit_maps = leg_jobs(test, legs)
        for job, audit_map in zip(jobs, audit_maps):
            _assert_matches_naive(job, audit_map)
        assert sleeps.cut_short > 0, "no delivery ever woke a chained core"

    @pytest.mark.parametrize("max_cycles", [150, 333, 700])
    @pytest.mark.parametrize("model", ["SC", "RC"])
    def test_max_cycles_inside_a_chain(self, model, max_cycles, sleeps):
        test = STANDARD_TESTS["SB"]()
        (job,), (audit_map,) = leg_jobs(test, [(
            model, True, True,
            RunConfig(name="budget", skew=(0, 1000), max_cycles=max_cycles))])
        fast = _run(job, audit_map, fast_forward=True)
        naive = _run(job, audit_map, fast_forward=False)
        assert fast[0] == naive[0] == (
            "deadlock", max_cycles, naive[0][2])
        assert fast == naive
        assert sleeps.slept > 0

    def test_a_traced_run_records_what_the_naive_path_records(self, sleeps):
        test = STANDARD_TESTS["MP"]()
        (job,), (audit_map,) = leg_jobs(test, [(
            "RC", True, True, RunConfig(name="traced", skew=(200, 0)))])
        runs = []
        for fast_forward in (True, False):
            trace = TraceRecorder()
            books = _run(job, audit_map, fast_forward, trace=trace)
            runs.append((books, [event.describe() for event in trace.events]))
        assert runs[0] == runs[1]
        # every retire is a trace event, so a traced core never shifts
        assert sleeps.slept == 0

    def test_rearmed_machines_over_legs_that_chain_and_legs_that_do_not(
            self, sleeps):
        test = generate_litmus(3)
        configs = [RunConfig(name="tight", skew=(0, 0)),
                   RunConfig(name="long", skew=(0, 250, 40, 417)),
                   RunConfig(name="short", skew=(19, 0, 33, 5),
                             warm_shared=False)]
        legs = [(model, prefetch, speculation, config)
                for config, model, (prefetch, speculation) in itertools.product(
                    configs, MODEL_NAMES, TECHNIQUE_COMBOS)]
        jobs, audit_maps = leg_jobs(test, legs)
        for job, audit_map, result in zip(jobs, audit_maps,
                                          run_rearmed(jobs)):
            assert result.ok, result.error
            rearmed = _books(result.stats, result.read_word, audit_map,
                             result.cycles)
            assert rearmed == _run(job, audit_map, fast_forward=False)[:3]
        assert sleeps.slept > 0
