"""A re-armed machine is a fresh one.

``Multiprocessor.reset(model, prefetch, speculation)`` must leave a
machine exactly as a new build with those three fields would be: the
fuzz harness runs the sixteen model x technique legs of one run
configuration on one machine, so any state that leaked from one leg
into the next would change what the harness observes.  The first test
runs every leg of generated tests on re-armed machines, in two leg
orders, against fresh builds; the second compares every component of a
re-armed machine with a fresh one's, field by field.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import random
from collections import deque

import pytest

from repro.consistency.models import get_model
from repro.cpu.config import ProcessorConfig
from repro.isa import ProgramBuilder
from repro.memory.types import LatencyConfig
from repro.sim.errors import DeadlockError
from repro.sim.kernel import Component, Simulator
from repro.sim.stats import Counter, Histogram, StatsRegistry
from repro.sim.trace import TraceRecorder
from repro.system.jobs import BatchJob, run_rearmed, run_scalar
from repro.system.machine import (MachineConfig, Multiprocessor, run_machine,
                                  run_workload)
from repro.verify.generator import GeneratorConfig, generate_litmus
from repro.verify.harness import (DEFAULT_RUN_CONFIGS, MODEL_NAMES,
                                  TECHNIQUE_COMBOS, leg_jobs)

LEGS = [(model, prefetch, speculation, run_config)
        for model in MODEL_NAMES
        for prefetch, speculation in TECHNIQUE_COMBOS
        for run_config in DEFAULT_RUN_CONFIGS]

#: generated tests with 2-4 threads
TESTS = [generate_litmus(seed, GeneratorConfig(min_cpus=2, max_cpus=4))
         for seed in range(8)]


def _config(job: BatchJob) -> MachineConfig:
    return MachineConfig(
        model=get_model(job.model_name),
        enable_prefetch=job.prefetch,
        enable_speculation=job.speculation,
        latencies=LatencyConfig.from_miss_latency(job.miss_latency),
        cache=job.cache_config(),
    )


def _observe(rr, events, audit_map):
    """Everything a leg shows: cycles, statistics, trace, audit words."""
    stats = {name: value for name, value in rr.stats.snapshot().items()
             if not name.startswith("host/")}
    words = {reg: rr.machine.read_word(slot)
             for reg, slot in audit_map.items()}
    return rr.cycles, stats, [e.to_json() for e in events], words


def _fresh(job, audit_map):
    recorder = TraceRecorder()
    rr = run_workload(job.programs, model=get_model(job.model_name),
                      prefetch=job.prefetch, speculation=job.speculation,
                      miss_latency=job.miss_latency,
                      initial_memory=job.initial_memory,
                      warm_lines=job.warm_lines, cache=job.cache,
                      max_cycles=job.max_cycles, trace=recorder,
                      starts=job.starts)
    return _observe(rr, recorder.events, audit_map)


def _rearmed(jobs, audit_maps, order):
    """Run ``jobs`` in ``order``, every one on a re-armed machine (one
    per run configuration, built for the last leg it will run)."""
    machines = {}
    out = {}
    for i in order:
        job = jobs[i]
        shape = repr(job.machine_shape())
        if shape not in machines:
            last = [k for k in order
                    if repr(jobs[k].machine_shape()) == shape][-1]
            recorder = TraceRecorder()
            machines[shape] = (Multiprocessor(
                job.programs, _config(jobs[last]), trace=recorder,
                starts=job.starts), recorder)
        machine, recorder = machines[shape]
        machine.reset(get_model(job.model_name), job.prefetch,
                      job.speculation)
        start = len(recorder.events)
        rr = run_machine(machine, job.initial_memory, job.warm_lines,
                         job.max_cycles)
        out[i] = _observe(rr, recorder.events[start:], audit_maps[i])
    return out


@pytest.mark.parametrize("test", TESTS, ids=lambda t: t.name)
def test_rearmed_legs_equal_fresh_builds(test):
    jobs, audit_maps = leg_jobs(test, LEGS)
    fresh = [_fresh(job, audit_map)
             for job, audit_map in zip(jobs, audit_maps)]
    in_order = list(range(len(jobs)))
    shuffled = in_order[:]
    random.Random(len(test.threads)).shuffle(shuffled)
    for order in (in_order, shuffled):
        rearmed = _rearmed(jobs, audit_maps, order)
        for i, leg in enumerate(LEGS):
            assert rearmed[i] == fresh[i], (test.name, leg[:3], leg[3].name)


def test_run_rearmed_matches_run_scalar_and_drops_a_failed_machine(
        monkeypatch):
    # three technique combinations x four run configurations
    jobs, _audit = leg_jobs(TESTS[0], LEGS[:12])
    expected = [run_scalar(job) for job in jobs]
    machines = []
    for res, want in zip(run_rearmed(jobs), expected):
        assert res.ok and res.cycles == want.cycles
        assert res.stats.snapshot() == want.stats.snapshot()
        machines.append(res._read_word.__self__)
    # one machine per run configuration, re-armed for the other legs
    assert len({id(m) for m in machines}) == 4

    original = Multiprocessor.run
    calls = itertools.count()

    def fails_once(self, max_cycles=1_000_000):
        if next(calls) == 4:  # the second leg of the first machine
            raise DeadlockError(self.sim.cycle, "injected")
        return original(self, max_cycles)

    monkeypatch.setattr(Multiprocessor, "run", fails_once)
    results = list(res._read_word.__self__ if res.ok else res.error
                   for res in run_rearmed(jobs))
    assert isinstance(results[4], DeadlockError)
    # the machine that raised is gone; its shape's next leg builds anew
    assert results[0] is not results[4 + 4]
    assert results[1] is results[5]


# ----------------------------------------------------------------------
# Field by field
# ----------------------------------------------------------------------

#: objects another component only refers to: compared by type, since
#: each is compared in its own right
_REFERENCES = (Component, Simulator, Multiprocessor)


def _shape(value, depth=0):
    """A comparable picture of ``value``'s state."""
    if isinstance(value, (type(None), bool, int, float, str, enum.Enum)):
        return value
    if isinstance(value, Counter):
        return ("Counter", value.name, value.value)
    if isinstance(value, Histogram):
        return ("Histogram", value.name, value.count, value.total,
                value.min, value.max, tuple(value.items()))
    if isinstance(value, StatsRegistry):
        return ("StatsRegistry", tuple(sorted(value.snapshot().items())))
    if isinstance(value, itertools.count):
        return repr(value)
    if isinstance(value, (ProcessorConfig, MachineConfig)):
        return value
    if depth and isinstance(value, _REFERENCES):
        return type(value).__name__
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__,
                tuple(_shape(v, depth + 1) for v in value))
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__,
                tuple(sorted(repr(_shape(v, depth + 1)) for v in value)))
    if isinstance(value, dict):
        return (type(value).__name__,
                tuple((_shape(k, depth + 1), _shape(v, depth + 1))
                      for k, v in value.items()))
    if callable(value) and hasattr(value, "__qualname__"):
        return ("callable", value.__qualname__)
    fields = getattr(value, "__dict__", None)
    if fields is None:
        fields = {name: getattr(value, name)
                  for name in getattr(type(value), "__slots__", ())}
    return (type(value).__name__,
            tuple((name, _shape(v, depth + 1))
                  for name, v in sorted(fields.items())))


def _components(machine):
    """Every object of the machine that holds run state, by role."""
    out = {"sim": machine.sim, "events": machine.sim.events,
           "stats": machine.sim.stats, "net": machine.fabric.net,
           "directory": machine.fabric.directory}
    for cache in machine.fabric.caches:
        out[cache.name] = cache
    for proc in machine.processors:
        for role in ("", ".regfile", ".rob", ".predictor", ".alu_unit",
                     ".branch_unit", ".lsu", ".accountant", ".lsu.slb",
                     ".lsu.prefetcher", ".lsu.sc_detector"):
            obj = proc
            for attr in role.split(".")[1:]:
                obj = getattr(obj, attr)
            out[proc.name + role] = obj
    for agent in machine.agents:
        out[agent.node] = agent
    return out


@pytest.mark.parametrize("sc_detection,agents", [(False, 0), (True, 1)])
@pytest.mark.parametrize("before,after", [
    (("SC", False, False), ("RC", True, True)),
    (("RC", True, True), ("SC", False, False)),
    (("WC", False, True), ("PC", True, False)),
])
@pytest.mark.parametrize("max_cycles", [30, 400_000],
                         ids=["mid-run", "finished"])
def test_component_state_after_reset_equals_fresh(before, after, max_cycles,
                                                  sc_detection, agents):
    (job,), (_audit,) = leg_jobs(TESTS[1], [("SC", False, False,
                                             DEFAULT_RUN_CONFIGS[0])])
    # one more CPU, running a loop whose branch trains the predictor
    loop = (ProgramBuilder().mov_imm("r1", 5).label("top")
            .load("r2", addr=0x80).add_imm("r1", "r1", -1)
            .branch_nonzero("r1", "top").build())
    job = dataclasses.replace(job, programs=job.programs + (loop,))

    def build(model, prefetch, speculation):
        config = _config(job)
        config.model = get_model(model)
        config.enable_prefetch = prefetch
        config.enable_speculation = speculation
        config.processor = ProcessorConfig(enable_sc_detection=sc_detection)
        return Multiprocessor(job.programs, config, extra_agents=agents)

    machine = build(*before)
    try:
        run_machine(machine, job.initial_memory, job.warm_lines, max_cycles)
    except DeadlockError:
        pass  # stopped mid-run: events, misses and buffers in flight
    assert machine.sim.cycle > 0
    machine.reset(get_model(after[0]), after[1], after[2])
    fresh = build(*after)

    rearmed_parts, fresh_parts = _components(machine), _components(fresh)
    assert rearmed_parts.keys() == fresh_parts.keys()
    for role, part in rearmed_parts.items():
        assert _shape(part) == _shape(fresh_parts[role]), role
    assert machine.config == fresh.config
    assert machine.sim.stats.snapshot() == fresh.sim.stats.snapshot()


def test_profiled_machine_counts_each_leg_from_zero():
    jobs, audit_maps = leg_jobs(TESTS[2], LEGS[:16:4])
    deterministic = ("cycles", "ticks", "fastforward/spans",
                     "fastforward/cycles", "tick_count/Processor")
    machine = None
    for job in jobs:
        fresh = Multiprocessor(job.programs, _config(job), profile=True)
        want = run_machine(fresh, job.initial_memory, job.warm_lines,
                           job.max_cycles).stats
        if machine is None:
            machine = Multiprocessor(job.programs, _config(job), profile=True)
        else:
            machine.reset(get_model(job.model_name), job.prefetch,
                          job.speculation)
        got = run_machine(machine, job.initial_memory, job.warm_lines,
                          job.max_cycles).stats
        for name in deterministic:
            key = "host/profile/" + name
            assert got.counter(key).value == want.counter(key).value, key
        assert set(got.snapshot()) == set(want.snapshot())
