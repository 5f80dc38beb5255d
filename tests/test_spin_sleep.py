"""Spin sleep: a steady spin costs no ticks.

A poll of a barrier or a flag mispredicts the same branch every few
cycles, and between two rollbacks the core's ticks repeat.  Once its
state comes round to itself a period later, the core sleeps through
whole periods and :meth:`~repro.cpu.processor.Processor.skip_cycles`
applies them as one shift (:meth:`Processor.next_wake`).  The naive path
(``fast_forward=False``) ticks every cycle, so it is the reference: each
case here must match it on the final cycle, every registry entry outside
``host/`` and every expected final-memory word — across the
``guest_apps`` members under four models and four technique settings,
on the hostile cache geometries, where the hops are too short for the
sleep, on re-armed machines, when ``max_cycles`` falls inside a sleep
and when another component raises inside one.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.coherence.messages import DIRECTORY_NODE, Message, MessageKind
from repro.consistency.models import get_model
from repro.core.speculation import SlbEntry
from repro.cpu.lsu import MemOp
from repro.cpu.processor import Processor
from repro.cpu.rob import Operand, RobEntry
from repro.cpu.units import AluUnit, RsEntry, _Station
from repro.isa.assembler import assemble
from repro.memory.cache import CacheLine, MshrEntry
from repro.memory.types import CacheConfig, LatencyConfig, LineState
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.sweep import derive_seed
from repro.system.agent import ScriptedAgent
from repro.system.jobs import BatchJob, run_rearmed
from repro.system.machine import MachineConfig, Multiprocessor, run_machine
from repro.verify.generator import generate_litmus
from repro.verify.harness import (
    DEFAULT_RUN_CONFIGS,
    MODEL_NAMES,
    TECHNIQUE_COMBOS,
    leg_jobs,
)
from repro.workloads import (
    barrier_workload,
    critical_section_workload,
    false_sharing_workload,
    grid_relaxation_workload,
    work_queue_workload,
)
from tests.test_known_failures import HOSTILE_LEGS

ASM = Path(__file__).resolve().parent.parent / "examples" / "asm"

#: the ``guest_apps`` members at half size, as the whole-registry pins
MEMBERS = {wl.name: wl for wl in (
    barrier_workload(4, phases=1),
    grid_relaxation_workload(4, 4, 1),
    work_queue_workload(3, 4),
    false_sharing_workload(4, updates=24),
    critical_section_workload(2, iterations=5, shared_counters=3,
                              private=True),
)}


class _Sleeps:
    """Counts the spin sleeps cores fall into, and the ones a run ended
    in mid-period."""

    def __init__(self, monkeypatch) -> None:
        self.slept = self.cut = 0
        real_sleep, real_skip = Processor._spin_sleep, Processor._skip_periods

        def spin_sleep(core, cycle):
            wake = real_sleep(core, cycle)
            self.slept += core._spin.asleep
            return wake

        def skip_periods(core, skipped):
            self.cut += bool(skipped % core._spin.period.cycles)
            return real_skip(core, skipped)

        monkeypatch.setattr(Processor, "_spin_sleep", spin_sleep)
        monkeypatch.setattr(Processor, "_skip_periods", skip_periods)


@pytest.fixture
def sleeps(monkeypatch):
    return _Sleeps(monkeypatch)


def _books(machine, cycles, words):
    """What a run leaves: its cycle (or its error), every registry entry
    the guest's run wrote, the words asked for, and each cache's LRU
    clock and lines with their stamps (which only an eviction shows)."""
    return (cycles,
            {name: value for name, value in machine.sim.stats.snapshot().items()
             if not name.startswith("host/")},
            [machine.read_word(addr) for addr in words],
            [(cache.lru_clock,
              sorted((line.line_addr, line.state.value, line.lru)
                     for lines in cache._sets for line in lines))
             for cache in machine.fabric.caches])


def _run(programs, model, prefetch, speculation, fast_forward, memory=None,
         words=(), max_cycles=1_000_000, arm=lambda machine: None, **config):
    machine = Multiprocessor(programs, MachineConfig(
        model=get_model(model), enable_prefetch=prefetch,
        enable_speculation=speculation, **config), fast_forward=fast_forward)
    arm(machine)
    try:
        cycles = run_machine(machine, memory, (), max_cycles).cycles
    except SimulationError as exc:
        cycles = (type(exc).__name__, str(exc), machine.sim.cycle)
    return _books(machine, cycles, words)


def _assert_matches_naive(*args, stamps=True, **kw):
    fast = _run(*args, fast_forward=True, **kw)
    naive = _run(*args, fast_forward=False, **kw)
    assert fast[0] == naive[0], "final cycles differ"
    assert fast[1] == naive[1], "registries differ"
    assert fast[2] == naive[2], "final memory differs"
    if stamps:
        assert fast[3] == naive[3], "LRU stamps differ"
    return fast


class TestSpinSleepMatchesNaive:
    @pytest.mark.parametrize("name", sorted(MEMBERS))
    def test_guest_apps_members_across_models_and_techniques(self, name,
                                                             sleeps):
        wl = MEMBERS[name]
        words = [addr for addr, _ in wl.expectations]
        for model in MODEL_NAMES:
            for prefetch, speculation in TECHNIQUE_COMBOS:
                fast = _assert_matches_naive(
                    wl.programs, model, prefetch, speculation,
                    memory=wl.initial_memory, words=words)
                assert fast[2] == [value for _, value in wl.expectations]
        if name.startswith(("barrier", "grid")):
            assert sleeps.slept > 0, "no core ever slept in a spin"

    @pytest.mark.parametrize("model", ["SC", "RC"])
    @pytest.mark.parametrize("wl", [barrier_workload(4, phases=2),
                                    grid_relaxation_workload(4, 4, 2)],
                             ids=lambda wl: wl.name)
    def test_full_size_barrier_and_grid(self, wl, model, sleeps):
        # the ``guest_apps`` cells where spins take the most time: a
        # fill, an invalidation or a recall lands on many sleepers here
        words = [addr for addr, _ in wl.expectations]
        for on in (False, True):
            _assert_matches_naive(wl.programs, model, on, on,
                                  memory=wl.initial_memory, words=words)
        assert sleeps.slept > 0

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_producer_consumer(self, model, sleeps):
        programs = [assemble((ASM / f"{name}.s").read_text())
                    for name in ("producer", "consumer")]
        for prefetch, speculation in TECHNIQUE_COMBOS:
            _assert_matches_naive(programs, model, prefetch, speculation,
                                  words=(0x40, 0x80))
        assert sleeps.slept > 0

    @pytest.mark.parametrize("item,model,prefetch,speculation,geometry",
                             HOSTILE_LEGS)
    def test_hostile_geometry_legs(self, item, model, prefetch, speculation,
                                   geometry):
        test = generate_litmus(derive_seed(0, item, "fuzz"))
        run_config = next(rc for rc in DEFAULT_RUN_CONFIGS
                          if rc.name == "cold-skewed")
        (job,), (audit_map,) = leg_jobs(
            test, [(model, prefetch, speculation, run_config)])
        _assert_matches_naive(
            job.programs, model, prefetch, speculation,
            memory=job.initial_memory, words=sorted(audit_map.values()),
            cache=CacheConfig(line_size=run_config.line_size, **geometry),
            latencies=LatencyConfig.from_miss_latency(job.miss_latency))

    def test_short_hops_refuse_the_sleep(self, sleeps):
        # at a miss latency of 12 every hop is 4 cycles: no longer than
        # a 5-cycle poll period and a cycle, so an arrival could land
        # before the boundary the core would have to wake at
        wl = MEMBERS["barrier-4x1"]
        for model in ("SC", "RC"):
            _assert_matches_naive(
                wl.programs, model, False, False, memory=wl.initial_memory,
                words=[addr for addr, _ in wl.expectations],
                latencies=LatencyConfig.from_miss_latency(12))
        assert sleeps.slept == 0

    def test_rearmed_machines(self, sleeps):
        wl = MEMBERS["barrier-4x1"]
        jobs = [BatchJob(wl.programs, model, prefetch, speculation,
                         initial_memory=wl.initial_memory)
                for model in ("SC", "RC")
                for prefetch, speculation in TECHNIQUE_COMBOS]
        words = [addr for addr, _ in wl.expectations]
        for job, result in zip(jobs, run_rearmed(jobs)):
            assert result.ok, result.error
            rearmed = (result.cycles,
                       {name: value
                        for name, value in result.stats.snapshot().items()
                        if not name.startswith("host/")},
                       [result.read_word(addr) for addr in words])
            naive = _run(job.programs, job.model_name, job.prefetch,
                         job.speculation, False, memory=job.initial_memory,
                         words=words, cache=job.cache_config(),
                         latencies=LatencyConfig.from_miss_latency(
                             job.miss_latency))
            assert rearmed == naive[:3]
        assert sleeps.slept > 0

    @pytest.mark.parametrize("max_cycles", [300, 333, 450, 1000])
    def test_max_cycles_inside_a_sleep(self, max_cycles, sleeps):
        wl = MEMBERS["barrier-4x1"]
        fast = _assert_matches_naive(
            wl.programs, "RC", False, False, memory=wl.initial_memory,
            words=[addr for addr, _ in wl.expectations],
            max_cycles=max_cycles)
        assert fast[0][0] == "DeadlockError" and fast[0][2] == max_cycles
        # the run's end bounds a sleep as an arrival does
        assert sleeps.slept > 0 and sleeps.cut == 0

    def test_a_wedged_spinner_sleeps_to_max_cycles(self, sleeps):
        # the flag is never set: one sleep carries the core to the end
        spinner = assemble("""
            spin:
                ld.acq r1, 0x80
                beqz   r1, spin !taken
                halt
        """)
        fast = _assert_matches_naive([spinner], "SC", False, False,
                                     max_cycles=20_000)
        assert fast[0][0] == "DeadlockError"
        assert 0 < sleeps.slept <= 2

    @pytest.mark.parametrize("at", [251, 253, 369])
    def test_another_component_raising_inside_a_sleep(self, at, sleeps):
        # a scripted agent sends the directory an INVAL_ACK for no
        # transaction at ``at``: the directory raises when it lands, a
        # hop later, with spinning cores asleep in mid-period
        def stray_ack(machine):
            agent = ScriptedAgent("agent0", machine.sim, machine.fabric.net)
            machine.sim.schedule_at(at, lambda: agent.net.send(Message(
                kind=MessageKind.INVAL_ACK, src=agent.node,
                dst=DIRECTORY_NODE, line_addr=0x10, txn=0)))

        # a run that raises leaves only its books: a core asleep in
        # mid-period counts the partial period, its state stays as it was
        wl = MEMBERS["barrier-4x1"]
        fast = _assert_matches_naive(
            wl.programs, "RC", False, False, memory=wl.initial_memory,
            arm=stray_ack, stamps=False)
        assert fast[0][0] == "ProtocolError"
        assert sleeps.cut > 0, "no core was in mid-period"



# ----------------------------------------------------------------------
# The period key covers every field
# ----------------------------------------------------------------------

def _source(*functions) -> str:
    return "\n".join(inspect.getsource(function) for function in functions)


def _coverage():
    """Each class a spin's period key covers, a live instance of it,
    and the code that keys it or moves it on by whole periods."""
    wl = MEMBERS["barrier-4x1"]
    machine = Multiprocessor(wl.programs, MachineConfig(
        model=get_model("RC"), enable_prefetch=True,
        enable_speculation=True))
    with pytest.raises(DeadlockError):  # stopped with work in flight
        run_machine(machine, wl.initial_memory, (), 300)
    core = max(machine.processors, key=lambda core: len(core.lsu.pending))
    lsu, cache = core.lsu, core.lsu.cache
    watch = core._watch_spin  # keeps the message totals and the events
    op = next(iter(lsu.pending.values()))
    entry = op.rob_entry
    cache_spin = (cache.period_key, cache.shift_period, cache.stamps_since,
                  cache.waiting, cache.merged_since, watch)
    return [
        (core, (core._period_key, core._skip_periods, watch)),
        (core.rob, (core.rob.period_key, core.rob.renumber)),
        (entry, (RobEntry.period_key,)),
        (Operand(value=0), (Operand.period_key,)),
        (next(iter(core.alu_unit.rs.values()), None)
         or RsEntry(entry, [], []), (RsEntry.period_key,)),
        (core.alu_unit, (AluUnit.period_key, AluUnit.renumber,
                         _Station.period_key, _Station.renumber)),
        (core.branch_unit, (_Station.period_key, _Station.renumber)),
        (lsu, (lsu.period_key, lsu.renumber, lsu.live_requests)),
        (op, (MemOp.period_key,)),
        (lsu.slb, (lsu.slb.period_key, lsu.slb.renumber)),
        (SlbEntry(seq=0, addr=0, line_addr=0, acq=False),
         (SlbEntry.period_key,)),
        (lsu.prefetcher, ()),
        (core.predictor, (core.predictor.period_key,)),
        (core.accountant, (core.accountant.period_key,)),
        (cache, cache_spin),
        (CacheLine(line_addr=0, state=LineState.SHARED, data=[]), cache_spin),
        (MshrEntry(line_addr=0, exclusive=False, prefetch_only=False),
         cache_spin),
    ]


def _fields(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name for f in dataclasses.fields(obj)}
    slots = {name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ())}
    return slots | set(getattr(obj, "__dict__", {}))


class TestPeriodKeyCoverage:
    """Two states whose period keys are equal must be the same state up
    to numbering and clocks, so every field of every class the key
    covers is either read by the code that keys it (or moves it on by
    whole periods), or declared fixed for the run in its class's
    ``PERIOD_FIXED``.  A field added later fails here until it is one
    or the other."""

    @pytest.mark.parametrize("index", range(17))
    def test_every_field_is_keyed_or_fixed(self, index):
        obj, code = _coverage()[index]
        fixed = getattr(type(obj), "PERIOD_FIXED", frozenset())
        read = set(re.findall(r"\.(\w+)", _source(*code))) if code else set()
        fields = _fields(obj)
        assert fixed <= fields, f"fixed but no field: {sorted(fixed - fields)}"
        unkeyed = sorted(name for name in fields - fixed if name not in read)
        assert not unkeyed, (
            f"{type(obj).__name__}: neither keyed nor fixed: {unkeyed}")

    def test_the_list_is_complete(self):
        assert len(_coverage()) == 17
