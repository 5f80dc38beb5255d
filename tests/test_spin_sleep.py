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
from pathlib import Path

import pytest

import repro.coherence.directory
import repro.core.prefetch
import repro.core.speculation
import repro.cpu.branch
import repro.cpu.lsu
import repro.cpu.processor
import repro.cpu.rob
import repro.cpu.units
import repro.memory.cache
import repro.memory.interconnect
import repro.obs.accounting
from repro.coherence.messages import DIRECTORY_NODE, Message, MessageKind
from repro.consistency.models import get_model
from repro.core.speculation import SlbEntry
from repro.cpu.processor import Processor
from repro.cpu.units import Executing, RsEntry, _Station
from repro.isa.assembler import assemble
from repro.memory.cache import CacheLine, MshrEntry
from repro.memory.types import CacheConfig, LatencyConfig, LineState
from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.state import (Fixed, Lru, Numbering, Part, Records, Watched,
                             period_key)
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

def _coverage():
    """A live instance of each class whose run state is declared, from
    a machine stopped with work in flight, and the numbering its core's
    period key would count in there."""
    wl = MEMBERS["barrier-4x1"]
    machine = Multiprocessor(wl.programs, MachineConfig(
        model=get_model("RC"), enable_prefetch=True,
        enable_speculation=True))
    with pytest.raises(DeadlockError):  # stopped with work in flight
        run_machine(machine, wl.initial_memory, (), 300)
    core = max(machine.processors, key=lambda core: len(core.lsu.pending))
    lsu, cache = core.lsu, core.lsu.cache
    op = next(iter(lsu.pending.values()))
    entry = op.rob_entry
    num = Numbering(core._next_seq, lsu.next_req_id, core._next_seq - 10,
                    machine.sim.cycle, core.rob.live, lsu.live_requests())
    objects = [
        core, core.rob, entry, op.base,
        next(iter(core.alu_unit.rs.values()), None)
        or RsEntry(entry, [], []),
        next(iter(core.alu_unit._executing), None)
        or Executing(machine.sim.cycle + 1, entry, [0]),
        core.alu_unit, core.branch_unit, lsu, op, lsu.slb,
        next(iter(lsu.slb.entries()), None)
        or SlbEntry(seq=entry.seq, addr=0, line_addr=0, acq=False,
                    row=entry.row),
        lsu.prefetcher, core.predictor, core.accountant, cache,
        CacheLine(line_addr=0, state=LineState.SHARED, data=[0]),
        next(iter(cache.mshrs.values()), None)
        or MshrEntry(line_addr=0, exclusive=False, prefetch_only=False),
        machine.fabric.directory, machine.fabric.net,
    ]
    return objects, num


def _fields(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name for f in dataclasses.fields(obj)}
    slots = {name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ())}
    return slots | set(getattr(obj, "__dict__", {}))


class _Read(Exception):
    """A period key touched a value it was handed."""


class _Other:
    """A value no field held: unequal to everything, an empty part,
    and any other use of it raises :class:`_Read`."""

    STATE: dict = {}

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    __hash__ = object.__hash__

    def __getattr__(self, name):
        raise _Read(name)

    def _read(self, *args):
        raise _Read()

    __iter__ = __len__ = __bool__ = __index__ = _read
    __lt__ = __le__ = __gt__ = __ge__ = _read
    __add__ = __radd__ = __sub__ = __rsub__ = _read


def _key_changes(obj, name, num) -> bool:
    """The period key of ``obj`` changes when field ``name`` does (a key
    that touches the new value in any way but comparing it reads it)."""
    kind = type(obj).STATE[name]
    before = period_key(obj, num)
    old = getattr(obj, name)
    setattr(obj, name,
            None if isinstance(kind, Part) and old is not None else _Other())
    try:
        return period_key(obj, num) != before
    except _Read:
        return True
    finally:
        setattr(obj, name, old)


#: the kinds a period key leaves out: wiring, what the spin watch
#: compares itself, and LRU stamps (their set's order is keyed)
UNKEYED = (Fixed, Watched, Lru)

#: every module that declares run state
DECLARING = (repro.cpu.processor, repro.cpu.rob, repro.cpu.units,
             repro.cpu.lsu, repro.cpu.branch, repro.core.speculation,
             repro.core.prefetch, repro.obs.accounting, repro.memory.cache,
             repro.memory.interconnect, repro.coherence.directory)


def _declared_objects(obj, into):
    """``obj`` and every part and record it holds, by identity."""
    if id(obj) in into or not hasattr(type(obj), "STATE"):
        return into
    into[id(obj)] = obj
    for name, kind in type(obj).STATE.items():
        value = getattr(obj, name)
        if isinstance(kind, Part):
            _declared_objects(value, into)
        elif isinstance(kind, Records):
            for held in value.values() if isinstance(value, dict) else value:
                for inner in held if isinstance(held, list) else (held,):
                    _declared_objects(inner, into)
    return into


class TestPeriodKeyCoverage:
    """Two states whose period keys are equal must be the same state up
    to numbering and clocks.  So each class declares every field it has
    (``STATE``), and the key reads every field of a keyed kind."""

    @pytest.mark.parametrize("index", range(20))
    def test_every_field_is_keyed_or_fixed(self, index):
        # every field declared, with a kind that keys it or leaves it out
        objects, _num = _coverage()
        obj = objects[index]
        assert _fields(obj) == set(type(obj).STATE), type(obj).__name__

    @pytest.mark.parametrize("index", range(20))
    def test_the_key_changes_with_every_keyed_field(self, index):
        objects, num = _coverage()
        obj = objects[index]
        dropped = sorted(
            name for name, kind in type(obj).STATE.items()
            if not isinstance(kind, UNKEYED)
            and not _key_changes(obj, name, num))
        assert not dropped, f"{type(obj).__name__}: not keyed: {dropped}"

    def test_a_fixed_field_holds_all_run(self):
        # a field declared fixed is left out of the key: it must be the
        # same object for as long as its component or record exists —
        # checked every cycle of a stretch with stores retiring
        wl = MEMBERS["critical-section-private-2x5"]
        machine = Multiprocessor(wl.programs, MachineConfig(
            model=get_model("RC"), enable_prefetch=True,
            enable_speculation=True))
        first = {}
        changed = set()
        for max_cycles in range(50, 150):
            with pytest.raises(DeadlockError):
                if first:
                    machine.run(max_cycles=max_cycles)
                else:
                    run_machine(machine, wl.initial_memory, (), max_cycles)
            objects = {}
            for root in (*machine.processors, machine.fabric.directory,
                         machine.fabric.net):
                _declared_objects(root, objects)
            for key, obj in objects.items():
                fixed = {name: getattr(obj, name) for name, kind
                         in type(obj).STATE.items() if type(kind) is Fixed}
                was, before = first.setdefault(key, (obj, fixed))
                if was is obj:
                    changed |= {f"{type(obj).__name__}.{name}"
                                for name, value in fixed.items()
                                if value is not before[name]}
        assert len(first) > 100
        assert not changed, sorted(changed)

    def test_the_list_is_complete(self):
        objects, _num = _coverage()
        declaring = {cls for module in DECLARING
                     for cls in vars(module).values()
                     if isinstance(cls, type) and "STATE" in vars(cls)}
        # the stations' common part is declared once, for both
        assert {type(obj) for obj in objects} == declaring - {_Station}
