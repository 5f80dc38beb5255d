"""Wake lists and decode once.

A station entry waits on its producers' ``waiters`` and joins its
unit's oldest-first ``ready`` list when the last of them is marked
done; issue pops that list instead of scanning the station.  These
tests hold the wake lists to the rule they replaced — at every issue,
the entries a scan of the station would pick, oldest first, are
exactly the ready list — and pin what the change buys without reading
a clock: resolve and decode counts per job, and the memory a long
start skew costs to build.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from repro.consistency.models import get_model
from repro.cpu import decode, rob, units
from repro.cpu.decode import RMW
from repro.cpu.processor import Processor
from repro.cpu.units import AluUnit, BranchUnit
from repro.serve.executors import execute_job
from repro.serve.protocol import MAX_JOB_CYCLES, normalize_job, resolve_test
from repro.system import jobs
from repro.system.jobs import run_scalar
from repro.system.machine import MachineConfig, Multiprocessor, run_workload
from repro.verify.generator import GeneratorConfig, generate_litmus
from repro.verify.harness import (DEFAULT_RUN_CONFIGS, MODEL_NAMES,
                                  TECHNIQUE_COMBOS, RunConfig, leg_jobs)
from repro.workloads import (barrier_workload, critical_section_workload,
                             false_sharing_workload, grid_relaxation_workload,
                             work_queue_workload)

#: the guest_apps members at scale 1
GUESTS = [
    barrier_workload(4, phases=1),
    grid_relaxation_workload(4, 4, 1),
    work_queue_workload(3, 4),
    false_sharing_workload(4, updates=24),
    critical_section_workload(2, iterations=5, shared_counters=3,
                              private=True),
]

LEGS = [(model, prefetch, speculation, run_config)
        for model in MODEL_NAMES
        for prefetch, speculation in TECHNIQUE_COMBOS
        for run_config in DEFAULT_RUN_CONFIGS]


def scan(station):
    """The reference issue rule: every entry of the station whose
    operands all resolve now, oldest first."""
    return [r for r in sorted(station.rs.values(), key=lambda r: r.entry.seq)
            if all(op.resolve() is not None for op in r.operands)]


@pytest.fixture
def checked(monkeypatch):
    """Check the ready list against :func:`scan` wherever a unit
    issues and wherever a core starts a tick; count the checks."""
    checks = Counter()

    def check(station, where):
        assert station.ready == scan(station), where
        checks[where] += 1

    alu_issue = AluUnit._issue_ready
    branch_tick = BranchUnit.tick
    proc_tick = Processor.tick

    def issue_ready(self, cycle):
        check(self, "alu issue")
        return alu_issue(self, cycle)

    def resolve_branch(self, cycle):
        check(self, "branch issue")
        return branch_tick(self, cycle)

    def tick(self, cycle):
        check(self.alu_unit, "tick")
        check(self.branch_unit, "tick")
        return proc_tick(self, cycle)

    monkeypatch.setattr(AluUnit, "_issue_ready", issue_ready)
    monkeypatch.setattr(BranchUnit, "tick", resolve_branch)
    monkeypatch.setattr(Processor, "tick", tick)
    return checks


class TestReadyListIsTheScan:
    @pytest.mark.parametrize("guest", GUESTS, ids=lambda wl: wl.name)
    def test_guest_apps(self, checked, guest):
        for model in ("SC", "RC"):
            for on in (False, True):
                result = run_workload(
                    guest.programs, model=get_model(model), prefetch=on,
                    speculation=on, initial_memory=guest.initial_memory)
                for addr, expected in guest.expectations:
                    assert result.machine.read_word(addr) == expected
        assert checked["alu issue"] and checked["tick"]

    def test_generated_tests_every_leg(self, checked):
        for seed in range(8):
            test = generate_litmus(seed, GeneratorConfig())
            jobs, _audit = leg_jobs(test, LEGS)
            assert len(jobs) == 64
            for job in jobs:
                run_scalar(job).raise_if_error()
        assert checked["alu issue"]


class TestCorrectedRmw:
    def test_redecoded_consumer_wakes_once_with_the_atomics_value(
            self, monkeypatch):
        """A lock RMW under speculation is marked done with the value
        its speculative read bound; when a coherence event shows that
        value may be stale, the correction un-does the entry and
        squashes everything younger (SQUASH_AFTER).  A consumer
        decoded again after that waits on the same entry, is woken
        once — by the atomic's own result — and reads that result."""
        enqueued = Counter()
        #: station entry -> its RMW producer, for the consumers
        #: dispatched while a once-done RMW was un-done
        redecoded = {}
        #: station entry -> operand values read at issue
        issued = {}
        marked = set()

        real_enqueue = units._enqueue

        def enqueue(queue, item):
            enqueued[item] += 1
            real_enqueue(queue, item)

        real_mark_done = rob.ReorderBuffer.mark_done

        def mark_done(self, seq, value=None):
            entry = self.get(seq)
            if entry is not None:
                marked.add(entry)
            real_mark_done(self, seq, value)

        real_init = units.RsEntry.__init__

        def init(self, entry, operands, ready):
            for op in operands:
                producer = op.producer
                if (producer is not None and producer.row.kind == RMW
                        and producer in marked and not producer.done):
                    redecoded[self] = producer
            real_init(self, entry, operands, ready)

        real_issue = units._Station._issue

        def issue(self, rs_entry):
            values = real_issue(self, rs_entry)
            issued[rs_entry] = values
            return values

        monkeypatch.setattr(units, "_enqueue", enqueue)
        monkeypatch.setattr(rob.ReorderBuffer, "mark_done", mark_done)
        monkeypatch.setattr(units.RsEntry, "__init__", init)
        monkeypatch.setattr(units._Station, "_issue", issue)

        guest = work_queue_workload(3, 4)
        result = run_workload(guest.programs, model=get_model("SC"),
                              prefetch=True, speculation=True,
                              initial_memory=guest.initial_memory)
        squashes = sum(
            value for name, value in result.stats.counters().items()
            if name.endswith("squash_reason/computation_after_RMW_violated"))
        assert squashes, "the guest no longer corrects a speculative RMW"
        woken = [r for r in redecoded if r in issued]
        assert woken, "no consumer waited on a corrected RMW"
        for rs_entry in woken:
            assert enqueued[rs_entry] == 1
            producer = redecoded[rs_entry]
            read = {value for op, value
                    in zip(rs_entry.operands, issued[rs_entry])
                    if op.producer is producer}
            assert read == {producer.value}
        # and no station entry anywhere was woken twice
        assert max(enqueued.values()) == 1


def _job(skew):
    return normalize_job({"test": {"name": "SB"},
                          "run_config": {"skew": skew}})


class TestCountGuards:
    def test_a_served_job_resolves_and_decodes_little(self, monkeypatch):
        calls = Counter()
        programs = []

        real_resolve = rob.Operand.resolve

        def resolve(self):
            calls["resolve"] += 1
            return real_resolve(self)

        real_decode = decode._decode

        def _decode(program, instr):
            calls["decode"] += 1
            if not any(p is program for p in programs):
                programs.append(program)
            return real_decode(program, instr)

        # retirements are read from the job's counters
        results = []

        def capture(job):
            results.append(run_scalar(job))
            return results[-1]

        monkeypatch.setattr(rob.Operand, "resolve", resolve)
        monkeypatch.setattr(decode, "_decode", _decode)
        monkeypatch.setattr(jobs, "run_scalar", capture)
        execute_job(_job([0, 400]))
        (result,) = results
        retired = sum(value for name, value in result.stats.snapshot().items()
                      if name.endswith("/instructions_retired"))
        distinct = len({id(instr) for program in programs
                        for instr in program.instructions})
        # an entry's operands are resolved when it issues, not each
        # cycle it waits: a few times per retired instruction (a store
        # resolves its base and its data), however long the run
        assert retired > 0
        assert calls["resolve"] <= 3 * retired
        assert 0 < calls["decode"] <= distinct

    def test_a_long_skew_costs_no_ticks(self, monkeypatch):
        # a start skew of d cycles is a core's start cycle, which it
        # sleeps to: the long skew ticks the cores as often as the short
        # one
        ticks = []
        real_tick = Processor.tick

        def tick(self, cycle):
            ticks[-1] += 1
            return real_tick(self, cycle)

        monkeypatch.setattr(Processor, "tick", tick)
        for skew in (400, 100_000):
            ticks.append(0)
            execute_job(_job([0, skew]))
        short, long = ticks
        assert long == short <= 100

    def test_a_barrier_spin_costs_few_ticks(self, monkeypatch):
        # a poll of the barrier is a mispredict and a rollback every
        # five cycles; a core in that steady spin sleeps through whole
        # periods of it (spin sleep).  4 313 core ticks without it.
        ticks = [0]
        real_tick = Processor.tick

        def tick(self, cycle):
            ticks[0] += 1
            return real_tick(self, cycle)

        monkeypatch.setattr(Processor, "tick", tick)
        wl = barrier_workload(4, phases=2)
        run_workload(wl.programs, model=get_model("RC"),
                     initial_memory=wl.initial_memory)
        assert ticks[0] <= 0.4 * 4313

    def test_a_long_skew_builds_small(self):
        # a skew is a start cycle, not a program: the largest one a job
        # may ask for builds the programs of no skew at all
        lengths = []
        for skew in ([0, 0], [0, MAX_JOB_CYCLES]):
            spec = normalize_job({"test": {"name": "SB"}, "run_config": {
                "skew": skew, "max_cycles": MAX_JOB_CYCLES}})
            tracemalloc.start()
            try:
                (job,), _audit = leg_jobs(
                    resolve_test(spec["test"]),
                    [("SC", False, False,
                      RunConfig.from_spec(spec["run_config"]))])
                machine = Multiprocessor(job.programs,
                                         MachineConfig(model=get_model("SC")),
                                         starts=job.starts)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert machine.processors[1].start == skew[1]
            assert peak < 2 ** 20
            lengths.append([len(program) for program in job.programs])
        assert lengths[0] == lengths[1]
