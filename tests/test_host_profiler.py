"""The kernel's host-side self-profiler (`repro.sim.profiler`).

Two invariants matter: profiling OFF changes nothing (the default step
path is untouched, no host counters appear), and profiling ON measures
a total-and-exclusive attribution (per-component shares sum to ~100%)
without perturbing any simulated result.
"""

import pytest

from repro.consistency import SC
from repro.sim import Component, HostProfiler, Simulator
from repro.sim.profiler import HOST_PREFIX
from repro.system import run_workload
from repro.workloads import example1_program, example2_program


def _example1(profile=False):
    wl = example1_program()
    return run_workload([wl.program], model=SC,
                        initial_memory=wl.initial_memory,
                        warm_lines=wl.warm_lines, profile=profile)


class Spinner(Component):
    name = "spinner"

    def __init__(self, limit):
        self.count = 0
        self.limit = limit

    def tick(self, cycle):
        self.count += 1

    def done(self):
        return self.count >= self.limit

    def is_quiescent(self):
        return False


class TestProfilingOff:
    def test_no_profiler_by_default(self):
        assert Simulator().profiler is None

    def test_no_host_counters_without_profiling(self):
        result = _example1(profile=False)
        assert not any(k.startswith("host/")
                       for k in result.stats.snapshot())

    def test_off_and_on_agree_on_everything_simulated(self):
        off = _example1(profile=False)
        on = _example1(profile=True)
        assert on.cycles == off.cycles
        guest_on = {k: v for k, v in on.stats.snapshot().items()
                    if not k.startswith("host/")}
        assert guest_on == dict(off.stats.snapshot())


class TestProfilingOn:
    def test_shares_sum_to_one(self):
        result = _example1(profile=True)
        profiler = result.machine.sim.profiler
        shares = profiler.shares()
        assert shares  # at least one component class measured
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= s <= 1.0 for s in shares.values())

    def test_gauges_exported_through_stats(self):
        result = _example1(profile=True)
        snapshot = result.stats.snapshot()
        assert snapshot[HOST_PREFIX + "cycles"] == result.cycles
        assert snapshot[HOST_PREFIX + "wall_ns"] > 0
        assert snapshot[HOST_PREFIX + "cycles_per_sec"] > 0
        assert snapshot[HOST_PREFIX + "tick_ns/Processor"] > 0

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_tick_count_per_component_class(self, fast_forward):
        # a kernel step is one tick of every core on the naive path and
        # of the cores that are due with per-core sleep
        from repro.workloads import critical_section_workload
        wl = critical_section_workload(num_cpus=2, iterations=2,
                                       shared_counters=3, private=True)
        result = run_workload(wl.programs, model=SC,
                              initial_memory=wl.initial_memory,
                              profile=True, fast_forward=fast_forward)
        snapshot = result.stats.snapshot()
        made = snapshot[HOST_PREFIX + "tick_count/Processor"]
        every = 2 * snapshot[HOST_PREFIX + "ticks"]
        row = result.machine.sim.profiler.summary()[
            "component_ticks"]["Processor"]
        assert row["ticks"] == made
        assert row["mean_us"] > 0
        text = result.machine.sim.profiler.render()
        assert f"{made} ticks" in text and "us/tick" in text
        if fast_forward:
            assert 0 < made < every
            assert row["slept_share"] == pytest.approx(1 - made / every,
                                                       abs=1e-4)
        else:
            assert made == every
            assert row["slept_share"] == 0.0

    def test_export_is_idempotent_across_runs(self):
        # a Simulator can be run() repeatedly; gauges must be set, not
        # accumulated, so the last export wins instead of double-counting
        sim = Simulator(profile=True)
        spinner = Spinner(10)
        sim.register(spinner)
        sim.run(until=spinner.done)
        first = sim.stats.counter(HOST_PREFIX + "cycles").value
        spinner.limit = 20
        sim.run(until=spinner.done)
        assert first == 10
        assert sim.stats.counter(HOST_PREFIX + "cycles").value == 20

    def test_enable_profiling_idempotent(self):
        sim = Simulator()
        p1 = sim.enable_profiling()
        p2 = sim.enable_profiling()
        assert p1 is p2

    def test_custom_profiler_accepted(self):
        profiler = HostProfiler()
        sim = Simulator(profile=profiler)
        assert sim.profiler is profiler

    def test_summary_and_render(self):
        result = _example1(profile=True)
        profiler = result.machine.sim.profiler
        summary = profiler.summary(result.stats)
        assert summary["cycles"] == result.cycles
        assert summary["wall_seconds"] > 0
        assert summary["instructions_retired"] > 0
        text = profiler.render(result.stats)
        assert "host profile" in text
        assert "Processor" in text


class TestHeartbeat:
    def test_heartbeat_fires_at_interval(self):
        beats = []
        profiler = HostProfiler(heartbeat=beats.append, heartbeat_cycles=10)
        sim = Simulator(profile=profiler)
        spinner = Spinner(35)
        sim.register(spinner)
        sim.run(until=spinner.done)
        assert [hb.cycle for hb in beats] == [10, 20, 30]
        for hb in beats:
            assert hb.wall_seconds >= 0.0
            assert hb.cycles_per_second >= 0.0
            assert hb.event_queue_depth == 0
            assert "cycle" in hb.describe()

    def test_heartbeat_counts_simulated_cycles_not_stepped_ticks(self):
        # example2/SC is 309 cycles of which fast-forward steps ~25: the
        # interval is in simulated cycles, so six 50-cycle marks are
        # crossed, each beat landing on the first stepped cycle past one
        beats = []
        wl = example2_program()
        result = run_workload(
            [wl.program], model=SC, initial_memory=wl.initial_memory,
            warm_lines=wl.warm_lines,
            profile=HostProfiler(heartbeat=beats.append, heartbeat_cycles=50))
        snap = result.stats.snapshot()
        assert snap[HOST_PREFIX + "ticks"] < 50 < result.cycles
        marks = [hb.cycle // 50 for hb in beats]
        assert marks == sorted(set(marks)), "at most one beat per mark"
        assert marks[0] == 1 and marks[-1] == result.cycles // 50
        assert len(beats) >= 3

    def test_fast_forward_jump_over_several_marks_beats_once(self):
        beats = []
        sim = Simulator(profile=HostProfiler(heartbeat=beats.append,
                                             heartbeat_cycles=10))
        fired = []
        sim.schedule(35, lambda: fired.append(sim.cycle))
        sim.run(until=lambda: bool(fired))
        assert [hb.cycle for hb in beats] == [35]

    def test_bad_heartbeat_interval_rejected(self):
        with pytest.raises(ValueError):
            HostProfiler(heartbeat_cycles=0)
