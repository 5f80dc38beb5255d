"""Unit tests for the simulation kernel (events, clock, stats, traces)."""

import pytest

from repro.sim import (
    Component,
    DeadlockError,
    EventQueue,
    Simulator,
    StatsRegistry,
    TraceRecorder,
    format_stats_table,
)
from repro.sim.errors import ConfigurationError
from repro.sim.trace import source_cpu
from tests.test_kernel_fastpath import _Sleeper, _TimedWaker


class TickCounter(Component):
    name = "tick-counter"

    def __init__(self, busy_until: int = 0) -> None:
        self.ticks = 0
        self.busy_until = busy_until

    def tick(self, cycle: int) -> None:
        self.ticks += 1

    def is_quiescent(self) -> bool:
        return self.ticks >= self.busy_until


class TestEventQueue:
    def test_events_fire_in_cycle_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5, lambda: fired.append(5))
        q.schedule(2, lambda: fired.append(2))
        q.schedule(9, lambda: fired.append(9))
        q.run_due(10)
        assert fired == [2, 5, 9]

    def test_same_cycle_events_fire_in_schedule_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(3, lambda i=i: fired.append(i))
        q.run_due(3)
        assert fired == list(range(10))

    def test_event_scheduled_during_sweep_same_cycle_fires(self):
        q = EventQueue()
        fired = []

        def outer():
            fired.append("outer")
            q.schedule(1, lambda: fired.append("inner"))

        q.schedule(1, outer)
        q.run_due(1)
        assert fired == ["outer", "inner"]

    def test_negative_cycle_rejected(self):
        q = EventQueue()
        with pytest.raises(ConfigurationError):
            q.schedule(-1, lambda: None)

    def test_schedule_before_pop_horizon_rejected(self):
        q = EventQueue()
        q.schedule(5, lambda: None)
        q.run_due(5)
        with pytest.raises(ConfigurationError):
            q.schedule(4, lambda: None)

    def test_schedule_at_pop_horizon_allowed(self):
        # same-cycle scheduling during a sweep is legal (zero-latency
        # responses) and the new event still fires
        q = EventQueue()
        fired = []
        q.schedule(3, lambda: q.schedule(3, lambda: fired.append("chained")))
        q.run_due(3)
        assert fired == ["chained"]
        q.schedule(3, lambda: None)
        assert q.next_cycle() == 3

    def test_len_is_live_count_across_pops_and_cancels(self):
        q = EventQueue()
        for c in (1, 2, 3, 4):
            q.schedule(c, lambda: None)
        assert len(q) == 4
        q.run_due(2)
        assert len(q) == 2
        q.run_due(10)
        assert len(q) == 0


class TestSimulator:
    def test_step_advances_clock_and_ticks_components(self):
        sim = Simulator()
        c = TickCounter()
        sim.register(c)
        sim.step()
        sim.step()
        assert sim.cycle == 2
        assert c.ticks == 2

    def test_run_until_condition(self):
        sim = Simulator()
        c = TickCounter(busy_until=7)
        sim.register(c)
        final = sim.run(until=lambda: c.ticks >= 7)
        assert final == 7

    def test_run_raises_deadlock_at_max_cycles(self):
        sim = Simulator()
        c = TickCounter(busy_until=10**9)
        sim.register(c)
        with pytest.raises(DeadlockError):
            sim.run(until=lambda: False, max_cycles=50)

    def test_run_detects_quiescent_deadlock_early(self):
        sim = Simulator()
        sim.register(TickCounter(busy_until=0))  # immediately quiescent
        with pytest.raises(DeadlockError) as exc:
            sim.run(until=lambda: False, max_cycles=10**6)
        assert exc.value.cycle < 10

    def test_schedule_relative_delay(self):
        sim = Simulator()
        hits = []
        sim.schedule(3, lambda: hits.append(sim.cycle))
        for _ in range(5):
            sim.step()
        assert hits == [3]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.step()
        sim.step()
        with pytest.raises(ValueError):
            sim.schedule_at(1, lambda: None)

    def test_trace_hook_called_every_cycle(self):
        # the per-cycle hook is a registered component that never asks
        # to sleep (the default next_wake): run() shows it every cycle,
        # also the ones its neighbour sleeps through
        class Observer(Component):
            def __init__(self):
                self.cycles = []

            def tick(self, cycle):
                self.cycles.append(cycle)

        sim = Simulator()
        sleeper, observer = _Sleeper(), Observer()
        sim.register(sleeper)
        sim.register(observer)
        sim.schedule(10, lambda: None)
        sim.run(until=lambda: sim.events.next_cycle() is None,
                max_cycles=100, deadlock_check=False)
        assert observer.cycles == list(range(1, 11))
        assert sleeper.ticks < 10

    def test_profiling_does_not_shadow_step(self):
        # one step loop: the profiler is consulted, not swapped in
        sim = Simulator()
        sim.enable_profiling()
        assert "step" not in vars(sim)
        c = TickCounter()
        sim.register(c)
        sim.step()
        assert (sim.cycle, c.ticks, sim.profiler.ticks) == (1, 1, 1)
        assert sim.profiler.component_ticks == {"TickCounter": 1}

    def test_raise_inside_a_profiled_tick_spares_the_components_after_it(
            self):
        # registration order: a sleeper, the one that raises, a sleeper
        books = []
        for profile in (False, True):
            sim = Simulator(profile=profile)
            first, bomb, last = _Sleeper(), _TimedWaker(wake_at=10), _Sleeper()
            bomb.on_tick = lambda cycle: cycle == 10 and 1 // 0
            for component in (first, bomb, last):
                sim.register(component)
            with pytest.raises(ZeroDivisionError):
                sim.run(until=lambda: False, max_cycles=100,
                        deadlock_check=False)
            books.append((sim.cycle, first.ticks + first.skipped,
                          last.ticks + last.skipped))
        # `first` was ticked at cycle 10, nobody got to `last`
        assert books[0] == books[1] == (10, 10, 9)


class TestStats:
    def test_counter_baslevel(self):
        reg = StatsRegistry()
        reg.counter("cpu0/loads").inc()
        reg.counter("cpu0/loads").inc(4)
        assert reg.counter("cpu0/loads").value == 5

    def test_histogram_mean_min_max(self):
        reg = StatsRegistry()
        h = reg.histogram("lat")
        for v in [1, 100, 100, 1]:
            h.add(v)
        assert h.count == 4
        assert h.mean == pytest.approx(50.5)
        assert (h.min, h.max) == (1, 100)

    def test_histogram_percentile(self):
        h = StatsRegistry().histogram("p")
        for v in range(1, 101):
            h.add(v)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100
        assert 49 <= h.percentile(50) <= 51

    def test_histogram_percentile_rejects_out_of_range(self):
        h = StatsRegistry().histogram("p")
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_snapshot_contains_counters_and_histograms(self):
        reg = StatsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("h").add(10)
        snap = reg.snapshot()
        assert snap["a"] == 2
        assert snap["h/count"] == 1
        assert snap["h/mean"] == 10

    def test_merge_from_accumulates(self):
        a, b = StatsRegistry(), StatsRegistry()
        a.counter("x").inc(1)
        b.counter("x").inc(2)
        b.histogram("h").add(5)
        a.merge_from(b)
        assert a.counter("x").value == 3
        assert a.histogram("h").count == 1

    def test_counters_prefix_filter(self):
        reg = StatsRegistry()
        reg.counter("cpu0/loads").inc()
        reg.counter("cpu1/loads").inc()
        assert list(reg.counters("cpu0/")) == ["cpu0/loads"]

    def test_format_stats_table_renders(self):
        text = format_stats_table({"alpha": 1, "beta": 22}, title="T")
        assert "alpha" in text and "22" in text and "T" in text

    def test_format_stats_table_empty(self):
        assert "(no statistics)" in format_stats_table({})


class TestTraceRecorder:
    def test_record_and_filter(self):
        tr = TraceRecorder()
        tr.record(1, "lsu", "issue", tag="ld A")
        tr.record(2, "slb", "squash", tag="ld D")
        assert len(tr.events) == 2
        assert [e.kind for e in tr.of_kind("squash")] == ["squash"]
        assert tr.first("issue").detail["tag"] == "ld A"

    def test_disabled_recorder_records_nothing(self):
        tr = TraceRecorder(enabled=False)
        tr.record(1, "x", "y")
        assert tr.events == []

    def test_render_mentions_cycle_and_kind(self):
        tr = TraceRecorder()
        tr.record(7, "cache", "inval", line=0x40)
        assert "7" in tr.render() and "inval" in tr.render()


@pytest.mark.parametrize("source, cpu", [
    ("cpu3", 3), ("cpu3/lsu", 3), ("cache3", 3),
    ("dir", None), ("net", None), ("agent0", None), ("cpux", None),
])
def test_cpu_named_by_a_trace_source(source, cpu):
    # the one parser the archtrace projection, the trace sanitizer and
    # the Perfetto exporter share
    assert source_cpu(source) == cpu
