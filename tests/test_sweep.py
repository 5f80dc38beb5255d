"""The campaign map (`repro.sim.sweep`)."""

import io

import pytest

from repro.sim.errors import ConfigurationError
from repro.sim.sweep import (
    ProgressMeter,
    SweepError,
    SweepResult,
    derive_seed,
    format_duration,
    run_sweep,
)


def square(x):
    return x * x


def boom_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


class Tty(io.StringIO):
    def isatty(self):
        return True


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(42, 7, "fuzz") == derive_seed(42, 7, "fuzz")

    def test_distinct_across_indices_and_masters(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_stream_label_separates(self):
        assert derive_seed(5, 5) != derive_seed(5, 5, "other")

    def test_nonnegative_63_bit(self):
        for i in range(100):
            s = derive_seed(123, i)
            assert 0 <= s < 2 ** 63

    def test_known_value_pinned(self):
        # replay files store derived seeds; the derivation must never change
        assert derive_seed(0, 0) == 2238038255748445540


class TestSerialSweep:
    def test_results_in_item_order(self):
        res = run_sweep(square, list(range(17)), jobs=1)
        assert res.results == [i * i for i in range(17)]
        assert res.jobs == 1

    def test_empty_items(self):
        res = run_sweep(square, [], jobs=1)
        assert res.results == []

    def test_serial_takes_a_closure_and_unpicklable_items(self):
        # jobs=1 is worker(item) in this process: nothing is pickled
        # (the benchmark's traced pass hands run_sweep a closure)
        offset = 3
        items = [lambda: 1, lambda: 2]
        res = run_sweep(lambda f: f() + offset, items, jobs=1)
        assert res.results == [4, 5]

    def test_one_item_runs_in_process_whatever_jobs(self):
        res = run_sweep(lambda x: x + 1, [1], jobs=4)
        assert res.results == [2] and res.jobs == 1

    def test_progress_callback_monotone_and_complete(self):
        seen = []
        run_sweep(square, list(range(4)), jobs=1,
                  telemetry=lambda done, total, _s: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_error_recorded_on_request(self):
        res = run_sweep(boom_on_three, [1, 2, 3, 4], jobs=1)
        assert res.results[0:2] == [1, 2]
        assert isinstance(res.results[2], SweepError)
        assert res.results[2].item_index == 2
        assert res.results[3] == 4
        assert len(res.errors) == 1

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(square, [1], jobs=0)
        with pytest.raises(ConfigurationError):
            run_sweep(None, [1, 2])

    def test_describe_mentions_throughput(self):
        res = run_sweep(square, list(range(4)), jobs=1)
        assert "4 item(s)" in res.describe()


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        items = list(range(23))
        serial = run_sweep(square, items, jobs=1)
        parallel = run_sweep(square, items, jobs=2)
        assert parallel.results == serial.results
        assert parallel.jobs == 2

    def test_parallel_records_errors(self):
        res = run_sweep(boom_on_three, [3, 5], jobs=2)
        assert isinstance(res.results[0], SweepError)
        assert "three" in res.results[0].describe()
        assert res.results[0].item_index == 0
        assert res.results[1] == 5


class TestRateGuards:
    def _result(self, elapsed):
        return SweepResult(results=[1, 2, 3], elapsed_seconds=elapsed,
                           jobs=1)

    def test_items_per_second_zero_elapsed(self):
        assert self._result(0.0).items_per_second == 0.0

    def test_items_per_second_negative_elapsed(self):
        assert self._result(-1.0).items_per_second == 0.0

    def test_items_per_second_near_zero_elapsed(self):
        # sub-nanosecond elapsed must not report a 10^12/s rate
        assert self._result(1e-12).items_per_second == 0.0

    def test_items_per_second_normal(self):
        assert self._result(1.5).items_per_second == pytest.approx(2.0)

    def test_progress_eta_guards(self):
        # no time elapsed yet: no rate, so an unknown ETA — not a division
        stream = Tty()
        ProgressMeter(label="demo", stream=stream)(1, 10, 0.0)
        assert stream.getvalue() == "\r  demo: 1/10 (10%) 0.0/s eta ? in 0s"

    def test_format_duration(self):
        assert format_duration(None) == "?"
        assert format_duration(-3.0) == "0s"
        assert format_duration(42.4) == "42s"
        assert format_duration(83) == "1m23s"
        assert format_duration(3 * 3600 + 5 * 60) == "3h05m"


class TestTelemetry:
    def test_samples_cover_run_and_carry_eta(self):
        # the observer's samples are what an ETA is derived from: items
        # done, items in all, seconds elapsed since the run began
        samples = []
        run_sweep(square, list(range(10)), jobs=1,
                  telemetry=lambda *sample: samples.append(sample))
        assert [done for done, _, _ in samples] == list(range(1, 11))
        assert all(total == 10 for _, total, _ in samples)
        elapsed = [seconds for _, _, seconds in samples]
        assert elapsed == sorted(elapsed) and elapsed[0] >= 0.0

    def test_parallel_telemetry_reports_pool_jobs(self):
        # one observer, called in the parent once per finished item
        import os
        seen = []
        res = run_sweep(square, list(range(8)), jobs=2,
                        telemetry=lambda done, total, _s: seen.append(
                            (done, total, os.getpid())))
        assert seen == [(i, 8, os.getpid()) for i in range(1, 9)]
        assert res.jobs == 2 and "jobs=2" in res.describe()

    def test_progress_meter_renders_line(self):
        stream = io.StringIO()
        meter = ProgressMeter(label="demo", stream=stream)
        run_sweep(square, list(range(6)), jobs=1, telemetry=meter)
        meter.finish()
        text = stream.getvalue()
        assert "demo: 6/6 (100%)" in text
        assert text.endswith("\n")
        assert meter.last is not None and meter.last[0] == 6

    def test_progress_meter_finish_without_samples_is_silent(self):
        stream = io.StringIO()
        ProgressMeter(stream=stream).finish()
        assert stream.getvalue() == ""

    def test_meter_rate_is_items_over_elapsed(self):
        # the run average, not the latest burst: a 3-item run that took
        # 0.16 s once read "3/3 (100%) 1203.6/s"
        stream = io.StringIO()
        meter = ProgressMeter(label="demo", stream=stream)
        meter(1, 3, 0.001)          # a burst: 1000 items/s right now
        meter(3, 3, 0.15)
        meter.finish()
        assert "demo: 3/3 (100%) 20.0/s" in stream.getvalue()

    def test_meter_live_line_on_a_terminal(self):
        stream = Tty()
        meter = ProgressMeter(label="demo", stream=stream)
        meter(1, 4, 2.0)
        assert stream.getvalue() == "\r  demo: 1/4 (25%) 0.5/s eta 6s in 2s"
        meter(4, 4, 4.0)
        meter.finish()
        assert stream.getvalue().endswith(
            "\r  demo: 4/4 (100%) 1.0/s eta 0s in 4s\n")


class TestCampaignTelemetry:
    """Sweep instrumentation via `repro.obs.telemetry` (off by default)."""

    def test_serial_instrumented_counts_items_and_chunks(self):
        # "chunks" are Executor.map's business now: no series, no spans
        from repro.obs import telemetry as tm
        with tm.collect(process="sweep test") as scope:
            run_sweep(square, list(range(10)), jobs=1)
        assert scope.metrics.counters() == {"sweep/items": 10}
        # the spans a pool run ships, recorded in place: no chunk spans
        assert [s["name"] for s in scope.spans.spans] == \
            ["sweep/item"] * 10 + ["sweep/run"]
        assert [s["args"]["index"] for s in scope.spans.spans[:10]] == \
            list(range(10))

    def test_parallel_instrumented_merges_worker_spans(self):
        import os

        from repro.obs import telemetry as tm
        from repro.obs.perfetto import validate_trace_events
        with tm.collect(process="sweep test") as scope:
            run_sweep(square, list(range(12)), jobs=2)
        assert scope.metrics.counters() == {"sweep/items": 12}
        events = scope.spans.to_trace_events()
        assert validate_trace_events({"traceEvents": events}) == []
        items = [e for e in events
                 if e.get("ph") == "X" and e["name"] == "sweep/item"]
        assert sorted(e["args"]["index"] for e in items) == list(range(12))
        assert os.getpid() not in {e["pid"] for e in items}, \
            "worker item spans must ship back to the parent"

    def test_parallel_uninstrumented_ships_nothing(self):
        from repro.obs import telemetry as tm
        assert not tm.enabled()
        before = len(tm.tracer())
        assert run_sweep(square, list(range(6)), jobs=2).results == [
            0, 1, 4, 9, 16, 25]
        assert len(tm.tracer()) == before

    def test_meter_non_tty_prints_single_summary_line(self):
        stream = io.StringIO()  # isatty() is False: no live \r updates
        meter = ProgressMeter(label="demo", stream=stream)
        run_sweep(square, list(range(6)), jobs=1, telemetry=meter)
        meter.finish()
        text = stream.getvalue()
        assert "\r" not in text
        assert text.count("\n") == 1
        assert "demo: 6/6 (100%)" in text
        assert " in " in text
