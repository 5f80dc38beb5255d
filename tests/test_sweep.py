"""The shared parallel sweep engine (`repro.sim.sweep`)."""

import io

import pytest

from repro.sim.errors import ConfigurationError
from repro.sim.sweep import (
    ProgressMeter,
    SweepError,
    SweepProgress,
    SweepResult,
    WorkerStats,
    default_chunk_size,
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
        res = run_sweep(square, list(range(17)), jobs=1, chunk_size=5)
        assert res.results == [i * i for i in range(17)]
        assert res.jobs == 1

    def test_empty_items(self):
        res = run_sweep(square, [], jobs=1)
        assert res.results == []

    def test_chunk_larger_than_items(self):
        assert run_sweep(square, [1, 2], chunk_size=100).results == [1, 4]

    def test_progress_callback_monotone_and_complete(self):
        seen = []
        run_sweep(square, list(range(10)), jobs=1, chunk_size=3,
                  telemetry=lambda s: seen.append((s.done, s.total)))
        assert seen == [(3, 10), (6, 10), (9, 10), (10, 10)]

    def test_worker_stats_accumulate(self):
        res = run_sweep(square, list(range(8)), jobs=1, chunk_size=2)
        assert list(res.workers) == ["serial"]
        assert res.workers["serial"].items == 8
        assert res.workers["serial"].chunks == 4

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
            run_sweep(square, [1, 2], chunk_size=0)
        with pytest.raises(ConfigurationError):
            run_sweep(None, [1, 2])

    def test_describe_mentions_throughput(self):
        res = run_sweep(square, list(range(4)), jobs=1)
        assert "4 item(s)" in res.describe()


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        items = list(range(23))
        serial = run_sweep(square, items, jobs=1)
        parallel = run_sweep(square, items, jobs=2, chunk_size=4)
        assert parallel.results == serial.results

    def test_parallel_records_errors(self):
        res = run_sweep(boom_on_three, [3, 5], jobs=2, chunk_size=1)
        assert isinstance(res.results[0], SweepError)
        assert "three" in res.results[0].describe()
        assert res.results[1] == 5

    def test_parallel_worker_stats_cover_all_items(self):
        res = run_sweep(square, list(range(12)), jobs=2, chunk_size=3)
        assert sum(w.items for w in res.workers.values()) == 12


class TestRateGuards:
    def _result(self, elapsed):
        return SweepResult(results=[1, 2, 3], elapsed_seconds=elapsed,
                           jobs=1, chunk_size=1)

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
        p = SweepProgress(done=0, total=10, elapsed_seconds=0.0,
                          items_per_second=0.0, eta_seconds=None,
                          jobs=0, workers={})
        assert p.utilization == 0.0
        assert p.fraction == 0.0
        assert "eta ?" in p.describe()
        empty = SweepProgress(done=0, total=0, elapsed_seconds=0.0,
                              items_per_second=0.0, eta_seconds=None,
                              jobs=1, workers={})
        assert empty.fraction == 1.0

    def test_utilization_clamped_to_one(self):
        workers = {"w": WorkerStats(worker_id="w", busy_seconds=100.0)}
        p = SweepProgress(done=5, total=10, elapsed_seconds=1.0,
                          items_per_second=5.0, eta_seconds=1.0,
                          jobs=2, workers=workers)
        assert p.utilization == 1.0

    def test_format_duration(self):
        assert format_duration(None) == "?"
        assert format_duration(-3.0) == "0s"
        assert format_duration(42.4) == "42s"
        assert format_duration(83) == "1m23s"
        assert format_duration(3 * 3600 + 5 * 60) == "3h05m"

    def test_compute_eta_near_zero_rate_is_unknown(self):
        from repro.sim.sweep import MIN_ELAPSED_SECONDS, MIN_RATE, compute_eta

        # the old guard compared a rate (items/s) against a *time*
        # epsilon (1e-9 s): an EMA rate of 1e-8 items/s slipped through
        # and produced a billions-of-seconds ETA
        assert compute_eta(10, 0.0) is None
        assert compute_eta(10, 1e-8) is None
        assert compute_eta(10, MIN_RATE / 2) is None
        # the dedicated rate epsilon is far above the time epsilon
        assert MIN_RATE > MIN_ELAPSED_SECONDS

    def test_compute_eta_normal_rate(self):
        from repro.sim.sweep import compute_eta

        assert compute_eta(10, 2.0) == pytest.approx(5.0)
        assert compute_eta(0, 2.0) == pytest.approx(0.0)


class TestTelemetry:
    def test_samples_cover_run_and_carry_eta(self):
        samples = []
        run_sweep(square, list(range(10)), jobs=1, chunk_size=3,
                  telemetry=samples.append)
        assert [s.done for s in samples] == [3, 6, 9, 10]
        assert all(s.total == 10 for s in samples)
        assert all(s.jobs == 1 for s in samples)
        final = samples[-1]
        assert final.items_per_second >= 0.0
        assert final.eta_seconds is None or final.eta_seconds >= 0.0
        assert 0.0 <= final.utilization <= 1.0
        assert final.workers["serial"].items == 10

    def test_parallel_telemetry_reports_pool_jobs(self):
        samples = []
        run_sweep(square, list(range(8)), jobs=2, chunk_size=2,
                  telemetry=samples.append)
        assert samples[-1].done == 8
        assert samples[-1].jobs == 2
        assert sum(w.items for w in samples[-1].workers.values()) == 8

    def test_progress_meter_renders_line(self):
        stream = io.StringIO()
        meter = ProgressMeter(label="demo", stream=stream)
        run_sweep(square, list(range(6)), jobs=1, chunk_size=2,
                  telemetry=meter)
        meter.finish()
        text = stream.getvalue()
        assert "demo: 6/6 (100%)" in text
        assert text.endswith("\n")
        assert meter.last is not None and meter.last.done == 6

    def test_progress_meter_finish_without_samples_is_silent(self):
        stream = io.StringIO()
        ProgressMeter(stream=stream).finish()
        assert stream.getvalue() == ""


class TestChunkSizing:
    def test_default_targets_four_chunks_per_worker(self):
        assert default_chunk_size(160, 4) == 10

    def test_never_below_one(self):
        assert default_chunk_size(2, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestCampaignTelemetry:
    """Sweep instrumentation via `repro.obs.telemetry` (off by default)."""

    def test_queue_wait_zero_when_telemetry_off(self):
        samples = []
        run_sweep(square, list(range(8)), jobs=2, chunk_size=2,
                  telemetry=samples.append)
        assert all(s.queue_wait_seconds == 0.0 for s in samples)

    def test_serial_instrumented_counts_items_and_chunks(self):
        from repro.obs import telemetry as tm
        with tm.collect(process="sweep test") as scope:
            run_sweep(square, list(range(10)), jobs=1, chunk_size=3)
        assert scope.metrics.counter_value("sweep/items") == 10
        assert scope.metrics.counter_value("sweep/chunks") == 4
        names = [s["name"] for s in scope.spans.spans]
        assert "sweep/run" in names
        assert names.count("sweep/chunk") == 4

    def test_parallel_instrumented_merges_worker_spans(self):
        import os

        from repro.obs import telemetry as tm
        from repro.obs.perfetto import validate_trace_events
        with tm.collect(process="sweep test") as scope:
            samples = []
            run_sweep(square, list(range(12)), jobs=2, chunk_size=3,
                      telemetry=samples.append)
        assert scope.metrics.counter_value("sweep/items") == 12
        assert scope.metrics.gauge_value("sweep/queue_wait_seconds") >= 0.0
        assert samples[-1].queue_wait_seconds >= 0.0
        events = scope.spans.to_trace_events()
        assert validate_trace_events({"traceEvents": events}) == []
        chunk_pids = {e["pid"] for e in events
                      if e.get("ph") == "X" and e["name"] == "sweep/chunk"}
        assert chunk_pids, "worker chunk spans must ship back to the parent"
        assert os.getpid() not in chunk_pids

    def test_meter_non_tty_prints_single_summary_line(self):
        stream = io.StringIO()  # isatty() is False: no live \r updates
        meter = ProgressMeter(label="demo", stream=stream)
        run_sweep(square, list(range(6)), jobs=1, chunk_size=2,
                  telemetry=meter)
        meter.finish()
        text = stream.getvalue()
        assert "\r" not in text
        assert text.count("\n") == 1
        assert "demo: 6/6 (100%)" in text
        assert " in " in text

    def test_meter_summary_mentions_queue_wait_when_nonzero(self):
        stream = io.StringIO()
        meter = ProgressMeter(label="demo", stream=stream)
        meter(SweepProgress(done=4, total=4, elapsed_seconds=1.0,
                            items_per_second=4.0, eta_seconds=0.0, jobs=2,
                            workers={}, queue_wait_seconds=0.75))
        meter.finish()
        assert "max queue wait 0.75s" in stream.getvalue()
