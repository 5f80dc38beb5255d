"""Campaign metrics and spans: exposition, merging, the span trace.

Covers the exposition-format conformance (label escaping, cumulative
histogram buckets, one pinned literal), merge associativity across
worker orderings on the one ``StatsRegistry`` type (counters and exact
histogram samples add), and Perfetto validity of multi-process
wall-clock span traces.
"""

import json

from repro.obs.perfetto import export_span_trace, validate_trace_events
from repro.obs.prometheus import prometheus_name, series_key, to_prometheus
from repro.sim.stats import StatsRegistry


class TestPrometheusExposition:
    def test_counter_gets_total_suffix_and_type_line(self):
        reg = StatsRegistry()
        reg.counter("sweep/items").inc(7)
        text = to_prometheus(reg)
        assert "# TYPE repro_sweep_items_total counter" in text
        assert "repro_sweep_items_total 7" in text

    def test_name_sanitization(self):
        assert prometheus_name("batch/compile-memo.hit") == \
            "repro_batch_compile_memo_hit"

    def test_label_value_escaping(self):
        reg = StatsRegistry()
        reg.counter(series_key("batch/fallback",
                               {"reason": 'cache "x\\y"\nprotocol'})).inc()
        text = to_prometheus(reg)
        # Prometheus text format: \ -> \\, " -> \", newline -> \n
        assert 'reason="cache \\"x\\\\y\\"\\nprotocol"' in text
        assert "\nrepro_batch_fallback_total{" in text

    def test_label_sets_sorted_and_deterministic(self):
        assert series_key("x", {"b": "2", "a": "1"}) == \
            series_key("x", {"a": "1", "b": "2"}) == 'x{a="1",b="2"}'
        reg = StatsRegistry()
        reg.counter(series_key("x", {"b": "2", "a": "1"})).inc()
        assert 'repro_x_total{a="1",b="2"} 1' in to_prometheus(reg)

    def test_histogram_buckets_cumulative_and_monotonic(self):
        reg = StatsRegistry()
        for v in (0, 3, 3, 1500, 120000):
            reg.histogram("serve/job_ms").add(v)
        text = to_prometheus(reg)
        assert "# TYPE repro_serve_job_ms histogram" in text
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_serve_job_ms_bucket"):
                counts.append(float(line.rsplit(" ", 1)[1]))
        assert counts, "no bucket lines rendered"
        assert counts == sorted(counts), "buckets must be cumulative"
        assert 'le="+Inf"' in text
        # +Inf bucket == _count == number of observations
        assert counts[-1] == 5
        assert "repro_serve_job_ms_count 5" in text
        assert "repro_serve_job_ms_sum 121506" in text

    def test_exposition_is_pinned(self):
        """An unlabelled counter, a two-label counter whose value needs
        escaping, a histogram: the text CI greps, byte for byte."""
        reg = StatsRegistry()
        reg.counter("verify/legs").inc(384)
        reg.counter(series_key("batch/compile_memo", {
            "result": 'a "hit"\\\n', "layer": "core"})).inc(2)
        for sample in (0, 1, 2, 2, 7, 30):
            reg.histogram("serve/job_ms").add(sample)
        assert to_prometheus(reg) == (
            '# TYPE repro_batch_compile_memo_total counter\n'
            'repro_batch_compile_memo_total'
            '{layer="core",result="a \\"hit\\"\\\\\\n"} 2\n'
            '# TYPE repro_verify_legs_total counter\n'
            'repro_verify_legs_total 384\n'
            '# TYPE repro_serve_job_ms histogram\n'
            'repro_serve_job_ms_bucket{le="1"} 2\n'
            'repro_serve_job_ms_bucket{le="2"} 4\n'
            'repro_serve_job_ms_bucket{le="5"} 4\n'
            'repro_serve_job_ms_bucket{le="10"} 5\n'
            'repro_serve_job_ms_bucket{le="20"} 5\n'
            'repro_serve_job_ms_bucket{le="50"} 6\n'
            'repro_serve_job_ms_bucket{le="+Inf"} 6\n'
            'repro_serve_job_ms_sum 42\n'
            'repro_serve_job_ms_count 6\n')

    def test_labelled_histogram_joins_le_to_its_labels(self):
        reg = StatsRegistry()
        reg.histogram(series_key("lat", {"kind": "miss"})).add(1)
        text = to_prometheus(reg)
        assert 'repro_lat_bucket{kind="miss",le="1"} 1' in text
        assert 'repro_lat_count{kind="miss"} 1' in text


def _populate(n):
    """What one worker's registry would hold after ``n`` legs."""
    reg = StatsRegistry()
    reg.counter("legs").inc(n)
    reg.counter(series_key("fallback", {"reason": "deadlock"})).inc(n)
    for i in range(n):
        reg.histogram("busy").add(i + 1)
    return reg


class TestMergeAssociativity:
    def _regs(self):
        return [_populate(n) for n in (3, 5, 11)]

    def _merged(self, order):
        regs = self._regs()
        acc = StatsRegistry()
        for i in order:
            acc.merge_from(regs[i])
        return acc

    def test_worker_completion_order_is_irrelevant(self):
        base = self._merged((0, 1, 2))
        for order in ((2, 1, 0), (1, 0, 2), (2, 0, 1)):
            merged = self._merged(order)
            assert to_prometheus(merged) == to_prometheus(base)
            assert merged.snapshot() == base.snapshot()

    def test_counters_and_histogram_samples_add(self):
        acc = self._merged((1, 2, 0))
        assert acc.counters() == {"legs": 19,
                                  'fallback{reason="deadlock"}': 19}
        busy = acc.histograms()["busy"]
        assert (busy.count, busy.total, busy.min, busy.max) == (19, 87, 1, 11)
        assert busy.items()[:3] == [(1, 3), (2, 3), (3, 3)]

    def test_associative_grouping(self):
        regs = self._regs()
        left = StatsRegistry()
        left.merge_from(regs[0])
        left.merge_from(regs[1])
        left.merge_from(regs[2])
        inner = StatsRegistry()
        inner.merge_from(regs[1])
        inner.merge_from(regs[2])
        right = StatsRegistry()
        right.merge_from(regs[0])
        right.merge_from(inner)
        assert left.snapshot() == right.snapshot()
        assert left.histograms()["busy"].items() == \
            right.histograms()["busy"].items()


class TestSpanTrace:
    def _two_process_trace(self, path):
        # a campaign span in this process around an item span in a
        # worker, on the wall clock (microseconds since the epoch)
        return export_span_trace(
            [("verify/campaign", 100, 1_700_000_000_000_000,
              1_700_000_000_000_900, {"tests": 2}),
             ("sweep/item", 101, 1_700_000_000_000_100,
              1_700_000_000_000_800, {"index": 0})],
            str(path), {100: "campaign"})

    def test_merged_trace_validates(self, tmp_path):
        obj = self._two_process_trace(tmp_path / "trace.json")
        assert validate_trace_events(obj) == []

    def test_process_name_metadata_per_pid(self, tmp_path):
        events = self._two_process_trace(tmp_path / "trace.json")[
            "traceEvents"]
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert names == {100: "campaign", 101: "pid 101"}
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert len(pids) == 2

    def test_timestamps_rebased_to_zero_origin(self, tmp_path):
        events = self._two_process_trace(tmp_path / "trace.json")[
            "traceEvents"]
        xs = [e for e in events if e.get("ph") == "X"]
        assert [(e["ts"], e["dur"]) for e in xs] == [(0, 900), (100, 700)]

    def test_write_perfetto(self, tmp_path):
        path = tmp_path / "trace.json"
        written = self._two_process_trace(path)
        obj = json.loads(path.read_text())
        assert obj == written
        assert validate_trace_events(obj) == []
