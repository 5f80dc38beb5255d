"""Campaign telemetry substrate: the active registry, spans, shipping.

Covers the exposition-format conformance (label escaping, cumulative
histogram buckets, one pinned literal), merge associativity across
worker orderings on the one ``StatsRegistry`` type (counters and exact
histogram samples add), the collect/absorb shipping protocol, and
Perfetto validity of merged multi-process span traces.
"""

import json

import pytest

from repro.obs import telemetry as tm
from repro.obs.perfetto import validate_trace_events
from repro.obs.telemetry.prometheus import prometheus_name, series_key
from repro.sim.stats import StatsRegistry


class TestPrometheusExposition:
    def test_counter_gets_total_suffix_and_type_line(self):
        reg = StatsRegistry()
        reg.counter("sweep/items").inc(7)
        text = tm.to_prometheus(reg)
        assert "# TYPE repro_sweep_items_total counter" in text
        assert "repro_sweep_items_total 7" in text

    def test_name_sanitization(self):
        assert prometheus_name("batch/compile-memo.hit") == \
            "repro_batch_compile_memo_hit"

    def test_label_value_escaping(self):
        with tm.collect() as scope:
            tm.inc("batch/fallback",
                   labels={"reason": 'cache "x\\y"\nprotocol'})
        text = tm.to_prometheus(scope.metrics)
        # Prometheus text format: \ -> \\, " -> \", newline -> \n
        assert 'reason="cache \\"x\\\\y\\"\\nprotocol"' in text
        assert "\nrepro_batch_fallback_total{" in text

    def test_label_sets_sorted_and_deterministic(self):
        assert series_key("x", {"b": "2", "a": "1"}) == \
            series_key("x", {"a": "1", "b": "2"}) == 'x{a="1",b="2"}'
        reg = StatsRegistry()
        reg.counter(series_key("x", {"b": "2", "a": "1"})).inc()
        assert 'repro_x_total{a="1",b="2"} 1' in tm.to_prometheus(reg)

    def test_histogram_buckets_cumulative_and_monotonic(self):
        reg = StatsRegistry()
        for v in (0, 3, 3, 1500, 120000):
            reg.histogram("serve/job_ms").add(v)
        text = tm.to_prometheus(reg)
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
        with tm.collect() as scope:
            tm.inc("verify/legs", 384)
            tm.inc("batch/compile_memo", 2,
                   labels={"result": 'a "hit"\\\n', "layer": "core"})
            for sample in (0, 1, 2, 2, 7, 30):
                tm.observe("serve/job_ms", sample)
        assert tm.to_prometheus(scope.metrics) == (
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
        text = tm.to_prometheus(reg)
        assert 'repro_lat_bucket{kind="miss",le="1"} 1' in text
        assert 'repro_lat_count{kind="miss"} 1' in text

    def test_negative_counter_increment_rejected(self):
        with tm.collect():
            with pytest.raises(ValueError):
                tm.inc("x", -1)


def _populate(n):
    """What one worker item would ship after ``n`` legs."""
    with tm.collect() as scope:
        tm.inc("legs", n)
        tm.inc("fallback", n, labels={"reason": "deadlock"})
        for i in range(n):
            tm.observe("busy", i + 1)
    return scope


class TestMergeAssociativity:
    def _regs(self):
        return [_populate(n).metrics for n in (3, 5, 11)]

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
            assert tm.to_prometheus(merged) == tm.to_prometheus(base)
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

    def test_state_round_trip(self):
        scope = _populate(4)
        with tm.collect() as clone:
            tm.absorb(scope.shipment())
        assert tm.to_prometheus(clone.metrics) == \
            tm.to_prometheus(scope.metrics)
        assert clone.metrics.snapshot() == scope.metrics.snapshot()

    def test_state_is_json_serializable(self):
        scope = _populate(2)
        with tm.collect() as clone:
            tm.absorb(json.loads(json.dumps(scope.shipment())))
        assert clone.metrics.snapshot() == scope.metrics.snapshot()
        assert clone.metrics.histograms()["busy"].items() == [(1, 1), (2, 1)]


class TestShippingProtocol:
    def test_disabled_module_calls_are_noops(self):
        assert not tm.enabled()
        before = tm.registry().snapshot()
        tm.inc("should/not/land")
        tm.observe("nor/this", 1)
        with tm.span("quiet") as args:
            args["x"] = 1
        assert tm.registry().snapshot() == before
        assert not tm.enabled()

    def test_collect_scope_isolates_and_restores(self):
        outer_reg = tm.registry()
        with tm.collect(process="test scope") as scope:
            assert tm.enabled()
            tm.inc("campaign/legs", 3)
            with tm.span("campaign/item", {"items": 2}):
                pass
            assert tm.registry() is scope.metrics
        assert tm.registry() is outer_reg
        assert not tm.enabled()
        assert scope.metrics.counters() == {"campaign/legs": 3}
        assert len(scope.spans) == 1

    def test_nested_collect_does_not_double_count(self):
        with tm.collect() as parent:
            tm.inc("legs", 3)
            tm.observe("busy", 7)
            with tm.collect() as child:
                tm.inc("legs", 5)
                tm.observe("busy", 7)
                tm.observe("busy", 9)
                shipment = child.shipment()
            tm.absorb(shipment)
            assert parent.metrics.counters() == {"legs": 8}
            assert parent.metrics.histograms()["busy"].items() == \
                [(7, 2), (9, 1)]
        assert child.metrics.counters() == {"legs": 5}
        assert child.metrics.histograms()["busy"].count == 2

    def test_shipment_survives_json_round_trip(self):
        with tm.collect(process="worker 1") as scope:
            tm.inc("legs", 2)
            tm.observe("busy", 4)
            with tm.span("item"):
                pass
        shipment = json.loads(json.dumps(scope.shipment()))
        with tm.collect(process="parent") as target:
            tm.absorb(shipment)
        assert target.metrics.counters() == {"legs": 2}
        assert target.metrics.histograms()["busy"].items() == [(4, 1)]
        assert len(target.spans) == 1


class TestSpanTrace:
    def _two_process_tracer(self):
        parent = tm.SpanTracer(process="campaign")
        with parent.span("verify/campaign", {"tests": 2}):
            pass
        worker = tm.SpanTracer(process="worker 0")
        worker._pid = parent._pid + 1  # simulate a separate process
        with worker.span("sweep/item", {"index": 0}):
            pass
        parent.absorb_state(worker.to_state())
        return parent

    def test_merged_trace_validates(self):
        parent = self._two_process_tracer()
        events = parent.to_trace_events()
        assert validate_trace_events({"traceEvents": events}) == []

    def test_process_name_metadata_per_pid(self):
        events = self._two_process_tracer().to_trace_events()
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert sorted(names.values()) == ["campaign", "worker 0"]
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert len(pids) == 2

    def test_timestamps_rebased_to_zero_origin(self):
        events = self._two_process_tracer().to_trace_events()
        xs = [e for e in events if e.get("ph") == "X"]
        assert min(e["ts"] for e in xs) == 0

    def test_write_perfetto(self, tmp_path):
        path = tmp_path / "trace.json"
        self._two_process_tracer().write_perfetto(
            str(path), label="unit test")
        obj = json.loads(path.read_text())
        assert validate_trace_events(obj) == []
        assert obj["otherData"]["label"] == "unit test"
