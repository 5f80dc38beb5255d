"""Trace export, the recorder bound, stats snapshot, and CLI smoke tests."""

import hashlib
import json

import pytest

from repro.analysis.summary import CpuSummary
from repro.obs.accounting import CycleAccountant
from repro.obs.perfetto import (
    to_trace_events,
    validate_trace_events,
    validate_trace_file,
)
from repro.sim.stats import StatsRegistry, format_stats_table
from repro.sim.trace import TraceEvent, TraceRecorder, read_jsonl


# ----------------------------------------------------------------------
# TraceRecorder bound: the first N events are kept
# ----------------------------------------------------------------------

class TestRingBuffer:
    def test_unbounded_by_default(self):
        tr = TraceRecorder()
        for i in range(500):
            tr.record(i, "x", "k")
        assert len(tr.events) == 500
        assert tr.dropped == 0

    def test_bounded_keeps_the_first_events(self):
        # the archtrace differ localizes the first divergence: the head
        # of the run is what a bounded recorder must keep
        tr = TraceRecorder(max_events=10)
        for i in range(25):
            tr.record(i, "x", "k", i=i)
        assert len(tr.events) == 10
        assert tr.dropped == 15
        assert [ev.detail["i"] for ev in tr.events] == list(range(10))

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)

    def test_disabled_recorder_keeps_nothing(self, tmp_path):
        with open(tmp_path / "t.jsonl", "w") as fh:
            tr = TraceRecorder(enabled=False, stream=fh)
            tr.record(0, "x", "k")
        assert tr.events == []
        assert tr.dropped == 0
        assert (tmp_path / "t.jsonl").read_text() == ""

    def test_queries_see_ring_contents(self):
        tr = TraceRecorder(max_events=3)
        for i in range(6):
            tr.record(i, "x", "a" if i % 2 else "b", i=i)
        assert [ev.detail["i"] for ev in tr.of_kind("a")] == [1]
        assert tr.first("b").detail["i"] == 0
        assert len(tr.render().splitlines()) == 3


# ----------------------------------------------------------------------
# Stats snapshot percentiles and table alignment (satellite 2)
# ----------------------------------------------------------------------

class TestStatsSnapshot:
    def test_snapshot_has_percentiles(self):
        s = StatsRegistry()
        h = s.histogram("lat")
        for v in range(0, 101):
            h.add(v)
        snap = s.snapshot()
        assert snap["lat/p50"] == 50
        assert snap["lat/p95"] == 95
        assert snap["lat/p99"] == 99

    def test_empty_histogram_percentiles_are_zero(self):
        s = StatsRegistry()
        s.histogram("empty")
        snap = s.snapshot()
        assert snap["empty/p50"] == 0
        assert snap["empty/p99"] == 0

    def test_table_aligns_mixed_ints_and_floats(self):
        text = format_stats_table({"a/count": 12345, "a/mean": 3.5,
                                   "b": 7}, title="t")
        lines = text.splitlines()[2:]
        # one shared right-aligned value column: all lines equal width
        assert len({len(line) for line in lines}) == 1
        assert lines[0].endswith("12345")
        assert lines[1].endswith("3.500")
        assert lines[2].endswith("    7")


# ----------------------------------------------------------------------
# JSONL round trip
# ----------------------------------------------------------------------

class TestJsonl:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as fh:
            tr = TraceRecorder(stream=fh)
            tr.record(1, "cpu0", "retire", seq=0, pc=0)
            tr.record(2, "cache0", "fill", line=32)
        back = read_jsonl(path)
        assert back == tr.events
        assert len(back) == 2

    def test_streaming_recorder_keeps_full_log_past_ring(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as fh:
            tr = TraceRecorder(max_events=3, stream=fh)
            for i in range(10):
                tr.record(i, "x", "k", i=i)
        assert len(tr.events) == 3      # in-memory window bounded
        assert tr.dropped == 7
        # the disk log is complete, dropped events included
        assert [ev.detail["i"] for ev in read_jsonl(path)] == list(range(10))

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cycle": 1}\n')
        with pytest.raises(ValueError, match="missing 'source'"):
            read_jsonl(str(path))
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_jsonl(str(path))
        path.write_text('{"cycle": 1, "source": "x", "kind": "k"}\n5\n')
        with pytest.raises(ValueError, match="line 2: not a JSON object"):
            read_jsonl(str(path))


# ----------------------------------------------------------------------
# Perfetto conversion + validation
# ----------------------------------------------------------------------

class TestPerfetto:
    def _sample_events(self):
        return [
            TraceEvent(1, "cpu0/lsu", "load_issue", {"seq": 0, "tag": "read C",
                                                     "addr": 64}),
            TraceEvent(101, "cpu0/lsu", "load_complete", {"seq": 0,
                                                          "addr": 64,
                                                          "value": 7}),
            TraceEvent(3, "cpu0", "retire", {"seq": 0}),
            TraceEvent(5, "cache0", "fill", {"line": 64}),
            TraceEvent(6, "cpu0/lsu", "slb_insert", {"seq": 2, "line": 80}),
            TraceEvent(9, "cpu0/lsu", "slb_retire", {"seq": 2}),
        ]

    def test_pairs_become_slices(self):
        obj = to_trace_events(self._sample_events())
        slices = [ev for ev in obj["traceEvents"] if ev["ph"] == "X"]
        assert len(slices) == 2
        load = next(s for s in slices if s["name"] == "read C")
        assert load["ts"] == 1 and load["dur"] == 100
        slb = next(s for s in slices if s is not load)
        assert slb["ts"] == 6 and slb["dur"] == 3

    def test_instants_and_metadata_present(self):
        obj = to_trace_events(self._sample_events())
        phs = {ev["ph"] for ev in obj["traceEvents"]}
        assert phs == {"X", "i", "M"}
        names = {ev["args"]["name"] for ev in obj["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert "cpu0" in names

    def test_unterminated_slice_closed_at_last_cycle(self):
        events = [TraceEvent(2, "cpu0/lsu", "store_issue", {"seq": 1}),
                  TraceEvent(50, "cpu0", "retire", {"seq": 1})]
        obj = to_trace_events(events)
        sl = next(ev for ev in obj["traceEvents"] if ev["ph"] == "X")
        assert sl["ts"] == 2 and sl["dur"] == 48
        assert sl["args"]["unterminated"] is True

    def test_converted_object_validates(self):
        assert validate_trace_events(to_trace_events(self._sample_events())) == []

    def test_validator_rejects_malformed(self, tmp_path):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": "nope"}) != []
        errors = validate_trace_events({"traceEvents": [
            {"ph": "X", "name": "a", "ts": 1, "pid": 0, "tid": 0},  # no dur
            {"ph": "z", "name": "b"},                               # bad ph
            {"ph": "i", "name": "c", "ts": -1, "pid": 0, "tid": 0},  # neg ts
            {"ph": "i", "name": "d", "ts": 0, "pid": 0, "tid": 0,
             "s": "x"},                                             # bad scope
        ]})
        assert len(errors) == 4
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert validate_trace_file(str(bad)) != []

    def test_validate_file_ok(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(to_trace_events(self._sample_events())))
        assert validate_trace_file(str(path)) == []


# ----------------------------------------------------------------------
# Effectiveness extraction
# ----------------------------------------------------------------------

def _cpu0_registry():
    """A registry with what every core wires: its cycle-blame counters
    (the summary's blame reads them, and reading registers nothing)."""
    s = StatsRegistry()
    CycleAccountant(s, "cpu0")
    return s


class TestEffectiveness:
    def test_prefetch_counters_roundtrip(self):
        s = _cpu0_registry()
        s.counter("cpu0/prefetcher/issued").inc(8)
        s.counter("cache0/prefetches_issued").inc(5)
        s.counter("cache0/prefetches_late").inc(2)
        s.counter("cache0/prefetches_useful_hit").inc(1)
        s.counter("cache0/prefetches_useless_invalidated").inc(1)
        pf = CpuSummary.from_stats(s, 0)
        assert pf.pf_requested == 8 and pf.pf_issued == 5
        assert (pf.pf_late, pf.pf_hits, pf.pf_useless) == (2, 1, 1)

    def test_speculation_counters_roundtrip(self):
        s = _cpu0_registry()
        s.counter("cpu0/slb/inserted").inc(10)
        s.counter("cpu0/slb/retired").inc(8)
        s.counter("cpu0/slb/reissues").inc(1)
        s.counter("cpu0/slb/squashes").inc(1)
        s.counter("cpu0/slb/rollback_cause/inval").inc(1)
        s.counter("cpu0/squash_reason/speculative_load_violated").inc(1)
        sp = CpuSummary.from_stats(s, 0)
        assert (sp.slb_inserted, sp.slb_confirmed, sp.slb_reissues,
                sp.slb_rollbacks) == (10, 8, 1, 1)
        assert sp.rollback_causes["inval"] == 1
        assert sp.squash_reasons == {"speculative_load_violated": 1}


# ----------------------------------------------------------------------
# End-to-end CLI smoke (run.py flags and python -m repro.obs)
# ----------------------------------------------------------------------

class TestCliSmoke:
    def test_run_breakdown_and_exports(self, tmp_path, capsys):
        from repro.run import main
        stats_json = tmp_path / "stats.json"
        perfetto = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main(["--example", "example2", "--model", "RC",
                   "--prefetch", "--speculation", "--summary",
                   "--stats-json", str(stats_json),
                   "--perfetto", str(perfetto),
                   "--trace-jsonl", str(jsonl)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle breakdown" in out
        assert "technique effectiveness" in out
        snap = json.loads(stats_json.read_text())
        causes = [v for k, v in snap.items()
                  if k.startswith("cpu0/cycles/")]
        assert sum(causes) == snap["cycles"]
        assert validate_trace_file(str(perfetto)) == []
        assert len(read_jsonl(str(jsonl))) > 0

    # sha256 of each view of one producer/consumer run, all three fed by
    # one recorder; any byte that moves here changes what Perfetto, jq
    # or `repro.obs diff` reads (the JSONL moved when the directory began
    # handing a line straight to its next queued request: one txn_start
    # now follows its predecessor's txn_finish within cycle 62)
    PINNED_VIEWS = {
        "perfetto": "6a55d47a89a7f4d812270fae528fbea4f06a0c121c14df43461a358e9f461a89",
        "trace-jsonl": "9ced8245e6a50806984401430454ca625ef610cc66c72a86ff8f1e0012cb6e26",
        "archtrace": "3e4ed0ba1c2a77a9842e0ae6de45524499ade3e6d67717c324e4b83bdc9b8572",
    }

    def test_one_recorder_serves_every_view_byte_identically(self, tmp_path,
                                                             capsys):
        from repro.run import main
        paths = {view: tmp_path / f"{view}.out" for view in self.PINNED_VIEWS}
        argv = ["examples/asm/producer.s", "examples/asm/consumer.s",
                "--model", "RC", "--prefetch", "--speculation", "--no-ledger"]
        for view, path in paths.items():
            argv += [f"--{view}", str(path)]
        assert main(argv) == 0
        digests = {view: hashlib.sha256(path.read_bytes()).hexdigest()
                   for view, path in paths.items()}
        assert digests == self.PINNED_VIEWS

    def test_failed_run_still_writes_its_trace_views(self, tmp_path, capsys):
        from repro.obs.archtrace import ArchTrace
        from repro.run import main
        perfetto = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        arch = tmp_path / "a.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        rc = main(["--example", "example2", "--model", "SC",
                   "--max-cycles", "20", "--ledger", str(ledger),
                   "--perfetto", str(perfetto), "--trace-jsonl", str(jsonl),
                   "--archtrace", str(arch)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [
            "error: simulation made no progress by cycle 20: "
            "non-quiescent components: ['cpu0', 'net', 'cache0']; "
            "cache0 misses 0x4"]
        assert validate_trace_file(str(perfetto)) == []
        recorded = read_jsonl(str(jsonl))
        assert recorded and max(ev.cycle for ev in recorded) <= 20
        archtrace = ArchTrace.read_jsonl(str(arch))
        assert archtrace.cycles == 20
        assert archtrace.final_memory == {} and archtrace.breakdowns == []
        assert not ledger.exists()

    def test_run_requires_program_or_example(self, capsys):
        from repro.run import main
        with pytest.raises(SystemExit):
            main([])

    def test_obs_breakdown_command(self, tmp_path, capsys):
        from repro.obs.cli import main
        merged = tmp_path / "m.json"
        rc = main(["breakdown", "example2", "--model", "SC",
                   "--stats-json", str(merged)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stall breakdown" in out
        snap = json.loads(merged.read_text())
        assert any(k.startswith("SC/baseline/cpu0/cycles/") for k in snap)

    def test_obs_convert_and_validate_commands(self, tmp_path, capsys):
        from repro.obs.cli import main
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text(TraceEvent(1, "cpu0", "retire", {"seq": 0}).to_json()
                         + "\n")
        trace_json = tmp_path / "t.json"
        assert main(["convert", str(jsonl), str(trace_json)]) == 0
        assert main(["validate", str(trace_json)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "?"}]}')
        assert main(["validate", str(bad)]) == 1
