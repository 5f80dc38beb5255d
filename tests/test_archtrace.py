"""The canonical architectural event stream (``repro.obs.archtrace``)
and its first-divergence differ (``repro.obs.diff``).

Contracts pinned here:

1. **Schema units** — :func:`derive_arch_event` maps raw trace records
   to the canonical kinds (and drops timing-domain noise), events
   serialize canonically and round-trip, and a projection of a bounded
   recorder counts what the recorder discarded.
2. **Determinism** — the same leg produces byte-identical event bodies
   and footers run-over-run, and under serial vs parallel sweeps.
3. **Differ classes** — hand-crafted streams exercise all three
   divergence classes (architectural, final-state, timing-only) plus
   the identical verdict and the CLI exit codes.
"""

import json

from repro.consistency.litmus import STANDARD_TESTS
from repro.obs.archtrace import (
    ARCHTRACE_VERSION,
    ArchEvent,
    ArchTrace,
    _mk,
    derive_arch_event,
    read_archtrace,
)
from repro.obs.diff import diff_archtraces, diff_main
from repro.sim.sweep import run_sweep
from repro.sim.trace import TraceRecorder
from repro.system.jobs import run_scalar
from repro.verify.harness import DEFAULT_RUN_CONFIGS, leg_jobs


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------

def leg_trace(test, model_name, prefetch, speculation, run_config):
    """One archtrace-enabled run of a litmus leg; returns the
    byte-comparable body (event lines + footer)."""
    (job,), _audit = leg_jobs(
        test, [(model_name, prefetch, speculation, run_config)])
    job.archtrace = True
    res = run_scalar(job).raise_if_error()
    return res.archtrace.event_lines(), res.archtrace.footer()


def _sweep_leg(item):
    """Module-level (picklable) sweep worker: one leg's trace body."""
    name, model_name = item
    lines, footer = leg_trace(STANDARD_TESTS[name](), model_name,
                              False, False, DEFAULT_RUN_CONFIGS[0])
    return lines, json.dumps(footer, sort_keys=True)


# ----------------------------------------------------------------------
# 1. Schema units
# ----------------------------------------------------------------------

class TestDeriveArchEvent:
    def test_retire_from_core(self):
        ev = derive_arch_event(7, "cpu2", "retire",
                               {"seq": 3, "pc": 1, "op": "store",
                                "bound": False, "tag": "ST A"})
        assert ev is not None
        assert (ev.cycle, ev.cpu, ev.seq, ev.kind) == (7, 2, 3, "retire")
        assert "tag" not in dict(ev.detail)  # display-only, not canonical

    def test_load_and_store_complete_from_lsu(self):
        ld = derive_arch_event(9, "cpu0/lsu", "load_complete",
                               {"seq": 1, "addr": 16, "value": 5, "tag": "x"})
        st = derive_arch_event(9, "cpu0/lsu", "store_complete",
                               {"seq": 2, "addr": 20, "value": 1,
                                "rmw": False})
        rmw = derive_arch_event(9, "cpu0/lsu", "store_complete",
                                {"seq": 3, "addr": 24, "value": 0,
                                 "rmw": True})
        assert [e.kind for e in (ld, st, rmw)] == ["load", "store", "rmw"]

    def test_coherence_events_have_no_seq(self):
        fill = derive_arch_event(4, "cache1", "fill",
                                 {"line": 16, "state": "S"})
        inval = derive_arch_event(5, "cache1", "inval", {"line": 16})
        assert fill.seq == -1 and inval.seq == -1
        # seq=-1 is elided from the canonical JSON and restored on read
        assert '"seq"' not in fill.to_json()
        assert ArchEvent.from_json_obj(json.loads(fill.to_json())) == fill

    def test_timing_domain_records_are_dropped(self):
        assert derive_arch_event(1, "cpu0/lsu", "load_issue",
                                 {"seq": 0}) is None
        assert derive_arch_event(1, "dir/0", "txn_start",
                                 {"txn": 9}) is None
        assert derive_arch_event(1, "cpu0", "mispredict", {}) is None

    def test_sort_key_orders_within_a_cycle(self):
        retire = _mk(10, 0, 2, "retire", pc=2, op="alu", bound=True)
        fill = _mk(10, 0, -1, "fill", line=4, state="S")
        later = _mk(11, 0, 0, "retire", pc=0, op="alu", bound=True)
        events = sorted([later, fill, retire], key=lambda e: e.sort_key())
        # within a cycle, coherence events (seq == -1) sort before
        # instruction events, and cycles dominate everything
        assert events == [fill, retire, later]

    def test_arch_key_strips_the_cycle(self):
        a = _mk(10, 0, 2, "load", addr=16, value=1)
        b = _mk(999, 0, 2, "load", addr=16, value=1)
        assert a != b
        assert a.arch_key() == b.arch_key()


class TestCollector:
    def test_head_cap_keeps_earliest_and_counts_drops(self):
        tr = TraceRecorder(max_events=2)
        for cycle in range(5):
            tr.record(cycle, "cpu0", "retire",
                      seq=cycle, pc=cycle, op="alu", bound=True)
        arch = ArchTrace.from_events(tr.events, dropped=tr.dropped)
        assert [ev.cycle for ev in arch.events] == [0, 1]
        assert arch.dropped == 3
        assert arch.footer()["dropped"] == 3

    def test_write_read_round_trip(self, tmp_path):
        tr = TraceRecorder()
        tr.record(2, "cpu1", "retire", seq=0, pc=0, op="load", bound=True)
        tr.record(1, "cache0", "fill", line=16, state="S")
        tr.record(1, "dir", "txn_start", txn=3, line=16)  # not projected
        arch = ArchTrace.from_events(tr.events, cycles=42,
                                     final_memory={16: 7},
                                     breakdowns=[{"busy": 40, "idle": 2}])
        path = str(tmp_path / "t.jsonl")
        count = arch.write_jsonl(path, label="unit")
        assert count == 2
        header, events, footer = read_archtrace(path)
        assert header["archtrace"] == ARCHTRACE_VERSION
        assert header["backend"] == "scalar"
        assert [ev.cycle for ev in events] == [1, 2]   # canonical order
        assert [ev.to_json() for ev in events] == arch.event_lines()
        assert footer["cycles"] == 42
        assert footer["final_memory"] == {"16": 7}


# ----------------------------------------------------------------------
# 2. Determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_repeated_scalar_runs_are_bit_identical(self):
        test = STANDARD_TESTS["SB"]()
        first = leg_trace(test, "WC", False, False, DEFAULT_RUN_CONFIGS[0])
        second = leg_trace(test, "WC", False, False, DEFAULT_RUN_CONFIGS[0])
        assert first == second

    def test_archtrace_survives_speculative_legs(self):
        # speculation exercises squash/rollback emission; determinism
        # must hold there too
        test = STANDARD_TESTS["MP"]()
        first = leg_trace(test, "RC", True, True, DEFAULT_RUN_CONFIGS[1])
        second = leg_trace(test, "RC", True, True, DEFAULT_RUN_CONFIGS[1])
        assert first == second

    def test_serial_and_parallel_sweeps_agree(self):
        items = [(name, model)
                 for name in ("SB", "MP", "LB")
                 for model in ("SC", "RC")]
        serial = run_sweep(_sweep_leg, items, jobs=1)
        parallel = run_sweep(_sweep_leg, items, jobs=2)
        assert list(serial.results) == list(parallel.results)


# ----------------------------------------------------------------------
# 3. Differ classes on hand-crafted streams
# ----------------------------------------------------------------------

def _instr_stream():
    """A tiny two-CPU instruction stream (the shared fixture base)."""
    return [
        _mk(0, 0, -1, "fill", line=16, state="S"),
        _mk(3, 0, 0, "retire", pc=0, op="store", bound=False),
        _mk(5, 0, 0, "store", addr=16, value=1),
        _mk(6, 1, 0, "retire", pc=0, op="load", bound=True),
        _mk(6, 1, 0, "load", addr=16, value=0),
    ]


def _write(path, events, cycles=10, memory=None, breakdowns=None,
           dropped=0):
    ArchTrace(events, cycles=cycles, final_memory=memory or {16: 1},
              breakdowns=breakdowns or [], dropped=dropped,
              ).write_jsonl(str(path), label="fixture")
    return str(path)


class TestDifferClasses:
    def test_identical(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", _instr_stream())
        b = _write(tmp_path / "b.jsonl", _instr_stream())
        report = diff_archtraces(a, b)
        assert report.classification == "identical"
        assert not report.divergent
        assert report.events_a == report.events_b == 5

    def test_timing_only(self, tmp_path):
        shifted = [ArchEvent(ev.cycle + 2, ev.cpu, ev.seq, ev.kind,
                             ev.detail)
                   for ev in _instr_stream()]
        a = _write(tmp_path / "a.jsonl", _instr_stream(), cycles=10,
                   breakdowns=[{"busy": 6, "read_stall": 4}])
        b = _write(tmp_path / "b.jsonl", shifted, cycles=12,
                   breakdowns=[{"busy": 6, "read_stall": 6}])
        report = diff_archtraces(a, b)
        assert report.classification == "timing-only"
        assert report.first_raw_index == 0
        assert report.cycles_b - report.cycles_a == 2
        assert report.blame_delta[0] == {"busy": 0, "read_stall": 2}

    def test_architectural_value_mismatch(self, tmp_path):
        mutated = _instr_stream()
        mutated[4] = _mk(6, 1, 0, "load", addr=16, value=1)  # stale read
        a = _write(tmp_path / "a.jsonl", _instr_stream())
        b = _write(tmp_path / "b.jsonl", mutated)
        report = diff_archtraces(a, b)
        assert report.classification == "architectural"
        assert report.arch_cpu == 1
        assert "value=0" in report.arch_event_a
        assert "value=1" in report.arch_event_b
        assert "--- divergence ---" in report.context_a

    def test_architectural_missing_event(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", _instr_stream())
        b = _write(tmp_path / "b.jsonl", _instr_stream()[:-1])
        report = diff_archtraces(a, b)
        assert report.classification == "architectural"
        assert report.arch_cpu == 1
        assert report.arch_event_b is None

    def test_final_state(self, tmp_path):
        # identical streams that end in different memory: the divergence
        # is outside the traced window
        a = _write(tmp_path / "a.jsonl", _instr_stream(), memory={16: 1})
        b = _write(tmp_path / "b.jsonl", _instr_stream(), memory={16: 2})
        report = diff_archtraces(a, b)
        assert report.classification == "final-state"
        assert report.memory_delta == {"16": (1, 2)}

    def test_timing_perturbed_coherence_is_not_architectural(self, tmp_path):
        # an extra eviction/refill (timing-domain) must not be called
        # an architectural divergence
        noisy = _instr_stream()
        noisy.insert(3, _mk(4, 0, -1, "evict", line=16, state="S"))
        noisy.insert(4, _mk(5, 0, -1, "fill", line=16, state="S"))
        a = _write(tmp_path / "a.jsonl", _instr_stream())
        b = _write(tmp_path / "b.jsonl", noisy)
        report = diff_archtraces(a, b)
        assert report.classification == "timing-only"

    def test_incomplete_streams_are_flagged(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", _instr_stream(), dropped=7)
        b = _write(tmp_path / "b.jsonl", _instr_stream())
        report = diff_archtraces(a, b)
        assert report.incomplete
        assert "incomplete" in report.describe()

    def test_report_round_trips_through_dict(self, tmp_path):
        a = _write(tmp_path / "a.jsonl", _instr_stream())
        b = _write(tmp_path / "b.jsonl", _instr_stream()[:-1])
        report = diff_archtraces(a, b)
        again = type(report).from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert again.classification == report.classification
        assert again.memory_delta == report.memory_delta
        assert again.describe() == report.describe()

    def test_diff_main_exit_codes(self, tmp_path, capsys):
        a = _write(tmp_path / "a.jsonl", _instr_stream())
        b = _write(tmp_path / "b.jsonl", _instr_stream())
        assert diff_main(a, b) == 0
        c = _write(tmp_path / "c.jsonl", _instr_stream()[:-1])
        assert diff_main(a, c, as_json=True) == 1
        out = capsys.readouterr().out
        assert "identical" in out and "architectural" in out
