"""Drives every benchmark workload at toy size.

    python -m pytest bench/e2e -q

Not part of tier-1: it checks the benchmark, not the program.
"""

from __future__ import annotations

import json
import os

import pytest

import run

#: constructor arguments that make a pass take well under a second
TOY = {
    "verify_campaign": {"campaigns": 2, "budget": 1},
    "guest_apps": {"scale": 1},
    "static_oracles": {"campaigns": 2, "budget": 12},
    "batch_legs": {"tests": 18, "engines": 3},
    "serve_cold": {"jobs": 17, "slices": 2},
    "serve_warm": {"jobs": 8, "rounds": 2, "slices": 2},
}
NAMES = [w["name"] for w in run.SPEC["workloads"]]


def test_every_workload_has_a_toy_size():
    assert sorted(TOY) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_the_end_to_end_metrics(name):
    record = run.measure(name, seed=3, seconds=0, trace=False,
                         sizes=TOY[name])
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert len(record["reps_wall_s"]) == run.MIN_REPS
    assert list(record["metrics"]) == [
        m["name"] for m in run.SPEC["end_to_end"]]
    for metric in run.SPEC["end_to_end"]:
        entry = record["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_the_per_layer_metrics(name):
    first = run.measure(name, seed=3, seconds=0, trace=True, sizes=TOY[name])
    with open(os.path.join(run.OUT, f"trace_{name}.json")) as fh:
        trace = json.load(fh)
    second = run.measure(name, seed=3, seconds=0, trace=True, sizes=TOY[name])

    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [
        m["name"] for m in run.SPEC["per_layer"]]
    # exact counters, and the outputs themselves, repeat across calls
    assert first["guest_digest"] == second["guest_digest"]
    for metric, entry in first["metrics"].items():
        if entry["unit"] in run.EXACT_UNITS:
            assert entry["value"] == second["metrics"][metric]["value"], metric

    # spans nest: a child lies inside its parent, on the parent's thread
    spans = trace["spans"]
    assert spans and spans[0][0] == "bench.pass"
    self_ns = [end - start for _n, start, end, *_ in spans]
    for _name, start, end, parent, _op, thread in spans:
        assert start <= end
        if parent >= 0:
            _pn, pstart, pend, _pp, _pop, pthread = spans[parent]
            assert pstart <= start and end <= pend and thread == pthread
            self_ns[parent] -= end - start
    # ... so on each thread self times sum to at most the pass wall
    per_thread = {}
    for span, own in zip(spans, self_ns):
        assert own >= 0
        per_thread[span[5]] = per_thread.get(span[5], 0) + own
    wall_ns = trace["summary"]["wall_s"] * 1e9
    assert max(per_thread.values()) <= wall_ns * 1.001


def test_a_failing_campaign_is_counted_not_replaced(monkeypatch, tmp_path):
    run._import_program()
    import workloads

    workload = workloads.VerifyCampaign(3, str(tmp_path), **TOY[
        "verify_campaign"])
    masters = list(workload.masters)
    real = workloads.run_fuzz

    def first_campaign_fails(**kwargs):
        status = real(**kwargs)
        return 1 if kwargs["seed"] == masters[0] else status

    monkeypatch.setattr(workloads, "run_fuzz", first_campaign_fails)
    done = workload.run_pass()
    assert list(workload.masters) == masters
    assert done.failed == done.ops // len(masters)


def test_a_failure_in_the_warm_up_pass_is_counted(monkeypatch):
    run._import_program()
    import workloads

    real = workloads.run_fuzz
    calls = []

    def first_call_fails(**kwargs):
        calls.append(kwargs["seed"])
        status = real(**kwargs)
        return 1 if len(calls) == 1 else status

    monkeypatch.setattr(workloads, "run_fuzz", first_call_fails)
    record = run.measure("verify_campaign", seed=3, seconds=0, trace=False,
                         sizes=TOY["verify_campaign"])
    # one campaign of one test: 64 legs
    assert not record["correct"] and record["failed"] == 64


def test_wall_is_the_sum_of_the_fastest_repetition_of_every_slice():
    run._import_program()
    from workloads import Pass

    passes = [Pass(ops=1, failed=0, slice_s=[1.0, 5.0], digest=""),
              Pass(ops=1, failed=0, slice_s=[3.0, 2.0], digest="")]
    assert run.fastest_s(passes) == 1.0 + 2.0


def test_compare_flags_a_regression_and_an_unequal_count(tmp_path, capsys):
    def result(wall, hits, digest="d" * 64):
        return {"seed": 0, "workloads": {"serve_warm": {
            "guest_digest": digest,
            "end_to_end": {"wall_s": {"value": wall, "unit": "s"}},
            "per_layer": {"serve.server.cache_hits":
                          {"value": hits, "unit": "count"}}}}}

    paths = []
    for content in (result(1.0, 8), result(1.05, 8), result(1.5, 8),
                    result(1.0, 7),
                    # repetitions that disagreed leave no digest
                    result(1.0, 8, digest=None),
                    # a workload may be absent
                    {"seed": 0, "workloads": {}}):
        paths.append(str(tmp_path / f"{len(paths)}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(content, fh)
    assert run.compare(paths[0], paths[1]) == 0
    assert run.compare(paths[0], paths[2]) == 1
    assert "OUTSIDE" in capsys.readouterr().out
    for a, b in ((0, 3), (4, 4), (0, 5)):
        assert run.compare(paths[a], paths[b]) == 1
        assert "DIFFERENT" in capsys.readouterr().out
