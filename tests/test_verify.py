"""Tests for the differential conformance fuzzer (``repro.verify``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.consistency import SC, get_model
from repro.consistency.litmus import (
    LitmusOp,
    LitmusTest,
    read,
    store_buffering,
    write,
)
from repro.sim.errors import ConfigurationError
from repro.sim.sweep import derive_seed, run_sweep
from repro.verify import (
    Corpus,
    CorpusEntry,
    GeneratorConfig,
    HarnessConfig,
    RunConfig,
    check_seed,
    check_test,
    generate_litmus,
    litmus_from_dict,
    litmus_to_dict,
    minimize,
    observed_outcome,
    replay_corpus,
)
from tests.conftest import child_env

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------

class TestGenerator:
    def test_deterministic(self):
        a = generate_litmus(1234)
        b = generate_litmus(1234)
        assert a.threads == b.threads
        assert a.name == b.name

    def test_seeds_differ(self):
        tests = {tuple(tuple(t) for t in generate_litmus(s).threads)
                 for s in range(20)}
        assert len(tests) > 10

    def test_respects_config_bounds(self):
        config = GeneratorConfig()
        for seed in range(50):
            test = generate_litmus(seed, config)
            assert config.min_cpus <= len(test.threads) <= config.max_cpus
            total = sum(len(t) for t in test.threads)
            assert total <= config.max_total_ops
            for thread in test.threads:
                assert (config.min_ops_per_thread <= len(thread)
                        <= config.max_ops_per_thread)

    def test_generated_tests_are_interesting(self):
        # two threads must race on some address, else every model agrees
        for seed in range(30):
            test = generate_litmus(seed)
            shared = {}
            for tid, ops in enumerate(test.threads):
                for op in ops:
                    if op.op != "F":
                        shared.setdefault(op.addr, set()).add(tid)
            assert any(len(tids) >= 2 for tids in shared.values())

    def test_registers_unique(self):
        for seed in range(30):
            test = generate_litmus(seed)
            regs = [op.reg for t in test.threads for op in t if op.reads]
            assert len(regs) == len(set(regs))

    def test_addresses_resolve(self):
        for seed in range(20):
            test = generate_litmus(seed)
            assert test.addresses()  # raises if an address is unknown

    def test_config_round_trip(self):
        config = GeneratorConfig(max_cpus=3, sync_probability=0.5)
        assert GeneratorConfig.from_dict(config.to_dict()) == config

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(min_cpus=5, max_cpus=4)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(max_total_ops=3, max_cpus=4)

    # each of these used to pass construction and die later: the first
    # three at the first generate_litmus with "empty range for
    # randrange()", the last on whichever seed drew 13 accesses
    @pytest.mark.parametrize("field,kwargs", [
        ("max_addrs", {"max_addrs": 0}),
        ("min_ops_per_thread", {"min_ops_per_thread": 3,
                                "max_ops_per_thread": 2}),
        ("max_value", {"max_value": 0}),
        ("max_total_ops", {"max_total_ops": LitmusTest.MAX_ACCESSES + 1}),
    ], ids=["max_addrs", "min_ops_per_thread", "max_value", "max_total_ops"])
    def test_config_rejects_what_generation_cannot_draw(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=field):
            GeneratorConfig(**kwargs)

    def test_config_accepts_the_enumeration_cap_itself(self):
        config = GeneratorConfig(max_total_ops=LitmusTest.MAX_ACCESSES)
        for seed in range(20):
            total = sum(len(t) for t in generate_litmus(seed, config).threads)
            assert total <= LitmusTest.MAX_ACCESSES == 12

    def test_enumeration_affordable(self):
        # generated tests must stay enumerable under every model
        for seed in range(10):
            test = generate_litmus(seed)
            assert test.outcomes(SC)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

#: one small config cell so harness tests stay fast
FAST = HarnessConfig(
    models=("SC", "RC"),
    techniques=((False, False), (True, True)),
    run_configs=(RunConfig(name="fast", miss_latency=20, skew=(0, 7),
                           warm_shared=True),),
)


class TestHarness:
    def test_store_buffering_clean(self):
        result = check_test(store_buffering(), FAST)
        assert result.ok
        assert result.num_runs == 2 * 2 * 1

    def test_observed_outcome_shape(self):
        test = store_buffering()
        outcome = observed_outcome(test, "SC", False, False,
                                   FAST.run_configs[0])
        assert outcome in test.outcomes(SC)

    def test_generated_seeds_clean(self):
        for seed in range(5):
            test = generate_litmus(derive_seed(0, seed, "fuzz"))
            assert check_test(test, FAST).ok

    def test_simulator_legs_start_from_the_initial_memory(self):
        # both static oracles honour ``initial``; the simulator legs
        # once started every location at 0 and read r0=0
        test = LitmusTest("initial-x", [[read("x", "r0")], [write("y", 1)]],
                          initial={"x": 5})
        result = check_test(test, HarnessConfig(models=("SC",)))
        assert result.ok, [d.describe() for d in result.divergences]
        assert observed_outcome(test, "SC", False, False,
                                FAST.run_configs[0]) == (("r0", 5),)

    def test_check_seed_worker(self):
        item = (3, derive_seed(0, 3, "fuzz"), {})
        result = check_seed(item)
        assert result.index == 3
        assert result.seed == item[1]
        assert result.ok

    def test_check_seed_through_parallel_sweep(self):
        # exercises pickling of items and CheckResults across processes
        items = [(i, derive_seed(0, i, "fuzz"), {}) for i in range(2)]
        sweep = run_sweep(check_seed, items, jobs=2)
        assert all(r.ok for r in sweep.results)


class TestRunConfig:
    """A run configuration refuses, in-process, what no machine runs
    (the job server maps the same refusals to protocol errors)."""

    @pytest.mark.parametrize("fields", [
        {"skew": ()},         # leg_jobs would divide by zero
        {"skew": (0, -5)},    # would compile one extra ``mov``
        {"line_size": 0},
        {"miss_latency": 2},
        {"max_cycles": 0},
    ])
    def test_refuses_an_unrunnable_configuration(self, fields):
        with pytest.raises(ConfigurationError):
            RunConfig(name="bad", **fields)


# ----------------------------------------------------------------------
# Minimizer
# ----------------------------------------------------------------------

class TestMinimize:
    def test_minimizes_with_synthetic_oracle(self):
        # "bug": any test where thread A writes x and thread B reads x
        def oracle(test):
            writers = {tid for tid, ops in enumerate(test.threads)
                       for op in ops if op.writes and op.addr == "x"}
            readers = {tid for tid, ops in enumerate(test.threads)
                       for op in ops if op.reads and op.addr == "x"}
            return bool(writers and readers - writers)

        fat = LitmusTest("fat", threads=[
            [write("x", 1), write("y", 2), read("flag", "a")],
            [read("y", "b"), read("x", "c", acquire=True)],
            [write("data", 3), read("data", "d")],
        ])
        result = minimize(fat, oracle=oracle)
        assert oracle(result.test)
        assert result.ops_after == 2
        assert len(result.test.threads) == 2
        # the acquire annotation is stripped too
        assert not any(op.acquire or op.release
                       for t in result.test.threads for op in t)

    def test_keeps_irreducible_test(self):
        test = store_buffering()
        result = minimize(test, oracle=lambda t: True)
        assert result.ops_after <= 4
        assert len(result.test.threads) == 2

    def test_oracle_budget_respected(self):
        calls = []

        def oracle(test):
            calls.append(1)
            return False

        minimize(store_buffering(), oracle=oracle, max_oracle_calls=7)
        assert len(calls) <= 7


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------

class TestCorpus:
    def test_litmus_round_trip(self):
        for seed in range(10):
            test = generate_litmus(seed)
            again = litmus_from_dict(
                json.loads(json.dumps(litmus_to_dict(test))))
            assert again.threads == test.threads
            assert again.name == test.name

    def test_save_load(self, tmp_path):
        test = generate_litmus(7)
        corpus = Corpus()
        corpus.add(CorpusEntry(master_seed=0, index=7, derived_seed=99,
                               test=litmus_to_dict(test), divergences=[]))
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert len(loaded.entries) == 1
        assert loaded.entries[0].litmus().threads == test.threads
        assert loaded.entries[0].minimized_litmus().threads == test.threads


# ----------------------------------------------------------------------
# CLI and fault injection
# ----------------------------------------------------------------------

def _run_verify(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.verify", *args],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env=child_env(),
        timeout=540)


class TestCli:
    def test_clean_budget_exits_zero(self):
        proc = _run_verify("--budget", "4", "--seed", "0", "--quiet",
                           "--no-minimize")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.fixture(scope="class")
    def fault_campaign(self, tmp_path_factory):
        """One slb-deaf self-test campaign, shared by the tests below."""
        corpus_path = tmp_path_factory.mktemp("selftest") / "corpus.json"
        proc = _run_verify("--budget", "25", "--seed", "0",
                           "--fault", "slb-deaf", "--no-minimize",
                           "--localize", "--corpus", str(corpus_path))
        return proc, corpus_path

    @pytest.mark.slow
    def test_fault_injection_is_caught_and_localized(self, fault_campaign):
        proc, corpus_path = fault_campaign
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL" in proc.stdout
        corpus = Corpus.load(corpus_path)
        assert corpus.entries
        entry = corpus.entries[0]
        assert entry.fault == "slb-deaf"
        # the localizer must have pinned the injected fault to its
        # first divergent architectural event against a clean reference
        loc = entry.localization
        assert loc is not None and loc["fault"] == "slb-deaf"
        reports = loc["reports"]
        assert set(reports) == {"scalar-vs-scalar"}
        for name, report in reports.items():
            assert report["classification"] == "architectural", name
            assert report["arch_event_a"] or report["arch_event_b"], name
        for path_a, path_b in loc["artifacts"].values():
            assert Path(path_a).exists() and Path(path_b).exists()
            assert str(corpus_path) in path_a  # lands next to the corpus

    @pytest.mark.slow
    def test_replay_reapplies_the_recorded_fault(self, fault_campaign,
                                                 tmp_path):
        _, corpus_path = fault_campaign
        proc = _run_verify("--replay", str(corpus_path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "STILL FAILING" in proc.stdout

        # the same tests without the fault are what a fixed bug looks like
        payload = json.loads(corpus_path.read_text())
        for entry in payload["entries"]:
            entry["fault"] = None
        fixed = tmp_path / "fixed.json"
        fixed.write_text(json.dumps(payload))
        proc = _run_verify("--replay", str(fixed))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "replay: OK" in proc.stdout

    def test_suite_failures_land_in_a_replayable_corpus(self, tmp_path,
                                                        capsys):
        from repro.verify.cli import main

        corpus_path = tmp_path / "corpus.json"
        assert main(["--suite", "--fault", "slb-deaf", "--no-minimize",
                     "--no-ledger", "--quiet",
                     "--corpus", str(corpus_path)]) == 1
        assert "FAIL test 'store-buffering'" in capsys.readouterr().out
        corpus = Corpus.load(corpus_path)
        assert {entry.fault for entry in corpus.entries} == {"slb-deaf"}
        assert len(replay_corpus(corpus)) == len(corpus.entries)

    def test_fault_does_not_outlive_its_campaign(self):
        from repro.core.speculation import SpeculativeLoadBuffer
        from repro.verify.cli import run_fuzz

        on_snoop = SpeculativeLoadBuffer.on_snoop
        run_fuzz(budget=2, jobs=1, seed=0, fault="slb-deaf",
                 do_minimize=False, corpus_path=None, quiet=True, ledger=False)
        assert SpeculativeLoadBuffer.on_snoop is on_snoop
        assert run_fuzz(budget=25, jobs=1, seed=0, corpus_path=None,
                        quiet=True, ledger=False) == 0

    def test_replay_of_unreadable_corpus_exits_2(self, tmp_path):
        entry = {"master_seed": 0, "index": 0, "derived_seed": 0,
                 "divergences": []}
        bad = {
            "not-json": "not json",
            "list": "[]",
            "entries-not-a-list": '{"entries": {}}',
            "unknown-key": '{"entries": [{"bogus": 1}]}',
            "missing-key": json.dumps({"entries": [{"test": {}}]}),
            "not-a-test": json.dumps(
                {"entries": [{**entry, "test": {"threads": [[{}]]}}]}),
        }
        paths = [tmp_path / "missing.json"]
        for name, text in bad.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(text)
        for path in paths:
            proc = _run_verify("--replay", str(path))
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert proc.stderr.startswith("error: cannot read corpus")
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--jobs", "--budget"])
    def test_zero_count_exits_2_not_1(self, flag, capsys):
        # exit 1 means "divergence found"; a bad count is a usage error
        from repro.verify.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--budget", "2", flag, "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument {flag}: must be >= 1, got 0")


class TestCanonicalRequest:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fuzz_request_hash_pinned_whatever_the_jobs(self, jobs, tmp_path):
        # the request hash is the result-cache key and must survive the
        # batch deletion (ROADMAP item 3); how a campaign is executed is
        # not part of what was asked
        from repro.obs.ledger import read_ledger
        from repro.verify.cli import run_fuzz

        led = str(tmp_path / "ledger.jsonl")
        assert run_fuzz(budget=2, jobs=jobs, seed=0, quiet=True,
                        corpus_path=None, ledger_path=led) == 0
        (record,), skipped = read_ledger(led)
        assert skipped == 0
        assert record["request_sha256"].startswith("fa4dcdee35a1")
        assert record["outcome"]["simulator_runs"] == 128


class TestCampaignTelemetryEndToEnd:
    """ISSUE acceptance: one --jobs 4 campaign produces a merged
    Perfetto trace that validates, a Prometheus snapshot whose leg
    counter equals the reported leg count, and a ledger record whose
    request hash is bit-identical across two identical invocations."""

    CAMPAIGN = ("--budget", "4", "--seed", "0", "--jobs", "4",
                "--no-minimize", "--quiet")

    def _campaign(self, tmp_path, tag):
        stats = tmp_path / f"stats-{tag}.json"
        prom = tmp_path / f"metrics-{tag}.prom"
        spans = tmp_path / f"spans-{tag}.json"
        led = tmp_path / "ledger.jsonl"
        proc = _run_verify(*self.CAMPAIGN,
                           "--stats-json", str(stats),
                           "--prometheus", str(prom),
                           "--trace-spans", str(spans),
                           "--ledger", str(led))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return stats, prom, spans, led

    def test_serial_and_pool_campaigns_write_the_same_artifacts(
            self, tmp_path):
        import collections
        import json

        written = {}
        for jobs in ("1", "2"):
            files = [tmp_path / f"{kind}-{jobs}" for kind in
                     ("stats", "prom", "spans")]
            proc = _run_verify(
                "--budget", "6", "--seed", "0", "--no-minimize", "--quiet",
                "--no-ledger", "--jobs", jobs, "--stats-json", str(files[0]),
                "--prometheus", str(files[1]), "--trace-spans", str(files[2]))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            spans = collections.Counter(
                e["name"] for e in json.loads(files[2].read_text())[
                    "traceEvents"] if e["ph"] == "X")
            written[jobs] = (files[0].read_bytes(), files[1].read_bytes(),
                             spans)
        assert written["1"] == written["2"]
        stats, prom, spans = written["1"]
        assert json.loads(stats) == {"sweep/items": 6, "verify/legs": 384,
                                     "verify/orderings": 16,
                                     "verify/tests": 6}
        assert prom.decode().splitlines()[1::2] == [
            "repro_sweep_items_total 6", "repro_verify_legs_total 384",
            "repro_verify_orderings_total 16", "repro_verify_tests_total 6"]
        assert spans == {"verify/campaign": 1, "sweep/run": 1,
                         "sweep/item": 6}

    @pytest.mark.slow
    def test_campaign_artifacts_and_ledger_dedupe(self, tmp_path):
        import json

        from repro.obs import ledger as ledger_mod
        from repro.obs.perfetto import validate_trace_events

        stats, prom, spans, led = self._campaign(tmp_path, "a")

        # merged multi-process span trace validates structurally
        trace = json.loads(spans.read_text())
        assert validate_trace_events(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert len(pids) > 1, "worker spans must merge into one trace"

        # leg counter == the leg count the ledger/harness reports
        snapshot = json.loads(stats.read_text())
        legs = snapshot["verify/legs"]
        records, skipped = ledger_mod.read_ledger(str(led))
        assert skipped == 0 and len(records) == 1
        assert records[0]["kind"] == "fuzz"
        assert records[0]["items"] == legs
        assert records[0]["outcome"]["simulator_runs"] == legs
        assert f"repro_verify_legs_total {legs}" in prom.read_text()

        # second identical invocation: bit-identical request hash,
        # detected and reported as a dedupe hit
        self._campaign(tmp_path, "b")
        records, _ = ledger_mod.read_ledger(str(led))
        assert len(records) == 2
        assert records[0]["request_sha256"] == records[1]["request_sha256"]
        stats_out = ledger_mod.ledger_stats(records)
        assert stats_out["dedupe_hits"] == 1
        assert stats_out["inconsistent_hits"] == 0
