"""Determinism: identical inputs must produce identical simulations.

The conformance fuzzer, the golden-number pins, and corpus replay all
assume the stack is a pure function of (workload, model, config, seed):
same inputs, same cycle counts, same stats, same trace-event stream.
These tests pin that assumption directly, including across the sweep
engine's serial and parallel execution paths.
"""

from dataclasses import asdict

import pytest

from repro.consistency import RC, SC
from repro.consistency.litmus import STANDARD_TESTS, LitmusTest
from repro.serve.executors import execute_job
from repro.sim.sweep import derive_seed, run_sweep
from repro.sim.trace import TraceRecorder
from repro.system import run_workload
from repro.system.jobs import run_scalar
from repro.verify import check_seed, generate_litmus
from repro.verify.harness import (
    DEFAULT_RUN_CONFIGS,
    MODEL_NAMES,
    TECHNIQUE_COMBOS,
    leg_jobs,
    observed_outcome,
)
from repro.workloads import critical_section_workload


def _run_once(model, prefetch, speculation):
    wl = critical_section_workload(num_cpus=2, iterations=2,
                                   shared_counters=3, private=True)
    trace = TraceRecorder()
    result = run_workload(wl.programs, model=model, prefetch=prefetch,
                          speculation=speculation,
                          initial_memory=wl.initial_memory,
                          max_cycles=2_000_000, trace=trace)
    return (result.cycles,
            dict(result.machine.sim.stats.counters()),
            [ev.describe() for ev in trace.events])


class TestSimulatorDeterminism:
    def test_identical_runs_identical_everything(self):
        for model, pf, spec in ((SC, False, False), (SC, True, True),
                                (RC, True, True)):
            cycles_a, stats_a, trace_a = _run_once(model, pf, spec)
            cycles_b, stats_b, trace_b = _run_once(model, pf, spec)
            assert cycles_a == cycles_b
            assert stats_a == stats_b
            assert trace_a == trace_b

    def test_litmus_outcome_reproducible(self):
        test = generate_litmus(derive_seed(7, 0, "fuzz"))
        config = DEFAULT_RUN_CONFIGS[0]
        first = observed_outcome(test, "SC", True, True, config)
        assert all(observed_outcome(test, "SC", True, True, config) == first
                   for _ in range(2))


class TestOneLegBuilder:
    """The job server, the harness and a direct ``run_scalar`` call all
    run what ``leg_jobs`` builds, so they agree on every leg."""

    FUZZ_SEED = derive_seed(7, 0, "fuzz")

    @pytest.mark.parametrize("test_spec", [{"name": "MP"},
                                           {"seed": FUZZ_SEED}],
                             ids=["standard", "generated"])
    def test_served_local_and_batch_runner_agree(self, test_spec):
        test = (STANDARD_TESTS[test_spec["name"]]() if "name" in test_spec
                else generate_litmus(test_spec["seed"]))
        for config in DEFAULT_RUN_CONFIGS:
            served = execute_job({
                "test": test_spec, "model": "WC",
                "prefetch": True, "speculation": True,
                "run_config": asdict(config)})
            local = observed_outcome(test, "WC", True, True, config)
            (job,), (audit_map,) = leg_jobs(
                test, [("WC", True, True, config)])
            res = run_scalar(job)
            forced = tuple(sorted((reg, res.read_word(slot))
                                  for reg, slot in audit_map.items()))
            assert tuple(map(tuple, served["outcome"])) == local == forced
            assert served["cycles"] == res.cycles

    def test_programs_built_once_per_skew(self, monkeypatch):
        calls = []
        original = LitmusTest.to_programs

        def counting(self, *args, **kwargs):
            calls.append(kwargs.get("delays"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LitmusTest, "to_programs", counting)
        legs = [(model, prefetch, speculation, config)
                for model in MODEL_NAMES
                for prefetch, speculation in TECHNIQUE_COMBOS
                for config in DEFAULT_RUN_CONFIGS]
        jobs, _audit_maps = leg_jobs(generate_litmus(self.FUZZ_SEED), legs)
        assert len(jobs) == 64
        assert len(calls) == len(set(calls)) == len(DEFAULT_RUN_CONFIGS)


class TestSweepDeterminism:
    def test_seed_derivation_is_stable(self):
        # same master seed -> same stream, regardless of call order
        forward = [derive_seed(42, i, "fuzz") for i in range(8)]
        backward = [derive_seed(42, i, "fuzz") for i in reversed(range(8))]
        assert forward == list(reversed(backward))

    def test_serial_matches_parallel(self):
        items = [(i, derive_seed(5, i, "fuzz"), {}) for i in range(3)]
        serial = run_sweep(check_seed, items, jobs=1)
        parallel = run_sweep(check_seed, items, jobs=2)
        assert [(r.seed, r.num_runs, r.divergences)
                for r in serial.results] == \
               [(r.seed, r.num_runs, r.divergences)
                for r in parallel.results]
