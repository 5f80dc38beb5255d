"""The batched engine's headline contract: bit-identity with the
scalar kernel.

Every test here runs the same job through ``run_workload`` (the scalar
reference) and through :class:`~repro.sim.batch.runner.BatchRunner`,
then asserts **bit-identical** results: final cycle count, every
audited register/memory word, and the *complete* stats snapshot
(every counter and histogram bucket).  No tolerance, no sampling —
the batched engine is only allowed to be faster, never different.

Families:

1. the paper's example programs (example 1 batches; example 2 and
   figure 5 use a base-dependent load and must *fall back*, which the
   suite pins down via the result's ``backend`` field);
2. the named litmus suite x 4 models x 4 technique combos x the
   harness's default run configs;
3. generated fuzz litmus tests (seeded, deterministic) compared
   wholesale in one batch;
4. caches of one or two lines, where every access replaces one: the
   eviction and writeback paths the default geometry never reaches.
"""

import dataclasses

import pytest

from repro.consistency.litmus import STANDARD_TESTS
from repro.memory.types import CacheConfig
from repro.sim.batch import BatchJob, BatchRunner, job_unsupported_reason
from repro.sim.sweep import derive_seed
from repro.system.machine import run_workload
from repro.verify.generator import GeneratorConfig, generate_litmus
from repro.verify.harness import (
    DEFAULT_RUN_CONFIGS,
    MODEL_NAMES,
    TECHNIQUE_COMBOS,
    leg_jobs,
)
from repro.workloads import example1_program, example2_program, figure5_program
from repro.workloads.paper_examples import A, B, C, D, E_BASE, LOCK

from repro.consistency.models import get_model


# ----------------------------------------------------------------------
# Shared comparison machinery
# ----------------------------------------------------------------------

def scalar_reference(job: BatchJob):
    """Run one job on the scalar kernel (the ground truth)."""
    return run_workload(
        programs=job.programs,
        model=get_model(job.model_name),
        prefetch=job.prefetch,
        speculation=job.speculation,
        miss_latency=job.miss_latency,
        initial_memory=job.initial_memory,
        warm_lines=job.warm_lines,
        cache=job.cache,
        max_cycles=job.max_cycles,
    )


def assert_jobs_bit_identical(jobs, audit_addrs_per_job):
    """One BatchRunner call vs one scalar run per job; everything equal."""
    results = BatchRunner().run(jobs)
    assert len(results) == len(jobs)
    for job, res, audit_addrs in zip(jobs, results, audit_addrs_per_job):
        ref = scalar_reference(job)
        assert res.ok, f"batched error {res.error!r} vs scalar success"
        assert res.cycles == ref.cycles, (
            f"cycle mismatch: batched {res.cycles} vs scalar {ref.cycles} "
            f"({job.model_name}, prefetch={job.prefetch}, "
            f"speculation={job.speculation})")
        for addr in audit_addrs:
            assert res.read_word(addr) == ref.machine.read_word(addr), (
                f"memory mismatch at {addr} ({job.model_name})")
        assert res.stats.snapshot() == ref.stats.snapshot(), (
            f"stats snapshot mismatch ({job.model_name}, "
            f"prefetch={job.prefetch}, speculation={job.speculation})")


def litmus_jobs(test, model_name, prefetch, speculation, run_configs):
    """The harness's simulator legs for one test, as batch jobs."""
    jobs, audit_maps = leg_jobs(
        test, [(model_name, prefetch, speculation, rc) for rc in run_configs])
    return jobs, [sorted(audit_map.values()) for audit_map in audit_maps]


# ----------------------------------------------------------------------
# 1. Paper examples
# ----------------------------------------------------------------------

PAPER_AUDIT = (LOCK, A, B, C, D, E_BASE)


class TestPaperExamples:
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_example1_bit_identical(self, model_name):
        wl = example1_program()
        job = BatchJob(programs=[wl.program], model_name=model_name,
                       initial_memory=wl.initial_memory,
                       warm_lines=wl.warm_lines)
        assert job_unsupported_reason(job) is None
        assert_jobs_bit_identical([job], [PAPER_AUDIT])

    def test_example1_runs_batched(self):
        wl = example1_program()
        job = BatchJob(programs=[wl.program], model_name="WC",
                       initial_memory=wl.initial_memory,
                       warm_lines=wl.warm_lines)
        (res,) = BatchRunner().run([job])
        assert res.backend == "batched"

    @pytest.mark.parametrize("factory", [example2_program, figure5_program],
                             ids=["example2", "figure5"])
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_dependent_load_examples_fall_back(self, factory, model_name):
        # the base-dependent load (read E[D]) is outside the batch
        # envelope: the runner must route to the scalar kernel and
        # still produce identical results
        wl = factory()
        job = BatchJob(programs=[wl.program], model_name=model_name,
                       initial_memory=wl.initial_memory,
                       warm_lines=wl.warm_lines)
        reason = job_unsupported_reason(job)
        assert reason is not None and "fed by a load" in reason
        (res,) = BatchRunner().run([job])
        assert res.backend == "scalar"
        assert res.unsupported_reason == reason
        assert_jobs_bit_identical([job], [PAPER_AUDIT])


# ----------------------------------------------------------------------
# 2. Named litmus suite x models x techniques
# ----------------------------------------------------------------------

class TestNamedSuite:
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_conventional_full_config_axis(self, model_name):
        # conventional legs are the batch envelope: sweep every default
        # run config for every named test in one lockstep batch
        jobs, audits = [], []
        for name in sorted(STANDARD_TESTS):
            j, a = litmus_jobs(STANDARD_TESTS[name](), model_name,
                               False, False, DEFAULT_RUN_CONFIGS)
            jobs += j
            audits += a
        for job in jobs:
            assert job_unsupported_reason(job) is None
        assert_jobs_bit_identical(jobs, audits)

    @pytest.mark.parametrize("prefetch,speculation",
                             [t for t in TECHNIQUE_COMBOS if any(t)],
                             ids=["prefetch", "speculation", "both"])
    def test_technique_legs_fall_back_identically(self, prefetch, speculation):
        # techniques are outside the envelope: one run config per test
        # keeps this quick while pinning the fallback contract for
        # every named test under every model
        jobs, audits = [], []
        for name in sorted(STANDARD_TESTS):
            for model_name in MODEL_NAMES:
                j, a = litmus_jobs(STANDARD_TESTS[name](), model_name,
                                   prefetch, speculation,
                                   DEFAULT_RUN_CONFIGS[:1])
                jobs += j
                audits += a
        results = BatchRunner().run(jobs)
        for res in results:
            assert res.backend == "scalar"
            assert res.unsupported_reason is not None
        assert_jobs_bit_identical(jobs, audits)

    def test_mixed_batch_preserves_order_and_backends(self):
        # interleave batchable and fallback jobs: results come back in
        # input order with the right backend per slot
        test = STANDARD_TESTS["SB"]()
        jobs, audits = [], []
        for prefetch, speculation in TECHNIQUE_COMBOS:
            j, a = litmus_jobs(test, "PC", prefetch, speculation,
                               DEFAULT_RUN_CONFIGS[:2])
            jobs += j
            audits += a
        results = BatchRunner().run(jobs)
        backends = [r.backend for r in results]
        assert backends == ["batched"] * 2 + ["scalar"] * 6
        assert_jobs_bit_identical(jobs, audits)


# ----------------------------------------------------------------------
# 3. Generated fuzz tests, compared wholesale
# ----------------------------------------------------------------------

class TestGeneratedLitmus:
    def test_fuzz_population_bit_identical(self):
        jobs, audits = [], []
        for seed in range(12):
            test = generate_litmus(seed)
            for model_name in MODEL_NAMES:
                j, a = litmus_jobs(test, model_name, False, False,
                                   DEFAULT_RUN_CONFIGS)
                jobs += j
                audits += a
        results = BatchRunner().run(jobs)
        assert all(r.backend == "batched" for r in results)
        assert_jobs_bit_identical(jobs, audits)


# ----------------------------------------------------------------------
# 4. Replacement: caches too small for the working set
# ----------------------------------------------------------------------

class TestReplacement:
    #: (num_sets, assoc, line_size): every other test in the suite runs
    #: 64 sets x 4 ways, where a litmus test's few lines never collide,
    #: so the engine's eviction and writeback paths never run there
    GEOMETRIES = [(1, 1, 1), (1, 2, 1), (2, 1, 2)]

    def test_tiny_caches_evict_identically(self):
        tests = [STANDARD_TESTS[name]() for name in sorted(STANDARD_TESTS)]
        tests += [generate_litmus(derive_seed(7, i, "fuzz")) for i in range(4)]
        jobs = []
        for num_sets, assoc, line_size in self.GEOMETRIES:
            cache = CacheConfig(num_sets=num_sets, assoc=assoc,
                                line_size=line_size)
            for test in tests:
                for model_name in MODEL_NAMES:
                    legs, _ = litmus_jobs(test, model_name, False, False,
                                          DEFAULT_RUN_CONFIGS)
                    jobs += [dataclasses.replace(job, cache=cache)
                             for job in legs]
        batched = BatchRunner().run(jobs)
        scalar = BatchRunner(force_scalar=True).run(jobs)
        assert any(res.backend == "batched" for res in batched)
        replacements = 0
        for job, res, ref in zip(jobs, batched, scalar):
            where = (job.model_name, job.cache, job.miss_latency)
            assert res.ok == ref.ok, where
            assert res.cycles == ref.cycles, where
            snapshot = res.stats.snapshot()
            assert snapshot == ref.stats.snapshot(), where
            replacements += sum(value for name, value in snapshot.items()
                                if name.endswith("/replacements"))
        assert replacements > 0

