"""Property-based invariants of the batched lockstep engine.

Lanes are independent simulations: nothing a lane computes may depend
on *which other lanes* share its engine, where it sits in the job
list, how the runner chunks the list, or which backend ran a
neighbouring job.  Hypothesis drives those degrees of freedom:

* **permutation invariance** — shuffling the job list permutes the
  results and changes nothing else;
* **split/pad invariance** — running a job list in one call, in two
  split calls, via a different ``chunk_size``, or padded with extra
  lanes yields identical per-job results;
* **scalar agreement** — a generated litmus test under a drawn
  (model, run-config) leg matches the scalar kernel bit-for-bit
  (cycles, outcomes, full stats snapshot).

Comparisons always include the full stats snapshot, so any lane
cross-talk in the SoA tables (a mask off by one lane, a shared
accumulator) surfaces as a failure here.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.batch import BatchJob, BatchRunner
from repro.system.machine import run_workload
from repro.verify.generator import GeneratorConfig, generate_litmus
from repro.verify.harness import DEFAULT_RUN_CONFIGS, MODEL_NAMES, leg_jobs

from repro.consistency.models import get_model


def make_job(seed: int, model_name: str, rc) -> BatchJob:
    """One conventional harness leg for generated test ``seed``, its
    start skew compiled into the programs as a chain of adds (the
    engine runs no start cycle)."""
    test = generate_litmus(seed)
    (job,), (audit_map,) = leg_jobs(test, [(model_name, False, False, rc)])
    job.programs = tuple(test.to_programs(delays=job.starts)[0])
    job.starts = ()
    job.key = (seed, model_name, rc.name, sorted(audit_map.values()))
    return job


def fingerprint(res):
    """Everything observable about one result (order-independent)."""
    seed, model_name, rc_name, audit = res.job.key
    outcome = tuple(res.read_word(addr) for addr in audit)
    return (seed, model_name, rc_name, res.backend, res.cycles, outcome,
            tuple(sorted(res.stats.snapshot().items())))


job_axis = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.sampled_from(MODEL_NAMES),
    st.integers(min_value=0, max_value=len(DEFAULT_RUN_CONFIGS) - 1),
)


class TestBatchInvariance:
    @given(axes=st.lists(job_axis, min_size=2, max_size=10, unique=True),
           rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_permuting_jobs_permutes_results(self, axes, rng_seed):
        jobs = [make_job(s, m, DEFAULT_RUN_CONFIGS[c]) for s, m, c in axes]
        shuffled = list(jobs)
        random.Random(rng_seed).shuffle(shuffled)
        base = {id(j): fingerprint(r)
                for j, r in zip(jobs, BatchRunner().run(jobs))}
        for job, res in zip(shuffled, BatchRunner().run(shuffled)):
            assert fingerprint(res) == base[id(job)]

    @given(axes=st.lists(job_axis, min_size=2, max_size=10, unique=True),
           cut=st.integers(min_value=0, max_value=10),
           chunk=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_splitting_and_chunking_change_nothing(self, axes, cut, chunk):
        jobs = [make_job(s, m, DEFAULT_RUN_CONFIGS[c]) for s, m, c in axes]
        cut = min(cut, len(jobs))
        base = [fingerprint(r) for r in BatchRunner().run(jobs)]
        runner = BatchRunner()
        split = ([fingerprint(r) for r in runner.run(jobs[:cut])]
                 + [fingerprint(r) for r in runner.run(jobs[cut:])])
        assert split == base
        rechunked = [fingerprint(r)
                     for r in BatchRunner(chunk_size=chunk).run(jobs)]
        assert rechunked == base

    @given(axes=st.lists(job_axis, min_size=1, max_size=6, unique=True),
           pad_seeds=st.lists(st.integers(min_value=61, max_value=90),
                              min_size=1, max_size=6, unique=True))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_padding_with_extra_lanes_changes_nothing(self, axes, pad_seeds):
        jobs = [make_job(s, m, DEFAULT_RUN_CONFIGS[c]) for s, m, c in axes]
        pad = [make_job(s, "SC", DEFAULT_RUN_CONFIGS[0]) for s in pad_seeds]
        base = [fingerprint(r) for r in BatchRunner().run(jobs)]
        padded = [fingerprint(r) for r in BatchRunner().run(jobs + pad)]
        assert padded[:len(jobs)] == base


class TestScalarAgreement:
    @given(seed=st.integers(min_value=0, max_value=500),
           model_name=st.sampled_from(MODEL_NAMES),
           config_index=st.integers(min_value=0,
                                    max_value=len(DEFAULT_RUN_CONFIGS) - 1))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_litmus_matches_scalar(self, seed, model_name,
                                             config_index):
        job = make_job(seed, model_name, DEFAULT_RUN_CONFIGS[config_index])
        (res,) = BatchRunner().run([job])
        assert res.backend == "batched"
        ref = run_workload(
            programs=job.programs, model=get_model(job.model_name),
            miss_latency=job.miss_latency,
            initial_memory=job.initial_memory, warm_lines=job.warm_lines,
            cache=job.cache, max_cycles=job.max_cycles)
        assert res.cycles == ref.cycles
        _seed, _model, _rc, audit = job.key
        for addr in audit:
            assert res.read_word(addr) == ref.machine.read_word(addr)
        assert res.stats.snapshot() == ref.stats.snapshot()
