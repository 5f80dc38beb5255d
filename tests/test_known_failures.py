"""Known wrong answers, pinned as strict expected failures, and the
machine bugs that once were, kept as plain regression tests.

The strict expected failures reproduce open bugs: a speculative-load
outcome outside the permitted set, and a gap in what the fuzzer
detects.  ``strict=True`` turns a fix into a loud event: the day a case
passes, the run fails until its marker is removed, and ``raises=``
fails the run if the case starts failing some *other* way.

The plain tests are the machine bugs found while sizing the repo
benchmark (see "Inputs kept out" in ``bench/e2e/README.md``), each of
which sat on a retry or hand-off path the machine no longer has:

* (a) the directory ran two transactions on one line when a request
  arrived in the cycle its queued predecessor was handed the line;
* (b) a load the cache refused (every MSHR taken) was dropped from the
  ready list and never issued;
* (c) a fill with no victim way retried a cycle later, so a RECALL or
  INVAL for the same line overtook it (a fill now never waits for a
  way: parked behind its line's later messages instead, it deadlocks
  when two caches' fills each wait behind the other's invalidation);
* (d) an INVALID way whose address had a miss outstanding was refused
  as a victim, so two caches could each park a fill behind the other's
  recall.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.consistency.models import get_model
from repro.memory.types import CacheConfig
from repro.sim.sweep import derive_seed
from repro.system.jobs import run_scalar
from repro.system.machine import run_workload
from repro.verify.generator import generate_litmus
from repro.verify.harness import DEFAULT_RUN_CONFIGS, check_seed, leg_jobs
from repro.workloads import (
    barrier_workload,
    critical_section_workload,
    grid_relaxation_workload,
    random_sharing_workload,
)
from tests.conftest import child_env


def run(workload, model_name, prefetch, speculation, **kw):
    result = run_workload(workload.programs, model=get_model(model_name),
                          prefetch=prefetch, speculation=speculation,
                          miss_latency=100,
                          initial_memory=workload.initial_memory, **kw)
    for addr, value in workload.expectations:
        assert result.machine.read_word(addr) == value
    return result


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="PC, speculation on, prefetch off, warm-tight: "
                          "observed outcome outside the enumerator's "
                          "permitted set — a live counter-example to the "
                          "claim that speculative loads are invisible")
def test_fuzz_seed_6869698602657654992_conforms():
    result = check_seed((0, 6869698602657654992, {}))
    assert result.ok, [d.describe() for d in result.divergences]


def test_contended_critical_section_with_prefetch_completes():
    # (a): "recall_ack does not match the busy transaction"
    run(critical_section_workload(num_cpus=4, iterations=4,
                                  shared_counters=3, private=False),
        "SC", prefetch=True, speculation=False)


def test_grid_relaxation_with_prefetch_completes():
    # (b): prefetches fill the MSHRs, and a refused load was lost
    run(grid_relaxation_workload(4, 8, 2), "RC",
        prefetch=True, speculation=False)


def test_random_sharing_with_both_techniques_completes():
    # (a), with both techniques on
    run(random_sharing_workload(4, 200, rng=1), "SC",
        prefetch=True, speculation=True)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fuzzer must catch slb-forgets-acquires: with "
                          "the fault injected the campaign still exits 0 "
                          "(so does --budget 100), while the same budget "
                          "catches slb-deaf in tests/test_verify.py")
def test_fuzzer_catches_slb_forgets_acquires():
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "repro.verify", "--budget", "25", "--jobs", "2",
         "--seed", "0", "--fault", "slb-forgets-acquires", "--no-minimize",
         "--quiet", "--no-ledger"],
        capture_output=True, text=True, cwd=repo,
        env=child_env(),
        timeout=540)
    assert proc.returncode == 1, proc.stdout + proc.stderr


def test_fills_never_wait_for_a_way():
    # (c): at 4 sets x 1 way, with the prefetcher filling sets with
    # lines whose misses are in flight, a parked fill deadlocks here
    run(barrier_workload(4, phases=2), "WC", prefetch=True,
        speculation=True, cache=CacheConfig(num_sets=4, assoc=1))


# Seed-0 fuzz items whose legs wedged or raised at hostile cache
# geometries while the machine still retried and polled.
HOSTILE_LEGS = [
    # item, model, prefetch, speculation, geometry, error at the time
    pytest.param(9, "WC", False, False, dict(num_sets=4, assoc=1),
                 id="c-parked-fill-overtaken-DeadlockError"),
    pytest.param(17, "SC", False, True, dict(num_sets=4, assoc=1),
                 id="d-invalid-way-refused-DeadlockError"),
    pytest.param(10, "SC", True, False, dict(num_sets=4, assoc=1),
                 id="a-two-transactions-KeyError"),
    pytest.param(1, "PC", False, False, dict(mshr_entries=1),
                 id="b-refused-load-lost-DeadlockError"),
]


@pytest.mark.parametrize("item,model,prefetch,speculation,geometry",
                         HOSTILE_LEGS)
def test_hostile_geometry_leg_completes(item, model, prefetch, speculation,
                                        geometry):
    test = generate_litmus(derive_seed(0, item, "fuzz"))
    run_config = next(rc for rc in DEFAULT_RUN_CONFIGS
                      if rc.name == "cold-skewed")
    (job,), (audit_map,) = leg_jobs(
        test, [(model, prefetch, speculation, run_config)])
    job = dataclasses.replace(job, cache=CacheConfig(
        line_size=run_config.line_size, **geometry))
    result = run_scalar(job).raise_if_error()
    outcome = tuple(sorted((reg, result.read_word(slot))
                           for reg, slot in audit_map.items()))
    assert outcome in test.outcomes(get_model(model))
