"""Known wrong answers, pinned as strict expected failures.

Each case below is a reproducer of an open correctness bug in the
modelled machine, found while sizing the repo benchmark (see "Inputs
kept out" in ``bench/e2e/README.md``) — or, for the last one, of a gap
in what the fuzzer detects.  Nothing here is fixed; the
point is that the reproducers run in tier-1.  ``strict=True`` turns the
fix into a loud event: the day a case passes, the run fails until its
marker is removed, and ``raises=`` fails the run if the case starts
failing some *other* way.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.consistency.models import get_model
from repro.sim.errors import DeadlockError, ProtocolError
from repro.system.machine import run_workload
from repro.verify.harness import check_seed
from repro.workloads import (
    critical_section_workload,
    grid_relaxation_workload,
    random_sharing_workload,
)


def run(workload, model_name, prefetch, speculation):
    return run_workload(workload.programs, model=get_model(model_name),
                        prefetch=prefetch, speculation=speculation,
                        miss_latency=100,
                        initial_memory=workload.initial_memory)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="PC, speculation on, prefetch off, warm-tight: "
                          "observed outcome outside the enumerator's "
                          "permitted set — a live counter-example to the "
                          "claim that speculative loads are invisible")
def test_fuzz_seed_6869698602657654992_conforms():
    result = check_seed((0, 6869698602657654992, {}))
    assert result.ok, [d.describe() for d in result.divergences]


@pytest.mark.xfail(strict=True, raises=ProtocolError,
                   reason="recall_ack does not match the busy transaction "
                          "(4 CPUs contending on shared counters, SC, "
                          "prefetch on)")
def test_contended_critical_section_with_prefetch_completes():
    run(critical_section_workload(num_cpus=4, iterations=4,
                                  shared_counters=3, private=False),
        "SC", prefetch=True, speculation=False)


@pytest.mark.xfail(strict=True, raises=DeadlockError,
                   reason="grid relaxation 4 x 8 x 2 under RC with "
                          "prefetch on never finishes")
def test_grid_relaxation_with_prefetch_completes():
    run(grid_relaxation_workload(4, 8, 2), "RC",
        prefetch=True, speculation=False)


@pytest.mark.xfail(strict=True, raises=ProtocolError,
                   reason="recall_ack does not match the busy transaction "
                          "(random sharing, SC, both techniques)")
def test_random_sharing_with_both_techniques_completes():
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
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        timeout=540)
    assert proc.returncode == 1, proc.stdout + proc.stderr
