"""Mini-application kernels: correctness under every configuration."""

import pytest

from repro.consistency import PC, RC, SC, WC
from repro.system import run_workload
from repro.workloads import (
    grid_relaxation_workload,
    work_queue_workload,
)

CONFIGS = [
    ("SC-base", SC, False, False),
    ("SC-both", SC, True, True),
    ("RC-base", RC, False, False),
    ("RC-both", RC, True, True),
]


def check(workload, model, pf, spec, max_cycles=10_000_000):
    result = run_workload(workload.programs, model=model, prefetch=pf,
                          speculation=spec,
                          initial_memory=workload.initial_memory,
                          max_cycles=max_cycles)
    for addr, expected in workload.expectations:
        actual = result.machine.read_word(addr)
        assert actual == expected, (
            f"{workload.name} {model.name}: MEM[{addr:#x}] = {actual}, "
            f"expected {expected}"
        )
    return result


class TestGridRelaxation:
    @pytest.mark.parametrize("name,model,pf,spec", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_correct_under_config(self, name, model, pf, spec):
        check(grid_relaxation_workload(num_cpus=2, cells_per_cpu=2,
                                       phases=2), model, pf, spec)

    def test_three_cpus(self):
        check(grid_relaxation_workload(num_cpus=3, cells_per_cpu=2,
                                       phases=1), RC, True, True)

    def test_techniques_speed_up_sc(self):
        wl = grid_relaxation_workload(num_cpus=2, cells_per_cpu=3, phases=2)
        base = check(wl, SC, False, False)
        wl2 = grid_relaxation_workload(num_cpus=2, cells_per_cpu=3, phases=2)
        both = check(wl2, SC, True, True)
        assert both.cycles < base.cycles


class TestWorkQueue:
    @pytest.mark.parametrize("name,model,pf,spec", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    def test_every_task_processed_once(self, name, model, pf, spec):
        check(work_queue_workload(num_consumers=2, num_tasks=4),
              model, pf, spec)

    def test_single_consumer_drains(self):
        check(work_queue_workload(num_consumers=1, num_tasks=3),
              SC, True, True)

    def test_more_consumers_than_tasks(self):
        check(work_queue_workload(num_consumers=3, num_tasks=2),
              RC, True, True)

