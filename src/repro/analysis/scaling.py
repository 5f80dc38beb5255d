"""Scaling studies: how the techniques behave as the machine grows.

The paper targets "large scale shared-memory multiprocessors"; these
experiments check that the techniques' benefit survives (and the
models stay equalized) as processor count grows, on workloads with and
without sharing.
"""

from __future__ import annotations

from typing import Sequence

from ..consistency.models import RC, SC
from ..workloads.synthetic import barrier_workload, critical_section_workload
from .experiments import _run_checked
from .tables import Table


def cpu_scaling_table(cpu_counts: Sequence[int] = (1, 2, 4),
                      iterations: int = 2) -> Table:
    """Uncontended critical sections per CPU, growing the machine."""
    table = Table(
        "Scaling: private critical sections, SC, growing CPU count",
        ["CPUs", "baseline", "both techniques", "speedup", "correct"],
    )
    for n in cpu_counts:
        (base, base_ok), (both, both_ok) = (
            _run_checked(critical_section_workload(
                num_cpus=n, iterations=iterations, shared_counters=3,
                private=True), SC, techniques, 5_000_000)
            for techniques in (False, True))
        table.add_row(n, base, both, round(base / both, 2),
                      "yes" if base_ok and both_ok else "NO")
    table.add_note("per-CPU work is constant; cycles should stay roughly "
                   "flat and the speedup stable as CPUs are added")
    return table


def barrier_scaling_table(cpu_counts: Sequence[int] = (2, 3, 4),
                          phases: int = 2) -> Table:
    """Barrier-phased SPMD kernel: real global synchronization."""
    table = Table(
        "Scaling: barrier-phased kernel (SC vs RC, both techniques)",
        ["CPUs", "SC base", "SC both", "RC both", "correct"],
    )
    for n in cpu_counts:
        cells = [_run_checked(barrier_workload(num_cpus=n, phases=phases),
                              model, techniques, 10_000_000)
                 for model, techniques in ((SC, False), (SC, True), (RC, True))]
        table.add_row(n, *(cycles for cycles, _ in cells),
                      "yes" if all(ok for _, ok in cells) else "NO")
    table.add_note("barriers serialize globally, so cycles grow with CPU "
                   "count; the techniques keep SC within reach of RC")
    return table
