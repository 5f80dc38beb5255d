"""Cycle-accounting invariants and golden breakdown pins.

The accounting contract is *total and exclusive* blame: every cycle of
every CPU lands in exactly one :class:`StallCause` counter, so the
per-CPU cause counters sum exactly to the run's cycle count — which in
turn is pinned by ``DETAILED_GOLDEN`` in :mod:`test_golden_numbers`.
These tests check the invariant over the full model x technique matrix
of both paper examples, the multiprocessor case, and the rollback
accounting around Figure 5's speculative-load violation.
"""

import pytest

from repro.analysis.experiments import TECHNIQUES
from repro.consistency import get_model
from repro.obs.accounting import (
    CAUSES,
    PAPER_CAUSES,
    CycleBreakdown,
    StallCause,
    breakdown_from_stats,
)
from repro.sim.stats import StatsRegistry
from repro.system import run_workload
from repro.workloads.figure5 import run_figure5
from repro.workloads.paper_examples import (
    example1_program,
    example2_program,
)
from tests.test_golden_numbers import DETAILED_GOLDEN, MISS_LATENCY, MODELS

EXAMPLES = {"example1": example1_program, "example2": example2_program}


def run_example(example, model, pf, spec):
    wl = EXAMPLES[example]()
    return run_workload(
        [wl.program], model=model, prefetch=pf, speculation=spec,
        miss_latency=MISS_LATENCY, initial_memory=wl.initial_memory,
        warm_lines=wl.warm_lines)


@pytest.mark.parametrize("example,model",
                         [(e, m) for e in EXAMPLES for m in MODELS],
                         ids=[f"{e}-{m.name}" for e in EXAMPLES
                              for m in MODELS])
def test_breakdown_sums_to_golden_total(example, model):
    """Sum of cause counters == run cycles == the golden pin, for every
    technique combination (the ISSUE's acceptance criterion)."""
    golden = DETAILED_GOLDEN[(example, model.name)]
    for expected, (pf, spec) in zip(golden, TECHNIQUES.values()):
        result = run_example(example, model, pf, spec)
        assert result.cycles == expected
        bd = result.breakdowns()[0]
        assert bd.total == result.cycles
        assert sum(bd.get(c) for c in CAUSES) == expected


def test_sc_baseline_blames_the_right_causes():
    """Example 2 under SC: the lock RMW is an acquire stall, the
    serialized load misses are read stalls, and they dominate."""
    result = run_example("example2", get_model("SC"), False, False)
    bd = result.breakdowns()[0]
    assert bd.get(StallCause.ACQUIRE) >= MISS_LATENCY  # the lock miss
    assert bd.get(StallCause.READ) >= 2 * MISS_LATENCY  # read C + read E[D]
    assert bd.get(StallCause.BUSY) < 10
    assert bd.get(StallCause.ROLLBACK) == 0


def test_speculation_converts_read_stall_to_busy():
    sc = get_model("SC")
    base = run_example("example2", sc, False, False).breakdowns()[0]
    spec = run_example("example2", sc, False, True).breakdowns()[0]
    assert spec.get(StallCause.READ) < 0.05 * base.get(StallCause.READ)
    # acquire stall is untouched: speculation does not reorder the lock
    assert abs(spec.get(StallCause.ACQUIRE) - base.get(StallCause.ACQUIRE)) <= 2


def test_multiprocessor_every_cpu_sums_to_total():
    """With two CPUs, each CPU's breakdown covers every machine cycle
    (the finished one accumulates write-drain/idle time)."""
    wl0 = example1_program()
    wl1 = example2_program()
    result = run_workload(
        [wl0.program, wl1.program], model=get_model("RC"),
        miss_latency=MISS_LATENCY,
        initial_memory={**wl0.initial_memory, **wl1.initial_memory},
        warm_lines=wl1.warm_lines)
    for bd in result.breakdowns():
        assert bd.total == result.cycles
    machine_bd = result.breakdown()
    assert machine_bd.total == 2 * result.cycles
    # at least one CPU finished early and sat idle
    assert machine_bd.get(StallCause.IDLE) > 0


def test_figure5_rollback_is_accounted():
    """The Figure 5 invalidation forces a speculative-load rollback:
    the squash reason and the SLB rollback cause are both recorded."""
    result = run_figure5()
    stats = result.machine.sim.stats
    assert stats.counter(
        "cpu0/squash_reason/speculative_load_violated").value >= 1
    assert stats.counter("cpu0/slb/rollback_cause/inval").value >= 1
    assert stats.histogram("cpu0/squash_depth").count >= 1
    bd = breakdown_from_stats(stats, cpu=0)
    assert bd.total == result.cycles


def test_breakdown_merge_and_normalize():
    counts = {StallCause.BUSY: 10, StallCause.READ: 90}
    bd = CycleBreakdown(dict(counts))
    assert bd.total == 100
    assert bd.fraction(StallCause.READ) == pytest.approx(0.9)
    merged = bd.merged_with(CycleBreakdown({StallCause.READ: 10,
                                            StallCause.IDLE: 5}))
    assert merged.get(StallCause.READ) == 100
    assert merged.total == 115
    norm = bd.normalized(200)
    assert norm[StallCause.READ] == pytest.approx(45.0)
    assert bd.as_dict()["read_stall"] == 90


def test_breakdown_survives_registry_merge():
    """Cross-cell aggregation: merge_from with a prefix, then read the
    breakdown back out — the breakdown-matrix aggregation path."""
    result = run_example("example2", get_model("WC"), True, True)
    master = StatsRegistry()
    master.merge_from(result.stats, prefix="cell0/")
    bd = breakdown_from_stats(master, cpu=0, prefix="cell0/")
    assert bd.counts == result.breakdowns()[0].counts


def test_paper_causes_are_a_subset_in_order():
    assert set(PAPER_CAUSES) <= set(CAUSES)
    assert [c for c in CAUSES if c in PAPER_CAUSES] == list(PAPER_CAUSES)
