"""Paper-style breakdown reports over the cycle-accounting counters.

This is the heavyweight end of :mod:`repro.obs`: it pulls in the
workloads, the detailed simulator and the table renderer, so it must
only be imported from entry points (the CLI, ``run.py``,
``repro.report``) — never from the core simulator, which
:mod:`repro.obs.accounting` serves without import cycles.

The centrepiece is :func:`example_breakdown_matrix`: the paper's
Figures 3-7 presentation — for one example kernel, every model x
technique cell broken into busy / read / write / acquire time,
normalized so each model's baseline is 100.  Each cell's whole
:class:`~repro.sim.stats.StatsRegistry` can be aggregated with
:meth:`StatsRegistry.merge_from` under a per-cell prefix, so the merged
registry holds the entire matrix's counters at once.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.tables import Table
from ..consistency.models import PC, RC, SC, WC, ConsistencyModel
from ..core.timing import TECHNIQUES
from ..sim.stats import StatsRegistry
from ..system import RunResult, run_workload
from ..workloads.paper_examples import (
    PaperWorkload,
    example1_program,
    example2_program,
    figure5_program,
)
from .accounting import (
    CAUSES,
    PAPER_CAUSES,
    breakdown_from_stats,
    machine_breakdown,
    per_cpu_breakdowns,
)
from .effectiveness import prefetch_effectiveness, speculation_effectiveness

DEFAULT_MODELS: Tuple[ConsistencyModel, ...] = (SC, PC, WC, RC)

EXAMPLES = {
    "example1": example1_program,
    "example2": example2_program,
    "figure5": figure5_program,
}


def example_workload(name: str) -> PaperWorkload:
    try:
        return EXAMPLES[name]()
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; choose from {sorted(EXAMPLES)}"
        ) from None


# ----------------------------------------------------------------------
# Single-run tables
# ----------------------------------------------------------------------

def breakdown_table(result: RunResult, title: str = "cycle breakdown") -> Table:
    """Per-CPU (plus machine-total) cause columns for one finished run."""
    num_cpus = len(result.machine.processors)
    table = Table(title, ["cpu"] + [c.value for c in CAUSES] + ["total"])
    for cpu, bd in enumerate(per_cpu_breakdowns(result.stats, num_cpus)):
        table.add_row(f"cpu{cpu}", *[bd.get(c) for c in CAUSES], bd.total)
    if num_cpus > 1:
        bd = machine_breakdown(result.stats, num_cpus)
        table.add_row("all", *[bd.get(c) for c in CAUSES], bd.total)
    table.add_note("every cycle of every CPU is attributed to exactly one "
                   "cause, so each row sums to the run's cycle count")
    return table


def effectiveness_table(result: RunResult) -> Table:
    """Prefetch / speculation outcome counts for one finished run."""
    num_cpus = len(result.machine.processors)
    table = Table(
        "technique effectiveness",
        ["cpu", "pf issued", "pf late", "pf hits", "pf useless",
         "spec inserted", "spec confirmed", "spec reissued", "spec rolled back"],
    )
    prefetch = prefetch_effectiveness(result.stats, num_cpus)
    spec = speculation_effectiveness(result.stats, num_cpus)
    for pf, sp in zip(prefetch, spec):
        table.add_row(f"cpu{pf.cpu}", pf.issued, pf.late, pf.useful_hits,
                      pf.useless_invalidated, sp.inserted, sp.confirmed,
                      sp.reissues, sp.rollbacks)
    table.add_note("late = demand access merged onto the in-flight prefetch; "
                   "useless = line lost before any demand access")
    return table


# ----------------------------------------------------------------------
# The model x technique breakdown matrix (Figures 3-7 presentation)
# ----------------------------------------------------------------------

def example_breakdown_matrix(
    example: str = "example2",
    models: Sequence[ConsistencyModel] = DEFAULT_MODELS,
    miss_latency: int = 100,
    normalize: bool = True,
    merged: Optional[StatsRegistry] = None,
) -> Table:
    """Stall breakdown for every model x technique cell of one example.

    With ``normalize`` each cause is a percentage of the model's
    *baseline* total (the paper's convention: baseline bars are 100, a
    technique bar below 100 is a win); otherwise raw cycle counts.
    Pass a registry as ``merged`` to receive every cell's counters,
    aggregated under ``<model>/<technique>/`` prefixes.
    """
    unit = "% of model baseline" if normalize else "cycles"
    table = Table(
        f"{example}: stall breakdown per model x technique ({unit})",
        ["model", "technique"] + [c.value for c in PAPER_CAUSES]
        + ["other", "total"],
    )
    for model in models:
        for tech, (pf, spec) in TECHNIQUES.items():
            wl = example_workload(example)
            result = run_workload(
                [wl.program], model=model, prefetch=pf, speculation=spec,
                miss_latency=miss_latency,
                initial_memory=wl.initial_memory, warm_lines=wl.warm_lines,
            )
            cycles = result.cycles
            if tech == "baseline":      # TECHNIQUES' first key
                baseline_cycles = cycles
            if merged is not None:
                merged.merge_from(result.stats, prefix=f"{model.name}/{tech}/")
            bd = breakdown_from_stats(result.stats, cpu=0)
            paper = sum(bd.get(c) for c in PAPER_CAUSES)
            other = bd.total - paper
            if normalize:
                norm = bd.normalized(baseline_cycles)
                row = [round(norm[c], 1) for c in PAPER_CAUSES]
                row += [round(100.0 * other / baseline_cycles, 1),
                        round(100.0 * cycles / baseline_cycles, 1)]
            else:
                row = [bd.get(c) for c in PAPER_CAUSES] + [other, cycles]
            table.add_row(model.name, tech, *row)
    table.add_note("busy/read/write/acquire are the paper's bar segments; "
                   "'other' folds rob-full, rollback and idle cycles")
    if normalize:
        table.add_note("each model's baseline total is scaled to 100")
    return table
