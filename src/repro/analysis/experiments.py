"""Experiment runners — one per paper artifact (DESIGN.md's E1..E10).

Each function builds the workload, runs the right simulator(s), and
returns a :class:`~repro.analysis.tables.Table` whose rows mirror what
the paper reports (or argues qualitatively).  ``repro.report``, the
examples, and EXPERIMENTS.md all render these same tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.schemes import compare_schemes
from ..consistency.access_class import FIGURE1_CLASSES
from ..consistency.litmus import (
    coherence_per_location,
    load_buffering,
    message_passing,
    message_passing_sync,
    store_buffering,
)
from ..consistency.models import ALL_MODELS, PC, RC, SC, WC, ConsistencyModel
from ..core.timing import (
    TECHNIQUES,
    AccessSpec,
    AnalyticalTimingModel,
    TimingConfig,
)
from ..obs.accounting import PAPER_CAUSES, breakdown_from_stats
from ..sim.stats import StatsRegistry
from ..system.machine import run_workload
from ..workloads.figure5 import Figure5Result, run_figure5
from ..workloads.paper_examples import (
    PAPER_CYCLE_COUNTS,
    PAPER_EXAMPLES,
    example1_program,
    example1_segment,
    example2_program,
    example2_segment,
)
from ..workloads.synthetic import (
    MultiprocessorWorkload,
    critical_section_segment,
    critical_section_workload,
    pointer_chase_segment,
    random_segment,
)
from .summary import CpuSummary
from .tables import Table


# ----------------------------------------------------------------------
# E1: Figure 1 — ordering restrictions, via litmus outcomes
# ----------------------------------------------------------------------

def delay_arc_matrix(model: ConsistencyModel) -> Table:
    """Figure 1, directly: which program-ordered pairs carry delay arcs.

    Rows are the earlier access, columns the later one; ``wait`` means
    the later access may not perform until the earlier one has.
    """
    table = Table(
        f"Figure 1 delay arcs under {model.name} "
        f"(row must perform before column?)",
        ["earlier \\ later"] + [name for name, _ in FIGURE1_CLASSES],
    )
    for name_a, a in FIGURE1_CLASSES:
        row: List[object] = [name_a]
        for _name_b, b in FIGURE1_CLASSES:
            row.append("wait" if model.delay_arc(a, b) else "-")
        table.add_row(*row)
    return table


def litmus_outcome_table() -> Table:
    """Which relaxed outcomes each model admits (executable Figure 1)."""
    probes = [
        ("SB: r0=r1=0", store_buffering(), dict(r0=0, r1=0)),
        ("MP: flag seen, data stale", message_passing(), dict(r0=1, r1=0)),
        ("MP+sync: stale data", message_passing_sync(), dict(r0=1, r1=0)),
        ("LB: r0=r1=1", load_buffering(), dict(r0=1, r1=1)),
        ("coherence: 2 then 1", coherence_per_location(), dict(r0=2, r1=1)),
    ]
    table = Table(
        "E1 (Figure 1): relaxed outcomes admitted by each consistency model",
        ["outcome"] + [m.name for m in ALL_MODELS],
    )
    for label, test, partial in probes:
        row: List[object] = [label]
        for model in ALL_MODELS:
            row.append("allowed" if test.allows(model, **partial) else "forbidden")
        table.add_row(*row)
    table.add_note("SC forbids every relaxation; RC admits all data-access "
                   "relaxations while keeping properly-labelled sync correct")
    return table


# ----------------------------------------------------------------------
# E2/E3: the example cycle counts (analytical + detailed)
# ----------------------------------------------------------------------

def example_cycle_table(
    example: str,
    detailed: bool = False,
    miss_latency: int = 100,
    models: Sequence[ConsistencyModel] = (SC, PC, WC, RC),
) -> Table:
    """Cycle counts for Example 1 or 2 under every model x technique."""
    if example == "example1":
        segment, program_fn = example1_segment(), example1_program
    elif example == "example2":
        segment, program_fn = example2_segment(), example2_program
    else:
        raise ValueError(f"unknown example {example!r}")

    sim_kind = "detailed" if detailed else "analytical"
    table = Table(
        f"E2/E3 ({example}, {sim_kind} simulator): cycles per model and technique",
        ["model"] + list(TECHNIQUES) + ["paper (base/pf/pf+spec)"],
    )
    engine = AnalyticalTimingModel(TimingConfig(miss_latency=miss_latency))
    for model in models:
        row: List[object] = [model.name]
        for pf, spec in TECHNIQUES.values():
            if detailed:
                wl = program_fn()
                row.append(run_workload(
                    [wl.program], model=model, prefetch=pf, speculation=spec,
                    miss_latency=miss_latency,
                    initial_memory=wl.initial_memory,
                    warm_lines=wl.warm_lines).cycles)
            else:
                row.append(engine.schedule(segment, model,
                                           prefetch=pf, speculation=spec).total_cycles)
        paper = [PAPER_CYCLE_COUNTS.get((example, model.name, t))
                 for t in ("baseline", "prefetch", "prefetch+speculation")]
        row.append("/".join("-" if p is None else str(p) for p in paper))
        table.add_row(*row)
    if detailed:
        table.add_note("detailed-simulator numbers include pipeline fill and "
                       "decode overhead; the paper's arithmetic abstracts those away")
    return table


# ----------------------------------------------------------------------
# E4: Figure 5
# ----------------------------------------------------------------------

def figure5_report(inval_cycle: int = 5) -> Tuple[Figure5Result, Table]:
    result = run_figure5(inval_cycle=inval_cycle)
    table = Table(
        "E4 (Figure 5): speculative-load rollback under SC",
        ["#", "event"],
    )
    for i, event in enumerate(result.events, 1):
        table.add_row(i, event)
    table.add_note(f"total {result.cycles} cycles; invalidation launched at "
                   f"cycle {inval_cycle}")
    return result, table


# ----------------------------------------------------------------------
# E5: equalization of models (the Section 5 claim)
# ----------------------------------------------------------------------

def equalization_table(
    segments: Optional[Dict[str, List[AccessSpec]]] = None,
    miss_latency: int = 100,
) -> Table:
    """SC-vs-RC gap, baseline vs with both techniques, per workload."""
    if segments is None:
        segments = {
            "example1": example1_segment(),
            "example2": example2_segment(),
            "critical-section": critical_section_segment(reads=3, writes=3,
                                                         dependent_reads=1),
            "pointer-chase": pointer_chase_segment(length=5),
            "random (sync/4)": random_segment(length=16, sync_period=4, rng=7),
            "random (no sync)": random_segment(length=16, rng=11),
        }
    engine = AnalyticalTimingModel(TimingConfig(miss_latency=miss_latency))
    table = Table(
        "E5 (Section 5): the techniques equalize consistency models",
        ["workload", "SC base", "RC base", "gap", "SC both", "RC both", "gap'"],
    )
    for name, segment in segments.items():
        sc_base = engine.schedule(segment, SC).total_cycles
        rc_base = engine.schedule(segment, RC).total_cycles
        sc_both = engine.schedule(segment, SC, prefetch=True,
                                  speculation=True).total_cycles
        rc_both = engine.schedule(segment, RC, prefetch=True,
                                  speculation=True).total_cycles
        table.add_row(name, sc_base, rc_base,
                      round(sc_base / rc_base, 2),
                      sc_both, rc_both,
                      round(sc_both / rc_both, 2))
    table.add_note("gap = SC cycles / RC cycles; with both techniques the gap "
                   "approaches 1.0 on every workload")
    return table


def detailed_equalization_table(iterations: int = 2,
                                private: bool = True) -> Table:
    """E5 on the detailed simulator.

    Defaults to per-CPU (uncontended) locks — the regime Section 5
    argues is the common case ("the time at which one process releases
    a synchronization is long before the time another process tries to
    acquire"), where the techniques equalize the models fully.  Pass
    ``private=False`` for the contended variant, where frequent
    invalidations of prefetched/speculated lines limit the benefit —
    the paper's own stated caveat.
    """
    kind = "private locks" if private else "one contended lock"
    table = Table(
        f"E5 (detailed simulator): critical sections, 2 CPUs, {kind}",
        ["model", "baseline", "prefetch+speculation", "speedup"],
    )

    def run(model: ConsistencyModel, techniques: bool) -> int:
        # several independent counters inside the section give the relaxed
        # models something to pipeline (like the paper's Example 1, which
        # writes two independent locations)
        wl = critical_section_workload(num_cpus=2, iterations=iterations,
                                       shared_counters=3, private=private)
        result = run_workload(wl.programs, model=model,
                              prefetch=techniques, speculation=techniques,
                              initial_memory=wl.initial_memory,
                              max_cycles=2_000_000)
        for addr, expected in wl.expectations:
            actual = result.machine.read_word(addr)
            if actual != expected:
                raise AssertionError(
                    f"{model.name}/techniques={techniques}: counter "
                    f"{addr:#x} = {actual}, expected {expected} "
                    f"(mutual exclusion violated?)"
                )
        return result.cycles

    for model in (SC, PC, WC, RC):
        base, both = run(model, False), run(model, True)
        table.add_row(model.name, base, both, round(base / both, 2))
    return table


# ----------------------------------------------------------------------
# E6: miss-latency sensitivity
# ----------------------------------------------------------------------

def latency_sweep_table(
    latencies: Sequence[int] = (20, 50, 100, 200, 400),
    segment: Optional[List[AccessSpec]] = None,
    segment_name: str = "example2",
) -> Table:
    if segment is None:
        segment = example2_segment()
    table = Table(
        f"E6: miss-latency sweep on {segment_name}",
        ["miss latency", "SC base", "RC base", "SC both", "RC both",
         "SC speedup"],
    )
    for lat in latencies:
        engine = AnalyticalTimingModel(TimingConfig(miss_latency=lat))
        sc_base = engine.schedule(segment, SC).total_cycles
        rc_base = engine.schedule(segment, RC).total_cycles
        sc_both = engine.schedule(segment, SC, prefetch=True,
                                  speculation=True).total_cycles
        rc_both = engine.schedule(segment, RC, prefetch=True,
                                  speculation=True).total_cycles
        table.add_row(lat, sc_base, rc_base, sc_both, rc_both,
                      round(sc_base / sc_both, 2))
    table.add_note("the techniques' benefit grows with miss latency: they "
                   "hide exactly the latency the consistency model exposes")
    return table


# ----------------------------------------------------------------------
# E7: speculation rollback cost
# ----------------------------------------------------------------------

def rollback_cost_table(
    inval_cycles: Sequence[int] = (),
    miss_latency: int = 100,
) -> Table:
    """Cost of mis-speculation: Figure 5 scenario with and without the
    invalidation, plus the baseline without speculation."""
    from ..workloads.paper_examples import figure5_program

    wl = figure5_program()

    def run(pf: bool, spec: bool) -> int:
        res = run_workload([wl.program], model=SC, prefetch=pf, speculation=spec,
                           miss_latency=miss_latency,
                           initial_memory={**wl.initial_memory, 96: 500, 97: 700},
                           warm_lines=wl.warm_lines)
        return res.cycles

    base = run(False, False)
    both_clean = run(True, True)
    table = Table(
        "E7: speculation rollback cost (Figure 5 code segment, SC)",
        ["scenario", "cycles", "squashes", "vs baseline"],
    )
    table.add_row("conventional (no techniques)", base, 0, 1.0)
    table.add_row("both techniques, no interference", both_clean, 0,
                  round(base / both_clean, 2))
    for inval_cycle in (inval_cycles or (5, 20, 40)):
        result = run_figure5(inval_cycle=inval_cycle, miss_latency=miss_latency)
        cpu0 = CpuSummary.from_stats(result.machine.sim.stats, 0)
        table.add_row(f"both techniques, inval launched @{inval_cycle}",
                      result.cycles, cpu0.slb_rollbacks,
                      round(base / result.cycles, 2))
    table.add_note("even a mis-speculation that forces a full rollback stays "
                   "well ahead of the conventional implementation")
    return table


# ----------------------------------------------------------------------
# E8: related work
# ----------------------------------------------------------------------

def related_work_table(miss_latency: int = 100) -> Table:
    cfg = TimingConfig(miss_latency=miss_latency)
    table = Table(
        "E8 (Section 6): competing schemes on the paper's examples (SC)",
        ["scheme", "example1", "example2", "pointer-chase", "cached chase", "note"],
    )
    segments = {
        "example1": example1_segment(),
        "example2": example2_segment(),
        "pointer-chase": pointer_chase_segment(length=5),
        # caches matter most on a dependent chain of hits: the
        # cache-less NST pays the full memory latency on every link
        "cached chase": pointer_chase_segment(length=5, hit_fraction=1.0),
    }
    by_scheme: Dict[str, Dict[str, int]] = {}
    notes: Dict[str, str] = {}
    for name, segment in segments.items():
        for res in compare_schemes(segment, cfg):
            by_scheme.setdefault(res.scheme, {})[name] = res.total_cycles
            if res.note:
                notes[res.scheme] = res.note
    for scheme, results in by_scheme.items():
        table.add_row(scheme, *(results.get(name) for name in segments),
                      notes.get(scheme, ""))
    return table


# ----------------------------------------------------------------------
# E9: RMW handling (Appendix A)
# ----------------------------------------------------------------------

def _run_checked(wl: MultiprocessorWorkload, model: ConsistencyModel,
                 techniques: bool, max_cycles: int) -> Tuple[int, bool]:
    """(cycles, every expected memory word correct) for one run with
    both techniques off or on."""
    result = run_workload(wl.programs, model=model, prefetch=techniques,
                          speculation=techniques,
                          initial_memory=wl.initial_memory,
                          max_cycles=max_cycles)
    ok = all(result.machine.read_word(a) == e for a, e in wl.expectations)
    return result.cycles, ok


def rmw_handoff_table(iterations: int = 2) -> Table:
    """Contended lock hand-off: conventional vs speculative RMW."""
    table = Table(
        "E9 (Appendix A): contended test&set lock, 2 CPUs",
        ["model", "technique", "cycles", "counter ok"],
    )
    for model in (SC, RC):
        for tech, techniques in (("baseline", False),
                                 ("prefetch+speculation", True)):
            cycles, ok = _run_checked(
                critical_section_workload(num_cpus=2, iterations=iterations),
                model, techniques, 2_000_000)
            table.add_row(model.name, tech, cycles, "yes" if ok else "NO")
    return table


# ----------------------------------------------------------------------
# E10: prefetch cache-traffic cost (Section 3.2)
# ----------------------------------------------------------------------

def traffic_table(miss_latency: int = 100) -> Table:
    """The prefetch double-access and its traffic consequences."""
    table = Table(
        "E10 (Section 3.2): cache/port traffic with and without prefetch "
        "(example1, SC)",
        ["configuration", "cycles", "cache port accesses",
         "prefetches issued", "net messages"],
    )
    for tech, (pf, spec) in TECHNIQUES.items():
        wl = example1_program()
        result = run_workload([wl.program], model=SC, prefetch=pf,
                              speculation=spec, miss_latency=miss_latency,
                              initial_memory=wl.initial_memory,
                              warm_lines=wl.warm_lines)
        table.add_row(tech, result.cycles,
                      result.counter("cache0/port_accesses"),
                      CpuSummary.from_stats(result.stats, 0).pf_issued,
                      result.counter("net/messages"))
    table.add_note("prefetched references access the cache twice, but only "
                   "in cycles where demand accesses were stalled anyway")
    return table


# ----------------------------------------------------------------------
# E11: stall breakdown (Figures 3-7 presentation)
# ----------------------------------------------------------------------

def stall_breakdown_table(
    example: str = "example2",
    models: Sequence[ConsistencyModel] = (SC, PC, WC, RC),
    miss_latency: int = 100,
    normalize: bool = True,
    merged: Optional[StatsRegistry] = None,
) -> Table:
    """Stall breakdown for every model x technique cell of one paper
    example, each cell broken into busy / read / write / acquire time.

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
            wl = PAPER_EXAMPLES[example]()
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
