"""The experiment registry and its report (``python -m repro.report``).

:data:`EXPERIMENTS` is the only list of paper artifacts (E1–E11, the
ablations A1–A7 and the scaling studies S1–S2).  Each entry builds one
table and states one claim about it — the shape the paper reports (who
wins, by roughly what factor), as a predicate whose docstring is the
expectation.  The command renders every table, prints a verdict line
under each, and exits 1 when a claim fails; with ``--output FILE`` the
report is also written to disk — this is how EXPERIMENTS.md's measured
numbers are produced.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .analysis import (
    Table,
    barrier_scaling_table,
    cpu_scaling_table,
    delay_arc_matrix,
    detailed_equalization_table,
    equalization_table,
    example_cycle_table,
    false_sharing_table,
    figure5_report,
    hw_vs_sw_prefetch_table,
    latency_sweep_table,
    litmus_outcome_table,
    lookahead_window_table,
    prefetch_bandwidth_table,
    protocol_table,
    related_work_table,
    rmw_handoff_table,
    rob_size_table,
    rollback_cost_table,
    slb_size_table,
    stall_breakdown_table,
    traffic_table,
)
from .consistency import ALL_MODELS
from .workloads.paper_examples import PAPER_CYCLE_COUNTS


class Experiment(NamedTuple):
    id: str
    title: str
    #: () -> an object with ``render()`` (a :class:`Table`, mostly)
    build: Callable[[], Any]
    #: (what ``build`` returned) -> bool; ``__doc__`` states the expectation
    claim: Callable[[Any], bool]

    def matches(self, section: str) -> bool:
        return section.lower() in f"{self.id} {self.title}".lower()


class _Tables(list):
    """Several tables rendered as one section."""

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self)


def _rows(table: Table) -> Dict[Any, Dict[str, Any]]:
    """First cell of each row -> that row as ``{column: cell}``."""
    return {row[0]: dict(zip(table.columns, row)) for row in table.rows}


def _decreasing(values: List[Any]) -> bool:
    return values == sorted(values, reverse=True)


# ----------------------------------------------------------------------
# Claims — one per registry entry
# ----------------------------------------------------------------------

def _claim_arcs(tables: _Tables) -> bool:
    """SC delays every pair; every model still waits after an acquire
    and before a release"""
    def waits(cells: Any) -> bool:
        return set(cells) == {"wait"}

    return (waits(cell for row in tables[0].rows for cell in row[1:])
            and all(waits(t.rows[2][1:]) and waits(t.column_values("release"))
                    for t in tables))      # rows[2] is the acquire row


def _claim_litmus(t: Table) -> bool:
    """SC forbids every relaxed outcome, PC admits only store buffering,
    WC and RC also message passing and load buffering; relaxations only
    accumulate from SC to RC, and labelled sync and per-location
    coherence hold under every model"""
    sb, mp, mp_sync, lb, coh = (dict(zip(t.columns[1:], row[1:]))
                                for row in t.rows)
    return (set(t.column_values("SC")) == {"forbidden"}
            and sb["PC"] == "allowed" and mp["PC"] == "forbidden"
            and mp["RC"] == "allowed" and lb["WC"] == "allowed"
            and set(mp_sync.values()) == set(coh.values()) == {"forbidden"}
            # columns run SC, PC, WC, RC: "forbidden"s, then "allowed"s
            and all(_decreasing(list(row.values())) for row in (sb, mp, lb)))


def _claim_paper_exact(example: str) -> Callable[[Table], bool]:
    def claim(t: Table) -> bool:
        rows = _rows(t)
        return all(rows[model][tech] == cycles
                   for (ex, model, tech), cycles in PAPER_CYCLE_COUNTS.items()
                   if ex == example)

    published = "/".join(str(c) for (ex, _, _), c in PAPER_CYCLE_COUNTS.items()
                         if ex == example)
    claim.__doc__ = (f"every cycle count the paper publishes for {example} "
                     f"({published}) is reproduced exactly")
    return claim


def _claim_example1_detailed(t: Table) -> bool:
    """baseline SC is ~1.5x RC; prefetch gives SC ~3x and brings the two
    models within a few pipeline cycles of each other"""
    sc, rc = _rows(t)["SC"], _rows(t)["RC"]
    return (1.3 <= sc["baseline"] / rc["baseline"] <= 1.7
            and sc["baseline"] / sc["prefetch"] > 2.5
            and abs(sc["prefetch"] - rc["prefetch"]) <= 5)


def _claim_example2_detailed(t: Table) -> bool:
    """prefetch alone removes only ~1 of SC's 3 misses (the dependent
    read E[D] stays serialized); adding speculation removes the rest and
    equalizes SC with RC"""
    sc, rc = _rows(t)["SC"], _rows(t)["RC"]
    both = "prefetch+speculation"
    return (sc["baseline"] / sc["prefetch"] < 1.7
            and sc["baseline"] / sc[both] > 2.5
            and abs(sc[both] - rc[both]) <= 5)


def _claim_figure5(t: Table) -> bool:
    """the trace tells Figure 5's story: exclusive prefetches for the
    stores, D invalidated and discarded with what followed, D reissued,
    its new value and then E[D] arriving"""
    events = t.column_values("event")
    return all(event in events for event in (
        "exclusive prefetches issued for stores B and C",
        "invalidation for D arrives; load D and following discarded",
        "read of D is reissued",
        "new value for D arrives",
        "value for E[D] arrives",
    ))


def _claim_equalization(t: Table) -> bool:
    """on every workload the SC/RC gap never widens and ends within 10%,
    and the techniques slow neither model down"""
    return all(r["gap"] >= r["gap'"] - 1e-9 and r["gap'"] <= 1.1
               and r["SC both"] <= r["SC base"] and r["RC both"] <= r["RC base"]
               for r in _rows(t).values())


def _claim_equalization_detailed(t: Table) -> bool:
    """the models spread by more than 1.2x at baseline and by less than
    1.15x with both techniques, and every model gets faster"""
    base = t.column_values("baseline")
    both = t.column_values("prefetch+speculation")
    return (max(base) / min(base) > 1.2 and max(both) / min(both) < 1.15
            and all(after < before for before, after in zip(base, both)))


def _claim_latency_sweep(t: Table) -> bool:
    """SC's speedup never falls as miss latency grows and passes 2.5x,
    and SC equals RC with both techniques at every latency"""
    speedups = t.column_values("SC speedup")
    return (all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))
            and speedups[-1] > 2.5
            and t.column_values("SC both") == t.column_values("RC both"))


def _claim_rollback(t: Table) -> bool:
    """a clean speculative run is >3x the conventional one; the
    invalidation launched at cycle 5 squashes exactly once, and every
    interfered run costs more than the clean run yet beats conventional"""
    rows = _rows(t)
    base = rows["conventional (no techniques)"]["cycles"]
    clean = rows["both techniques, no interference"]["cycles"]
    interfered = [r for name, r in rows.items()
                  if name.startswith("both techniques, inval")]
    return (base / clean > 3.0 and len(interfered) > 0
            and all(clean < r["cycles"] < base for r in interfered)
            and rows["both techniques, inval launched @5"]["squashes"] == 1)


def _claim_related_work(t: Table) -> bool:
    """binding prefetch equals conventional; Adve-Hill gains <=30 cycles
    on writes and nothing on reads; cache-less NST is >50x worse on a
    cached chain; prefetch+speculation is best on both examples"""
    rows = _rows(t)
    conv, ours = rows["conventional"], rows["prefetch+speculation"]
    binding, adve = rows["binding-prefetch"], rows["adve-hill-sc"]
    return (all(binding[c] == conv[c]
                for c in ("example1", "example2", "pointer-chase"))
            and 0 < conv["example1"] - adve["example1"] <= 30
            and adve["example2"] == conv["example2"]
            and rows["stenstrom-nst"]["cached chase"] > 50 * ours["cached chase"]
            and all(ours[c] <= r[c] for c in ("example1", "example2")
                    for r in rows.values()))


def _claim_rmw(t: Table) -> bool:
    """mutual exclusion holds in every configuration, and under
    contention speculative RMWs cost less than 1.5x the baseline"""
    cycles = {(row[0], row[1]): row[2] for row in t.rows}
    return (set(t.column_values("counter ok")) == {"yes"}
            and all(cycles[(m, "prefetch+speculation")]
                    < 1.5 * cycles[(m, "baseline")] for m in ("SC", "RC")))


def _claim_traffic(t: Table) -> bool:
    """prefetching adds cache-port accesses but no network messages, and
    is still >2.5x faster"""
    base, pf = _rows(t)["baseline"], _rows(t)["prefetch"]
    return (pf["cache port accesses"] > base["cache port accesses"]
            and pf["net messages"] <= base["net messages"]
            and base["cycles"] / pf["cycles"] > 2.5)


def _sc_by_technique(t: Table) -> Dict[str, Dict[str, Any]]:
    return {row[1]: dict(zip(t.columns, row))
            for row in t.rows if row[0] == "SC"}


def _claim_breakdown_example1(t: Table) -> bool:
    """write stall dominates the SC baseline; prefetch removes nearly all
    of it and more than halves the total"""
    rows = _sc_by_technique(t)
    base, pf = rows["baseline"], rows["prefetch"]
    return (base["total"] == 100.0
            and base["write_stall"] > (base["busy"] + base["read_stall"]
                                       + base["acquire_stall"])
            and pf["write_stall"] < 0.1 * base["write_stall"]
            and pf["total"] < 0.5 * base["total"])


def _claim_breakdown_example2(t: Table) -> bool:
    """read stall dominates the SC baseline; speculation removes nearly
    all of it and more than halves the total; prefetch alone helps but
    less (the dependent read E[D] cannot be prefetched)"""
    rows = _sc_by_technique(t)
    base, pf, spec = rows["baseline"], rows["prefetch"], rows["speculation"]
    return (base["total"] == 100.0
            and base["read_stall"] > (base["busy"] + base["write_stall"]
                                      + base["acquire_stall"])
            and spec["read_stall"] < 0.1 * base["read_stall"]
            and spec["total"] < 0.5 * base["total"]
            and spec["total"] < pf["total"] < base["total"])


def _claim_window(t: Table) -> bool:
    """a larger one only helps, and the smallest costs >1.5x"""
    cycles = t.column_values("cycles")
    return _decreasing(cycles) and cycles[0] > 1.5 * cycles[-1]


def _claim_hw_vs_sw(t: Table) -> bool:
    """both forms at least halve the no-prefetch time; software's
    unlimited window beats a starved hardware window, a big hardware
    window wins that back, and software pays in instruction slots"""
    rows = _rows(t)
    none = rows["no prefetch"]
    hw_small, hw_big = rows["hardware, window=3"], rows["hardware, window=32"]
    sw_small = rows["software, window=3"]
    return (hw_small["cycles"] < none["cycles"] / 2
            and sw_small["cycles"] < none["cycles"] / 2
            and hw_big["cycles"] <= sw_small["cycles"] < hw_small["cycles"]
            and sw_small["instructions retired"] > none["instructions retired"])


def _claim_rob(t: Table) -> bool:
    """a larger reorder buffer only helps"""
    return _decreasing(t.column_values("cycles"))


def _claim_bandwidth(t: Table) -> bool:
    """prefetches fire in stall cycles, so 1 per cycle already saturates
    (all bandwidths within 5 cycles)"""
    cycles = t.column_values("cycles")
    return max(cycles) - min(cycles) <= 5


def _claim_protocol(t: Table) -> bool:
    """prefetching stores wins >3x under an invalidation protocol and
    nothing (<1.2x) under an update protocol"""
    rows = _rows(t)
    return rows["invalidate"]["speedup"] > 3.0 and rows["update"]["speedup"] < 1.2


def _claim_false_sharing(t: Table) -> bool:
    """both layouts stay correct; the packed one pays cycles for its
    conservative squashes"""
    packed = _rows(t)["packed (one line)"]
    padded = _rows(t)["padded (own lines)"]
    return (packed["correct"] == padded["correct"] == "yes"
            and packed["cycles"] > padded["cycles"]
            and packed["slb squashes"] >= padded["slb squashes"])


def _claim_cpu_scaling(t: Table) -> bool:
    """every run is correct, the speedup stays >2x at every CPU count
    (1 CPU included: the uncontended RMW fast path), and cycles stay
    within 2x as CPUs are added"""
    both = t.column_values("both techniques")
    return (set(t.column_values("correct")) == {"yes"}
            and all(s > 2.0 for s in t.column_values("speedup"))
            and max(both) < 2 * min(both))


def _claim_barrier_scaling(t: Table) -> bool:
    """every run is correct; through barriers the techniques still help
    SC and keep it within 1.5x of RC"""
    return (set(t.column_values("correct")) == {"yes"}
            and all(r["SC both"] < r["SC base"]
                    and r["SC both"] < 1.5 * r["RC both"]
                    for r in _rows(t).values()))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

EXPERIMENTS: List[Experiment] = [
    Experiment("E1-arcs", "Figure 1 / delay arcs",
               lambda: _Tables(delay_arc_matrix(m) for m in ALL_MODELS),
               _claim_arcs),
    Experiment("E1-litmus", "Figure 1 / litmus outcomes",
               litmus_outcome_table, _claim_litmus),
    Experiment("E2-analytical", "Example 1 (analytical)",
               lambda: example_cycle_table("example1"),
               _claim_paper_exact("example1")),
    Experiment("E2-detailed", "Example 1 (detailed)",
               lambda: example_cycle_table("example1", detailed=True),
               _claim_example1_detailed),
    Experiment("E3-analytical", "Example 2 (analytical)",
               lambda: example_cycle_table("example2"),
               _claim_paper_exact("example2")),
    Experiment("E3-detailed", "Example 2 (detailed)",
               lambda: example_cycle_table("example2", detailed=True),
               _claim_example2_detailed),
    Experiment("E4", "Figure 5 rollback trace",
               lambda: figure5_report()[1], _claim_figure5),
    Experiment("E5-analytical", "Equalization (analytical)",
               equalization_table, _claim_equalization),
    Experiment("E5-detailed", "Equalization (detailed)",
               detailed_equalization_table, _claim_equalization_detailed),
    Experiment("E6", "Miss-latency sweep",
               latency_sweep_table, _claim_latency_sweep),
    Experiment("E7", "Rollback cost", rollback_cost_table, _claim_rollback),
    Experiment("E8", "Related work", related_work_table, _claim_related_work),
    Experiment("E9", "RMW hand-off", rmw_handoff_table, _claim_rmw),
    Experiment("E10", "Prefetch traffic", traffic_table, _claim_traffic),
    Experiment("E11-example1", "Stall breakdown (example1)",
               lambda: stall_breakdown_table("example1"),
               _claim_breakdown_example1),
    Experiment("E11-example2", "Stall breakdown (example2)",
               lambda: stall_breakdown_table("example2"),
               _claim_breakdown_example2),
    Experiment("A1", "Lookahead window", lookahead_window_table, _claim_window),
    Experiment("A2", "HW vs SW prefetch",
               hw_vs_sw_prefetch_table, _claim_hw_vs_sw),
    Experiment("A3", "SLB size", slb_size_table, _claim_window),
    Experiment("A4", "ROB size", rob_size_table, _claim_rob),
    Experiment("A5", "Prefetch bandwidth",
               prefetch_bandwidth_table, _claim_bandwidth),
    Experiment("A6", "Update vs invalidate protocol",
               protocol_table, _claim_protocol),
    Experiment("A7", "False sharing vs speculation",
               false_sharing_table, _claim_false_sharing),
    Experiment("S1", "CPU-count scaling", cpu_scaling_table, _claim_cpu_scaling),
    Experiment("S2", "Barrier scaling",
               barrier_scaling_table, _claim_barrier_scaling),
]


def _section(text: str) -> str:
    """argparse ``type=``: a filter must select some experiment."""
    if not any(exp.matches(text) for exp in EXPERIMENTS):
        raise argparse.ArgumentTypeError(
            f"no experiment matches {text!r}; ids: "
            f"{', '.join(exp.id for exp in EXPERIMENTS)}")
    return text


def generate(selected: List[str],
             verbose: bool = True) -> Tuple[str, List[str]]:
    """Render the selected experiments; returns (report, failed ids)."""
    chunks: List[str] = []
    failed: List[str] = []
    for exp in EXPERIMENTS:
        name = f"{exp.id} {exp.title}"
        if selected and not any(exp.matches(s) for s in selected):
            continue
        start = time.time()
        table = exp.build()
        elapsed = time.time() - start
        holds = exp.claim(table)
        if not holds:
            failed.append(exp.id)
        expectation = " ".join((exp.claim.__doc__ or "").split())
        chunks.append(f"{table.render()}\n"
                      f"claim {'PASS' if holds else 'FAIL'} {exp.id}: "
                      f"{expectation}")
        if verbose:
            print(f"[{elapsed:6.2f}s] {name}", file=sys.stderr)
    return "\n\n".join(chunks), failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Regenerate the reproduction's experiment tables and "
                    "check each one's claim (exit 1 if any fails).",
    )
    parser.add_argument("sections", nargs="*", type=_section,
                        help="substring filters (e.g. 'E5' 'figure 5'); "
                             "default: everything")
    parser.add_argument("--output", "-o", help="also write the report here")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress per-section progress on stderr")
    args = parser.parse_args(argv)

    report, failed = generate(args.sections, verbose=not args.quiet)
    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
    if failed:
        print(f"error: {len(failed)} claim(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
