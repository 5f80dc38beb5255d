"""Cross-validation: static race prediction vs dynamic SC detection.

The DRF theorem cuts both ways.  Statically, :mod:`racecheck` predicts
which conflicting accesses can be observed out of SC order under a
model; dynamically, :class:`~repro.core.sc_detection.ScViolationDetector`
flags the accesses that *were* hit by a coherence event outside their SC
window during a detailed-machine run.  The dynamic detector has no
false negatives (under write atomicity) but plenty of conservatism, so
the two must agree in one direction:

    every (cpu, line) the dynamic detector flags must be one the
    static analyzer marked racy, fence-fixable, or competing-sync.

A dynamic flag on a line the analyzer called race-free would mean one
of the two is wrong — that is the property :func:`cross_validate`
checks over a litmus suite, one detailed run per (test, model, skew).

Dynamic runs use the *conventional* relaxed hardware (no speculative
loads, no prefetch): accesses then perform early only where the model
itself allows, which is exactly the situation Section 6's detection
mechanism is specified for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ...consistency.litmus import LitmusTest
from ...consistency.models import ALL_MODELS, ConsistencyModel
from ...isa.program import Program
from .diagnostics import AnalysisReport
from .racecheck import analyze_programs

#: start cycles explored per (test, model), indexed modulo the thread count
DEFAULT_DELAYS: Tuple[Tuple[int, ...], ...] = ((0, 0), (0, 40), (40, 0), (15, 3))


@dataclass
class CrossCase:
    """One (litmus test, model) comparison."""

    test: str
    model: str
    static_report: AnalysisReport
    #: lines the static analyzer says the dynamic detector may flag
    static_lines: Set[Tuple[int, int]] = field(default_factory=set)
    #: True when some static site has an unresolvable address (then any
    #: dynamic flag is conservatively covered)
    static_wildcard: bool = False
    #: (cpu, line) pairs the dynamic detector actually flagged
    dynamic_lines: Set[Tuple[int, int]] = field(default_factory=set)
    #: human-readable detail of each dynamic flag
    dynamic_detail: List[str] = field(default_factory=list)

    @property
    def uncovered(self) -> Set[Tuple[int, int]]:
        if self.static_wildcard:
            return set()
        return self.dynamic_lines - self.static_lines

    @property
    def agrees(self) -> bool:
        return not self.uncovered

    def describe(self) -> str:
        mark = "ok " if self.agrees else "FAIL"
        return (f"[{mark}] {self.test:>20} under {self.model:>5}: "
                f"static predicts {len(self.static_lines)} flaggable "
                f"line(s), dynamic flagged {len(self.dynamic_lines)}"
                + ("" if not self.uncovered
                   else f", UNCOVERED: {sorted(self.uncovered)}"))


@dataclass
class CrossReport:
    cases: List[CrossCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.agrees for c in self.cases)

    def failures(self) -> List[CrossCase]:
        return [c for c in self.cases if not c.agrees]

    def render(self) -> str:
        lines = ["static vs dynamic agreement "
                 "(static-flaggable must cover dynamically-flagged):"]
        lines += ["  " + c.describe() for c in self.cases]
        verdict = ("agreement holds on every case" if self.ok
                   else f"{len(self.failures())} case(s) DISAGREE")
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _dynamic_flags(test: LitmusTest, programs: Sequence[Program],
                   model: ConsistencyModel,
                   delays: Sequence[Tuple[int, ...]],
                   line_size: int) -> Tuple[Set[Tuple[int, int]], List[str]]:
    """Run the detailed machine with the SC-violation monitor on and
    collect every flagged (cpu, line)."""
    from ...cpu.config import ProcessorConfig
    from ...system.machine import run_workload

    flagged: Set[Tuple[int, int]] = set()
    detail: List[str] = []
    init = {a: 0 for a in test.addresses().values()}
    # Warm every litmus variable SHARED in every cache: loads then hit
    # (perform early) while stores still spend the miss latency gaining
    # ownership, which is the window Section 6's monitor watches.
    warm = [(cpu, addr, False)
            for cpu in range(len(test.threads))
            for addr in test.addresses().values()]
    for skew in delays:
        starts = tuple(skew[cpu % len(skew)] for cpu in range(len(programs)))
        result = run_workload(
            programs, model=model, prefetch=False, speculation=False,
            miss_latency=40, initial_memory=init, warm_lines=warm,
            processor=ProcessorConfig(enable_sc_detection=True),
            max_cycles=1_000_000, starts=starts)
        for cpu, proc in enumerate(result.machine.processors):
            det = proc.lsu.sc_detector
            if det is None:
                continue
            for v in det.violations:
                flagged.add((cpu, v.addr // line_size))
                detail.append(f"cpu{cpu} skew={skew}: {v.describe()}")
    return flagged, detail


def cross_validate(
    tests: Sequence[LitmusTest],
    models: Optional[Sequence[ConsistencyModel]] = None,
    delays: Sequence[Tuple[int, ...]] = DEFAULT_DELAYS,
    line_size: int = 4,
) -> CrossReport:
    """Compare static prediction and dynamic detection over a suite."""
    report = CrossReport()
    for test in tests:
        programs, _ = test.to_programs()
        for model in (models if models is not None else ALL_MODELS):
            static = analyze_programs(programs, model, line_size=line_size)
            case = CrossCase(test=test.name, model=model.name,
                             static_report=static)
            for cpu, addr in static.flaggable_sites():
                if addr is None:
                    case.static_wildcard = True
                else:
                    case.static_lines.add((cpu, addr // line_size))
            case.dynamic_lines, case.dynamic_detail = _dynamic_flags(
                test, programs, model, delays, line_size)
            report.cases.append(case)
    return report
