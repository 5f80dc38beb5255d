"""Tour of the static race analyzer, sanitizer, and cross-validation.

Run with::

    PYTHONPATH=src python examples/static_analysis.py
"""

from pathlib import Path

from repro.analysis.static import (
    analyze_programs,
    apply_fence_suggestions,
    cross_validate,
    sanitize_trace,
)
from repro.consistency import SC, WC
from repro.consistency.litmus import store_buffering
from repro.isa import assemble
from repro.sim.trace import TraceRecorder
from repro.system import run_workload

ASM = Path(__file__).parent / "asm"


def section(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    dekker = [assemble((ASM / "dekker.s").read_text()),
              assemble((ASM / "dekker_mirror.s").read_text())]

    section("Dekker under WC: the analyzer finds the race")
    report = analyze_programs(dekker, WC)
    print(report.render())

    section("Applying the suggested fences restores SC")
    patched = apply_fence_suggestions(dekker, report.fence_suggestions())
    fixed = analyze_programs(patched, WC)
    print(f"after {len(report.fence_suggestions())} fence(s): "
          f"sc_guaranteed={fixed.sc_guaranteed}")

    section("Trace sanitizer on a real speculative run")
    trace = TraceRecorder()
    run_workload(dekker, model=SC, prefetch=True, speculation=True,
                 miss_latency=40, initial_memory={0x100: 0, 0x110: 0},
                 trace=trace, max_cycles=500_000)
    print(sanitize_trace(trace, model=SC).render())

    section("Static prediction vs the dynamic Section 6 detector")
    cross = cross_validate([store_buffering()], models=[SC, WC])
    print(cross.render())


if __name__ == "__main__":
    main()
