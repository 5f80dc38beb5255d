#!/usr/bin/env python
"""Figure 5 walkthrough: watching a speculative load get squashed.

Runs the Section 4.3 code segment (read A; write B; write C; read D;
read E[D]) under sequential consistency with both techniques enabled,
while a scripted remote agent writes location D — invalidating the
value the processor already consumed speculatively.  Prints the
digested nine-event narrative, the raw simulator trace, and the final
architectural state showing the corrected values.

Run:  python examples/figure5_walkthrough.py [inval_cycle]
"""

import sys

from repro import run_figure5
from repro.analysis.summary import CpuSummary
from repro.workloads import A, B, C, D, E_BASE


def main() -> None:
    inval_cycle = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    result = run_figure5(inval_cycle=inval_cycle)

    print(result.describe())
    print()
    print("Raw trace (issue/complete/prefetch/squash events):")
    print("-" * 60)
    print(result.trace.render())
    print("-" * 60)

    machine = result.machine
    print()
    print("Final architectural state:")
    print(f"  r1 = MEM[A]    = {machine.reg(0, 'r1')}")
    print(f"  r2 = MEM[D]    = {machine.reg(0, 'r2')}  "
          "(the *new* value written by the remote agent)")
    print(f"  r3 = MEM[E[D]] = {machine.reg(0, 'r3')}  "
          "(re-read with the corrected index)")
    print(f"  MEM[B] = {machine.read_word(B)}, MEM[C] = {machine.read_word(C)}")
    cpu0 = CpuSummary.from_stats(machine.sim.stats, 0)
    print(f"  speculative-load buffer: {cpu0.slb_rollbacks} squash(es), "
          f"{cpu0.slb_reissues} reissue(s)")
    print()
    print("Try different invalidation timings, e.g.:")
    print("  python examples/figure5_walkthrough.py 40   # inval after stores")


if __name__ == "__main__":
    main()
