"""Ablation studies over the design choices DESIGN.md calls out.

Each ablation varies one structural parameter of the implementation
while holding the workload fixed, quantifying how much each mechanism
contributes:

* **lookahead window** (load/store reservation-station size) — bounds
  the hardware prefetcher, exactly the limitation Section 6 contrasts
  with software prefetching;
* **hardware vs software prefetch** — instruction overhead vs window;
* **speculative-load buffer size** — bounds how many loads can be in
  the speculation window at once;
* **reorder buffer size** — bounds total lookahead;
* **prefetch issue bandwidth** — prefetches per cycle;
* **update vs invalidate protocol** — read-exclusive prefetching is
  impossible under update protocols (Section 3.2).
"""

from __future__ import annotations

from typing import Sequence

from ..consistency.models import SC
from ..cpu.config import ProcessorConfig
from ..memory.types import CacheConfig
from ..system.machine import run_workload
from ..workloads.paper_examples import example2_program
from ..workloads.synthetic import delayed_store_chain
from .tables import Table


def lookahead_window_table(
    window_sizes: Sequence[int] = (2, 4, 8, 16),
    num_stores: int = 12,
) -> Table:
    """Hardware prefetch benefit vs the lookahead window (Section 6)."""
    program = delayed_store_chain(num_stores=num_stores)
    table = Table(
        f"Ablation: hardware prefetch window ({num_stores} delayed stores, SC)",
        ["LS reservation station size", "cycles", "prefetches issued"],
    )
    for size in window_sizes:
        pconfig = ProcessorConfig(ls_rs_size=size,
                                  store_buffer_size=max(size, 2),
                                  rob_size=64)
        result = run_workload([program], model=SC, prefetch=True,
                              processor=pconfig,
                              initial_memory={0x100: 0},
                              max_cycles=1_000_000)
        table.add_row(size, result.cycles,
                      result.counter("cpu0/prefetcher/issued"))
    table.add_note("a small window starves the prefetcher: accesses beyond "
                   "the reservation station cannot be seen, so their misses "
                   "stay serialized")
    return table


def hw_vs_sw_prefetch_table(num_stores: int = 12,
                            small_window: int = 3) -> Table:
    """Hardware vs software prefetch (Section 6's trade-off)."""
    table = Table(
        f"Ablation: hardware vs software prefetch "
        f"({num_stores} delayed stores, SC)",
        ["configuration", "cycles", "instructions retired"],
    )
    plain = delayed_store_chain(num_stores=num_stores)
    with_sw = delayed_store_chain(num_stores=num_stores, software_prefetch=True)
    small = ProcessorConfig(ls_rs_size=small_window, rob_size=64,
                            store_buffer_size=max(small_window, 2))
    big = ProcessorConfig(ls_rs_size=32, rob_size=64, store_buffer_size=32)

    configs = [
        ("no prefetch", plain, False, big),
        (f"hardware, window={small_window}", plain, True, small),
        ("hardware, window=32", plain, True, big),
        (f"software, window={small_window}", with_sw, False, small),
        ("hardware+software", with_sw, True, small),
    ]
    for name, program, hw, pconfig in configs:
        result = run_workload([program], model=SC, prefetch=hw,
                              processor=pconfig,
                              initial_memory={0x100: 0},
                              max_cycles=1_000_000)
        table.add_row(name, result.cycles,
                      result.counter("cpu0/instructions_retired"))
    table.add_note("software prefetching is window-unlimited but costs "
                   "instruction slots; the two 'should ... complement one "
                   "another' (Section 6)")
    return table


def slb_size_table(sizes: Sequence[int] = (1, 2, 4, 16)) -> Table:
    """Speculation benefit vs speculative-load-buffer capacity."""
    wl = example2_program()
    table = Table(
        "Ablation: speculative-load buffer size (example2, SC)",
        ["SLB entries", "cycles"],
    )
    for size in sizes:
        pconfig = ProcessorConfig(slb_size=size)
        result = run_workload([wl.program], model=SC, prefetch=True,
                              speculation=True, processor=pconfig,
                              initial_memory=wl.initial_memory,
                              warm_lines=wl.warm_lines)
        table.add_row(size, result.cycles)
    table.add_note("a single-entry buffer serializes the speculation window "
                   "back toward the conventional implementation")
    return table


def rob_size_table(sizes: Sequence[int] = (4, 8, 16, 32)) -> Table:
    """Total lookahead (reorder buffer) vs achieved overlap."""
    program = delayed_store_chain(num_stores=8)
    table = Table(
        "Ablation: reorder buffer size (8 delayed stores, SC, both techniques)",
        ["ROB entries", "cycles"],
    )
    for size in sizes:
        pconfig = ProcessorConfig(rob_size=size)
        result = run_workload([program], model=SC, prefetch=True,
                              speculation=True, processor=pconfig,
                              initial_memory={0x100: 0},
                              max_cycles=1_000_000)
        table.add_row(size, result.cycles)
    return table


def prefetch_bandwidth_table(rates: Sequence[int] = (1, 2, 4)) -> Table:
    """Prefetches issued per cycle vs overlap achieved."""
    program = delayed_store_chain(num_stores=12)
    table = Table(
        "Ablation: prefetch issue bandwidth (12 delayed stores, SC)",
        ["prefetches/cycle", "cycles"],
    )
    for rate in rates:
        pconfig = ProcessorConfig(prefetches_per_cycle=rate, ls_rs_size=32,
                                  store_buffer_size=32, rob_size=64)
        result = run_workload([program], model=SC, prefetch=True,
                              processor=pconfig,
                              initial_memory={0x100: 0},
                              max_cycles=1_000_000)
        table.add_row(rate, result.cycles)
    return table


def false_sharing_table(updates: int = 4) -> Table:
    """The price of conservative line-granular detection (footnote 2).

    Two CPUs increment disjoint counters.  Packed into one line, every
    remote write invalidates the other CPU's speculative loads even
    though their *words* were untouched; padding the counters apart
    removes the interference entirely.
    """
    from ..workloads.synthetic import false_sharing_workload

    table = Table(
        "Ablation: false sharing vs speculation (2 CPUs, disjoint counters)",
        ["layout", "cycles", "slb squashes", "correct"],
    )
    for padded in (False, True):
        wl = false_sharing_workload(num_cpus=2, updates=updates, padded=padded)
        result = run_workload(wl.programs, model=SC, prefetch=True,
                              speculation=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=2_000_000)
        squashes = sum(
            result.counter(f"cpu{c}/slb/squashes") for c in range(2))
        ok = all(result.machine.read_word(a) == e
                 for a, e in wl.expectations)
        table.add_row("packed (one line)" if not padded else "padded (own lines)",
                      result.cycles, squashes, "yes" if ok else "NO")
    table.add_note("footnote 2: invalidations due to false sharing squash "
                   "conservatively — correctness is kept, cycles are paid")
    return table


def protocol_table(num_stores: int = 4) -> Table:
    """Invalidate vs update protocol (Section 3.2).

    Under the update protocol a read-exclusive prefetch is impossible;
    write prefetching degrades to read prefetching and delayed stores
    stay exposed.  (The workload uses flag-based synchronization — the
    update-protocol model supports plain loads/stores only.)
    """
    from ..isa.program import ProgramBuilder

    b = ProgramBuilder()
    for i in range(num_stores):
        b.store_imm(i + 1, addr=0x200 + 4 * i, tag=f"w{i}")
    b.release_store_imm(1, addr=0x300, tag="flag")
    program = b.build()

    table = Table(
        f"Ablation: coherence protocol vs prefetch effectiveness "
        f"({num_stores} stores + release flag, SC)",
        ["protocol", "baseline", "prefetch", "speedup"],
    )
    for protocol in ("invalidate", "update"):
        cache = CacheConfig(protocol=protocol)
        cycles = {}
        for tech, pf in (("base", False), ("pf", True)):
            result = run_workload([program], model=SC, prefetch=pf,
                                  cache=cache, max_cycles=1_000_000)
            cycles[tech] = result.cycles
        table.add_row(protocol, cycles["base"], cycles["pf"],
                      round(cycles["base"] / cycles["pf"], 2))
    table.add_note("'to be effective for writes, prefetching requires an "
                   "invalidation-based coherence scheme' (Section 3.2)")
    return table
