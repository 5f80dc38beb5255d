"""Synthetic workload generators.

The paper defers "extensive simulation experiments" to future work; the
equalization claim (Section 5) is exercised here with parameterized
synthetic workloads in two forms:

* **segments** — :class:`~repro.core.timing.AccessSpec` lists for the
  analytical model, cheap enough for wide parameter sweeps;
* **programs** — ISA programs for the detailed simulator, including
  multi-processor critical-section and producer/consumer workloads
  with real lock contention and coherence traffic.

All generators take an explicit ``random.Random`` (or a seed) so every
experiment is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..consistency.access_class import (
    ACQUIRE,
    PLAIN_LOAD,
    PLAIN_STORE,
    RELEASE,
)
from ..core.timing import AccessSpec
from ..isa.program import Program, ProgramBuilder

RngLike = Union[int, random.Random]


def _rng(seed_or_rng: RngLike) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


# ----------------------------------------------------------------------
# Segment generators (analytical model)
# ----------------------------------------------------------------------

def critical_section_segment(
    reads: int = 2,
    writes: int = 2,
    hit_fraction: float = 0.0,
    dependent_reads: int = 0,
    rng: RngLike = 0,
) -> List[AccessSpec]:
    """A lock / body / unlock segment like the paper's Figure 2.

    ``dependent_reads`` of the reads form a pointer-chase chain (each
    depends on the previous read's value), which is the pattern where
    prefetching fails and speculation shines (Section 3.3).
    """
    r = _rng(rng)
    segment: List[AccessSpec] = [AccessSpec("lock", ACQUIRE, hit=False)]
    prev_read: Optional[str] = None
    for i in range(reads):
        hit = r.random() < hit_fraction
        deps: Tuple[str, ...] = ()
        if prev_read is not None and i <= dependent_reads:
            deps = (prev_read,)
        label = f"read{i}"
        segment.append(AccessSpec(label, PLAIN_LOAD, hit=hit, deps=deps))
        prev_read = label
    for i in range(writes):
        hit = r.random() < hit_fraction
        segment.append(AccessSpec(f"write{i}", PLAIN_STORE, hit=hit))
    segment.append(AccessSpec("unlock", RELEASE, hit=True))
    return segment


def random_segment(
    length: int = 20,
    write_fraction: float = 0.4,
    hit_fraction: float = 0.5,
    dependence_fraction: float = 0.2,
    sync_period: int = 0,
    rng: RngLike = 0,
) -> List[AccessSpec]:
    """A random straight-line access segment.

    ``sync_period`` > 0 inserts an acquire/release pair around every
    ``sync_period`` accesses, turning the segment into a sequence of
    critical sections.
    """
    r = _rng(rng)
    segment: List[AccessSpec] = []
    read_labels: List[str] = []
    lock_count = 0
    in_section = False
    for i in range(length):
        if sync_period > 0 and i % sync_period == 0:
            if in_section:
                segment.append(AccessSpec(f"rel{lock_count}", RELEASE, hit=True))
            lock_count += 1
            segment.append(AccessSpec(f"acq{lock_count}", ACQUIRE, hit=False))
            in_section = True
        hit = r.random() < hit_fraction
        if r.random() < write_fraction:
            segment.append(AccessSpec(f"w{i}", PLAIN_STORE, hit=hit))
        else:
            deps: Tuple[str, ...] = ()
            if read_labels and r.random() < dependence_fraction:
                deps = (r.choice(read_labels[-3:]),)
            label = f"r{i}"
            segment.append(AccessSpec(label, PLAIN_LOAD, hit=hit, deps=deps))
            read_labels.append(label)
    if in_section:
        segment.append(AccessSpec(f"rel{lock_count}", RELEASE, hit=True))
    return segment


def pointer_chase_segment(length: int = 6, hit_fraction: float = 0.0,
                          rng: RngLike = 0) -> List[AccessSpec]:
    """A chain of dependent loads — the speculation-critical pattern."""
    r = _rng(rng)
    segment: List[AccessSpec] = []
    prev: Optional[str] = None
    for i in range(length):
        label = f"chase{i}"
        deps = (prev,) if prev is not None else ()
        segment.append(AccessSpec(label, PLAIN_LOAD,
                                  hit=r.random() < hit_fraction, deps=deps))
        prev = label
    return segment


# ----------------------------------------------------------------------
# Program generators (detailed simulator)
# ----------------------------------------------------------------------

#: address map used by the multiprocessor workloads (word addresses);
#: one location per line with the default 4-word lines
LOCK_BASE = 0x100
DATA_BASE = 0x200
FLAG_BASE = 0x400


@dataclass
class MultiprocessorWorkload:
    """Programs plus their memory image and a final-state validator."""

    name: str
    programs: List[Program]
    initial_memory: Dict[int, int]
    #: (addr, expected final value) checks
    expectations: List[Tuple[int, int]]


def critical_section_workload(
    num_cpus: int = 2,
    iterations: int = 2,
    shared_counters: int = 1,
    optimistic: bool = False,
    private: bool = False,
) -> MultiprocessorWorkload:
    """Every CPU repeatedly locks, increments counters, unlocks.

    The canonical mutual-exclusion workload: the final counter values
    must equal ``num_cpus * iterations`` each, under every model and
    technique combination — this is the repository's strongest
    end-to-end correctness check for the speculation machinery.

    With ``private=True`` each CPU gets its own lock and counters (no
    contention): the regime the paper's Section 5 argues is common —
    "the time at which one process releases a synchronization is long
    before the time another process tries to acquire" — and where the
    techniques equalize the models fully.
    """
    def addrs_for(cpu: int) -> Tuple[int, List[int]]:
        if private:
            lock = LOCK_BASE + 4 * cpu
            counters = [DATA_BASE + 4 * (cpu * shared_counters + i)
                        for i in range(shared_counters)]
        else:
            lock = LOCK_BASE
            counters = [DATA_BASE + 4 * i for i in range(shared_counters)]
        return lock, counters

    def program(cpu: int) -> Program:
        lock, counters = addrs_for(cpu)
        b = ProgramBuilder()
        b.mov_imm("r9", iterations)
        b.label("again")
        if optimistic:
            b.lock_optimistic(addr=lock)
        else:
            b.lock(addr=lock)
        for i, counter in enumerate(counters):
            reg = f"r{i + 1}"
            b.load(reg, addr=counter, tag=f"ld c{i}")
            b.add_imm(reg, reg, 1)
            b.store(reg, addr=counter, tag=f"st c{i}")
        b.unlock(addr=lock)
        b.alu("sub", "r9", "r9", imm=1)
        b.branch_nonzero("r9", "again", predict_taken=True)
        return b.build()

    memory: Dict[int, int] = {}
    expectations: List[Tuple[int, int]] = []
    per_counter = iterations if private else num_cpus * iterations
    for cpu in range(num_cpus):
        lock, counters = addrs_for(cpu)
        memory[lock] = 0
        for c in counters:
            memory[c] = 0
            if (c, per_counter) not in expectations:
                expectations.append((c, per_counter))

    kind = "private" if private else "shared"
    return MultiprocessorWorkload(
        name=f"critical-section-{kind}-{num_cpus}x{iterations}",
        programs=[program(cpu) for cpu in range(num_cpus)],
        initial_memory=memory,
        expectations=expectations,
    )


def producer_consumer_workload(
    values: Sequence[int] = (7, 11, 13),
    chain: int = 2,
) -> MultiprocessorWorkload:
    """A hand-off pipeline: CPU i produces for CPU i+1 through flags.

    CPU 0 writes data then releases a flag; each consumer acquires the
    flag, reads the data, transforms it (+1), and hands it onward.
    """
    if chain < 2:
        raise ValueError("need at least a producer and a consumer")
    programs: List[Program] = []
    n = len(values)

    def data_addr(stage: int, i: int) -> int:
        return DATA_BASE + 4 * (stage * n + i)

    def flag_addr(stage: int) -> int:
        return FLAG_BASE + 4 * stage

    # producer
    b = ProgramBuilder()
    for i, v in enumerate(values):
        b.store_imm(v, addr=data_addr(0, i), tag=f"produce{i}")
    b.release_store_imm(1, addr=flag_addr(0), tag="flag0")
    programs.append(b.build())

    # middle stages and final consumer
    for stage in range(1, chain):
        b = ProgramBuilder()
        b.spin_until_set(addr=flag_addr(stage - 1), tag=f"wait{stage - 1}")
        for i in range(n):
            reg = f"r{i + 1}"
            b.load(reg, addr=data_addr(stage - 1, i), tag=f"consume{i}")
            b.add_imm(reg, reg, 1)
            b.store(reg, addr=data_addr(stage, i), tag=f"forward{i}")
        if stage < chain:  # last stage also raises a flag for validation
            b.release_store_imm(1, addr=flag_addr(stage), tag=f"flag{stage}")
        programs.append(b.build())

    expectations = [(data_addr(chain - 1, i), v + chain - 1)
                    for i, v in enumerate(values)]
    return MultiprocessorWorkload(
        name=f"producer-consumer-x{chain}",
        programs=programs,
        initial_memory={flag_addr(s): 0 for s in range(chain)},
        expectations=expectations,
    )


def random_sharing_workload(
    num_cpus: int = 2,
    ops_per_cpu: int = 16,
    shared_lines: int = 4,
    write_fraction: float = 0.4,
    rng: RngLike = 0,
) -> MultiprocessorWorkload:
    """Straight-line random loads/stores over a small shared region.

    There is no synchronization, so no value expectations are possible
    beyond type-safety; used for stress and performance comparisons.
    """
    r = _rng(rng)
    addrs = [DATA_BASE + 4 * i + r.randrange(4) for i in range(shared_lines)]
    programs = []
    for cpu in range(num_cpus):
        b = ProgramBuilder()
        for i in range(ops_per_cpu):
            addr = r.choice(addrs)
            if r.random() < write_fraction:
                b.store_imm(cpu * 1000 + i, addr=addr, tag=f"st{i}")
            else:
                b.load(f"r{1 + (i % 8)}", addr=addr, tag=f"ld{i}")
        programs.append(b.build())
    return MultiprocessorWorkload(
        name=f"random-sharing-{num_cpus}x{ops_per_cpu}",
        programs=programs,
        initial_memory={a: 0 for a in addrs},
        expectations=[],
    )


def false_sharing_workload(
    num_cpus: int = 2,
    updates: int = 4,
    padded: bool = False,
    line_size: int = 4,
) -> MultiprocessorWorkload:
    """Per-CPU counters, packed into one line or padded apart.

    Each CPU repeatedly increments a *private* counter.  With
    ``padded=False`` all counters share one cache line, so the line
    ping-pongs and — under speculation — the conservative line-granular
    detection (paper, footnote 2) squashes loads whose *word* was never
    touched.  With ``padded=True`` each counter has its own line and
    the interference disappears.
    """
    if num_cpus > line_size and not padded:
        raise ValueError("packed counters need num_cpus <= words per line")

    def counter(cpu: int) -> int:
        stride = line_size if padded else 1
        return DATA_BASE + 4 * 16 + stride * cpu  # clear of other workloads

    programs: List[Program] = []
    for cpu in range(num_cpus):
        b = ProgramBuilder()
        b.mov_imm("r9", updates)
        b.label("again")
        b.load("r1", addr=counter(cpu), tag=f"ld c{cpu}")
        b.add_imm("r1", "r1", 1)
        b.store("r1", addr=counter(cpu), tag=f"st c{cpu}")
        b.alu("sub", "r9", "r9", imm=1)
        b.branch_nonzero("r9", "again", predict_taken=True)
        programs.append(b.build())

    return MultiprocessorWorkload(
        name=f"false-sharing-{'padded' if padded else 'packed'}",
        programs=programs,
        initial_memory={counter(c): 0 for c in range(num_cpus)},
        expectations=[(counter(c), updates) for c in range(num_cpus)],
    )


BARRIER_COUNT = 0x600
BARRIER_GEN = 0x604


def barrier_workload(
    num_cpus: int = 2,
    phases: int = 2,
    slots_base: int = 0x700,
) -> MultiprocessorWorkload:
    """A barrier-phased SPMD kernel.

    In each phase, CPU ``i`` publishes ``phase * 100 + i`` into its
    slot, everyone crosses a sense-reversing barrier, and each CPU
    reads its left neighbour's slot into an accumulator it finally
    publishes.  The final accumulators are fully determined, so this
    checks cross-processor synchronization end to end under any model
    and technique combination.
    """
    if num_cpus < 2:
        raise ValueError("a barrier needs at least two participants")

    def slot(cpu: int) -> int:
        return slots_base + 4 * cpu

    def result_addr(cpu: int) -> int:
        return slots_base + 4 * (num_cpus + cpu)

    programs: List[Program] = []
    for cpu in range(num_cpus):
        left = (cpu - 1) % num_cpus
        b = ProgramBuilder()
        b.mov_imm("r10", 0)  # accumulator
        for phase in range(phases):
            b.mov_imm("r1", phase * 100 + cpu)
            b.store("r1", addr=slot(cpu), tag=f"publish p{phase}")
            b.barrier(count_addr=BARRIER_COUNT, gen_addr=BARRIER_GEN,
                      num_cpus=num_cpus, tag=f"bar p{phase}")
            b.load("r2", addr=slot(left), tag=f"neighbour p{phase}")
            b.add("r10", "r10", "r2")
            # a second barrier keeps the next phase's publish from
            # racing this phase's neighbour reads
            b.barrier(count_addr=BARRIER_COUNT, gen_addr=BARRIER_GEN,
                      num_cpus=num_cpus, tag=f"bar2 p{phase}")
        b.store("r10", addr=result_addr(cpu), tag="result")
        programs.append(b.build())

    def expected(cpu: int) -> int:
        left = (cpu - 1) % num_cpus
        return sum(phase * 100 + left for phase in range(phases))

    memory = {BARRIER_COUNT: 0, BARRIER_GEN: 0}
    memory.update({slot(c): 0 for c in range(num_cpus)})
    return MultiprocessorWorkload(
        name=f"barrier-{num_cpus}x{phases}",
        programs=programs,
        initial_memory=memory,
        expectations=[(result_addr(c), expected(c)) for c in range(num_cpus)],
    )


def delayed_store_chain(
    num_stores: int = 8,
    software_prefetch: bool = False,
    data_base: int = DATA_BASE,
    lock_addr: int = LOCK_BASE,
) -> Program:
    """A critical section writing ``num_stores`` independent lines.

    Under SC every store is delayed behind the previous one, making
    this the canonical prefetch showcase.  With
    ``software_prefetch=True`` all the stores' lines are prefetched
    exclusively *before* the lock — a window no hardware lookahead
    buffer can match once ``num_stores`` exceeds the reservation
    station size (paper, Section 6: "the prefetching window is limited
    to the size of the instruction lookahead buffer, while ...
    software-controlled non-binding prefetching has an arbitrarily
    large window").
    """
    b = ProgramBuilder()
    addrs = [data_base + 4 * i for i in range(num_stores)]
    if software_prefetch:
        for addr in addrs:
            b.software_prefetch(addr=addr, exclusive=True, tag=f"pf {addr:#x}")
    b.lock_optimistic(addr=lock_addr, tag="lock")
    for i, addr in enumerate(addrs):
        b.store_imm(i + 1, addr=addr, tag=f"w{i}")
    b.unlock(addr=lock_addr, tag="unlock")
    return b.build()
