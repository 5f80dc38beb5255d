"""Litmus tests: exhaustive enumeration of outcomes permitted by a model.

The operational semantics match the paper's simplifying assumptions
(Section 2): writes are atomic — a write becomes visible to all
processors at the same time — so an execution is a *linearization* of
all accesses.  A consistency model constrains which linearizations are
legal: if ``delay_arc(a, b)`` holds for two same-thread accesses, ``a``
must be linearized before ``b``.  Same-address accesses from one thread
always stay in program order (local data dependences are observed).

Loads read the most recent earlier write to their address in the
linearization, or the initial value.  The set of reachable final
register assignments is the model's *outcome set*; comparing outcome
sets across models reproduces Figure 1's ordering-restriction story in
an executable form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..sim.errors import ConfigurationError
from .access_class import AccessClass
from .models import ConsistencyModel

Outcome = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class LitmusOp:
    """One access in a litmus thread.

    ``op`` is ``"R"``, ``"W"``, ``"U"`` (an atomic read-modify-write:
    the register receives the old value, memory receives ``value`` —
    swap semantics), or ``"F"`` (a full fence).  Reads and RMWs name a
    destination register (unique across the whole test); writes and
    RMWs carry a value; fences touch no shared location — they only
    constrain the linearization (and compile to an acquire+release RMW
    on a private line).
    """

    op: str
    addr: str = ""
    value: int = 0
    reg: str = ""
    acquire: bool = False
    release: bool = False

    def __post_init__(self) -> None:
        if self.op not in ("R", "W", "U", "F"):
            raise ConfigurationError(
                f"litmus op must be 'R', 'W', 'U', or 'F', got {self.op!r}")
        if self.op in ("R", "U") and not self.reg:
            raise ConfigurationError(
                "litmus reads and RMWs need a destination register name")
        if self.op == "F":
            if self.acquire or self.release or self.addr or self.reg:
                raise ConfigurationError("a fence is already a full sync; "
                                         "it takes no address, register, or flags")
            return
        if self.acquire and self.op not in ("R", "U"):
            raise ConfigurationError("acquire must be a read or an RMW")
        if self.release and self.op not in ("W", "U"):
            raise ConfigurationError("release must be a write or an RMW")

    def access_class(self) -> AccessClass:
        if self.op == "F":
            # acquire+release RMW: a delay arc to and from everything
            # under every model
            return AccessClass(is_load=True, is_store=True,
                               acquire=True, release=True)
        return AccessClass(is_load=self.op in ("R", "U"),
                           is_store=self.op in ("W", "U"),
                           acquire=self.acquire, release=self.release)

    @property
    def reads(self) -> bool:
        return self.op in ("R", "U")

    @property
    def writes(self) -> bool:
        return self.op in ("W", "U")

    def describe(self) -> str:
        if self.op == "F":
            return "F"
        flags = ""
        if self.acquire:
            flags += ".acq"
        if self.release:
            flags += ".rel"
        if self.op == "R":
            return f"R{flags} {self.addr} -> {self.reg}"
        if self.op == "U":
            return f"U{flags} {self.addr} = {self.value} -> {self.reg}"
        return f"W{flags} {self.addr} = {self.value}"


def read(addr: str, reg: str, acquire: bool = False) -> LitmusOp:
    return LitmusOp(op="R", addr=addr, reg=reg, acquire=acquire)


def write(addr: str, value: int, release: bool = False) -> LitmusOp:
    return LitmusOp(op="W", addr=addr, value=value, release=release)


def rmw(addr: str, reg: str, value: int, acquire: bool = False,
        release: bool = False) -> LitmusOp:
    """An atomic swap: ``reg`` gets the old value, memory gets ``value``."""
    return LitmusOp(op="U", addr=addr, reg=reg, value=value,
                    acquire=acquire, release=release)


def fence() -> LitmusOp:
    return LitmusOp(op="F")


@dataclass
class LitmusTest:
    """A named multi-threaded litmus test."""

    #: exhaustive enumeration is exponential in the access count
    MAX_ACCESSES = 12

    name: str
    threads: Sequence[Sequence[LitmusOp]]
    initial: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        regs = [op.reg for t in self.threads for op in t if op.reads]
        if len(regs) != len(set(regs)):
            raise ConfigurationError(f"{self.name}: read registers must be unique")
        total = sum(len(t) for t in self.threads)
        if total > self.MAX_ACCESSES:
            raise ConfigurationError(
                f"{self.name}: {total} accesses is too many for exhaustive enumeration"
            )

    # ------------------------------------------------------------------
    def ordering(self, model: ConsistencyModel) -> Tuple[int, ...]:
        """What ``model`` makes of this test: per access (numbered
        thread by thread), the bitmask of earlier same-thread accesses
        that must linearize before it — those to the same address and
        those ``model`` draws a delay arc from.  Models with equal
        orderings have equal outcome sets."""
        classes = [op.access_class() for thread in self.threads for op in thread]
        masks: List[int] = []
        for thread in self.threads:
            base = len(masks)
            for i, op in enumerate(thread):
                mask = 0
                for j in range(i):
                    if thread[j].addr == op.addr or model.delay_arc(
                            classes[base + j], classes[base + i]):
                        mask |= 1 << (base + j)
                masks.append(mask)
        return tuple(masks)

    def outcomes(self, model: ConsistencyModel) -> FrozenSet[Outcome]:
        """All final register assignments reachable under ``model``."""
        ops = [op for thread in self.threads for op in thread]
        slots = {addr: i for i, addr in enumerate(
            sorted({op.addr for op in ops if op.op != "F"}))}
        names = sorted(op.reg for op in ops if op.reads)
        # one row per access: its bit, the bits that must be set first,
        # its memory slot, the value it stores (None: it stores nothing)
        # and the register slot it fills (-1: none)
        program = [(1 << k, need, slots.get(op.addr, -1),
                    op.value if op.writes else None,
                    names.index(op.reg) if op.reads else -1)
                   for k, (op, need) in enumerate(zip(ops, self.ordering(model)))]
        full = (1 << len(ops)) - 1
        start = (0, tuple(self.initial.get(addr, 0) for addr in slots),
                 (0,) * len(names))
        # Many linearizations reach identical (done, memory, registers)
        # states — e.g. two independent fences in either order.  Visiting
        # each state once collapses that exponential blow-up, which is
        # what keeps enumeration affordable for the fuzzer's generated
        # tests (up to 4 threads of mixed R/W/RMW/F ops).
        visited = {start}
        stack = [start]
        results: set = set()
        while stack:
            done, memory, regs = stack.pop()
            if done == full:
                results.add(regs)
                continue
            for bit, need, slot, value, reg in program:
                if done & bit or need & ~done:
                    continue
                state = (
                    done | bit,
                    memory if value is None
                    else memory[:slot] + (value,) + memory[slot + 1:],
                    regs if reg < 0
                    else regs[:reg] + (memory[slot],) + regs[reg + 1:])
                if state not in visited:
                    visited.add(state)
                    stack.append(state)
        return frozenset(tuple(zip(names, regs)) for regs in results)

    # ------------------------------------------------------------------
    def allows(self, model: ConsistencyModel, **partial: int) -> bool:
        """Is some outcome consistent with the given register values?"""
        wanted = set(partial.items())
        return any(wanted <= set(outcome) for outcome in self.outcomes(model))

    def forbids(self, model: ConsistencyModel, **partial: int) -> bool:
        return not self.allows(model, **partial)

    # ------------------------------------------------------------------
    def with_fences(self, positions: Optional[Dict[int, Sequence[int]]] = None,
                    suffix: str = "+fences") -> "LitmusTest":
        """A copy with full fences inserted.

        ``positions`` maps a thread index to the op indices *before
        which* a fence goes; ``None`` fences every gap of every thread
        (the brute-force way to restore SC on any model).
        """
        threads: List[List[LitmusOp]] = []
        for t, ops in enumerate(self.threads):
            if positions is None:
                where = set(range(1, len(ops)))
            else:
                where = set(positions.get(t, ()))
            out: List[LitmusOp] = []
            for i, op in enumerate(ops):
                if i in where:
                    out.append(fence())
                out.append(op)
            threads.append(out)
        return LitmusTest(name=self.name + suffix, threads=threads,
                          initial=dict(self.initial))

    # ------------------------------------------------------------------
    #: symbolic litmus locations -> concrete word addresses (distinct
    #: cache lines for the default 4-word line)
    ADDR_MAP = {"x": 0x100, "y": 0x110, "data": 0x120, "flag": 0x130,
                "L": 0x140}
    #: per-thread audit slots: read results are stored here post-run
    AUDIT_BASE = 0x800
    #: per-thread private fence lines
    FENCE_BASE = 0xF00
    #: ISA registers usable for litmus read results — excludes the
    #: value scratch (r9), the delay counter (r20), and the builder
    #: macros' scratch registers (r30/r31)
    ISA_REGS = tuple(f"r{n}" for n in range(1, 30) if n not in (9, 20))

    def to_programs(self, delays: Sequence[int] = (),
                    addr_map: Optional[Dict[str, int]] = None,
                    audit: bool = True) -> Tuple[List["Program"], Dict[str, int]]:
        """Compile each thread to an ISA :class:`Program`.

        Reads land in distinct registers; with ``audit`` each read
        register is stored to a private audit slot so the outcome can be
        read back from memory after a detailed-machine run.  Returns
        ``(programs, audit_map)`` where ``audit_map`` maps litmus
        register names to their slot addresses.  ``delays`` skews the
        threads' start times with dependent-ALU chains.
        """
        from ..isa.program import ProgramBuilder  # local: isa must not import consistency

        addrs = addr_map or self.ADDR_MAP
        programs: List[Program] = []
        audit_map: Dict[str, int] = {}
        for tid, ops in enumerate(self.threads):
            b = ProgramBuilder()
            delay = delays[tid % len(delays)] if delays else 0
            if delay:
                b.mov_imm("r20", 0)
                for _ in range(delay):
                    b.add_imm("r20", "r20", 1)
            audits: List[Tuple[str, str]] = []
            for i, op in enumerate(ops):
                if op.op == "F":
                    b.fence(addr=self.FENCE_BASE + 0x10 * tid, tag="fence")
                elif op.op == "W":
                    b.mov_imm("r9", op.value)
                    b.store("r9", addr=addrs[op.addr], release=op.release,
                            tag=f"W {op.addr}")
                elif op.op == "U":
                    reg = self.ISA_REGS[i]
                    b.mov_imm("r9", op.value)
                    b.rmw(reg, addr=addrs[op.addr], op="swap", src="r9",
                          acquire=op.acquire, release=op.release,
                          tag=f"U {op.addr}")
                    audits.append((op.reg, reg))
                else:
                    reg = self.ISA_REGS[i]
                    b.load(reg, addr=addrs[op.addr], acquire=op.acquire,
                           tag=f"R {op.addr}")
                    audits.append((op.reg, reg))
            if audit:
                for j, (litmus_reg, isa_reg) in enumerate(audits):
                    slot = self.AUDIT_BASE + 0x40 * tid + 4 * j
                    b.store(isa_reg, addr=slot, tag=f"audit {litmus_reg}")
                    audit_map[litmus_reg] = slot
            programs.append(b.build())
        return programs, audit_map

    def addresses(self, addr_map: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """The concrete addresses :meth:`to_programs` uses for this
        test's shared locations."""
        addrs = addr_map or self.ADDR_MAP
        return {op.addr: addrs[op.addr]
                for t in self.threads for op in t if op.op != "F"}


# ----------------------------------------------------------------------
# The standard litmus library
# ----------------------------------------------------------------------

def store_buffering() -> LitmusTest:
    """SB / Dekker: both reads returning 0 requires R to bypass earlier W."""
    return LitmusTest(
        name="store-buffering",
        threads=[
            [write("x", 1), read("y", "r0")],
            [write("y", 1), read("x", "r1")],
        ],
    )


def message_passing() -> LitmusTest:
    """MP: consumer sees flag=1 but stale data=0 only if W-W or R-R reorder."""
    return LitmusTest(
        name="message-passing",
        threads=[
            [write("data", 1), write("flag", 1)],
            [read("flag", "r0"), read("data", "r1")],
        ],
    )


def message_passing_sync() -> LitmusTest:
    """MP with a release-store flag and acquire-load flag (RC idiom)."""
    return LitmusTest(
        name="message-passing-sync",
        threads=[
            [write("data", 1), write("flag", 1, release=True)],
            [read("flag", "r0", acquire=True), read("data", "r1")],
        ],
    )


def load_buffering() -> LitmusTest:
    """LB: both reads returning the other thread's later write."""
    return LitmusTest(
        name="load-buffering",
        threads=[
            [read("x", "r0"), write("y", 1)],
            [read("y", "r1"), write("x", 1)],
        ],
    )


def coherence_per_location() -> LitmusTest:
    """Same-location writes must be observed in program order."""
    return LitmusTest(
        name="coherence",
        threads=[
            [write("x", 1), write("x", 2)],
            [read("x", "r0"), read("x", "r1")],
        ],
    )


def critical_section() -> LitmusTest:
    """An RC-style critical section: data race-free hand-off through a lock.

    Thread 0 acquires (reads the free lock), writes data, releases.
    Thread 1 acquires *after* observing the release value, reads data.
    With proper acquire/release labeling, a consumer that saw the
    release must see the data.
    """
    return LitmusTest(
        name="critical-section",
        threads=[
            [read("L", "r_lock0", acquire=True), write("data", 1),
             write("L", 2, release=True)],
            [read("L", "r_lock1", acquire=True), read("data", "r_data")],
        ],
    )


def iriw() -> LitmusTest:
    """Independent reads of independent writes.

    With the paper's Section 2 assumption — a write becomes visible to
    all processors at the same time — the two readers can never
    disagree about the order of the two writes, under *any* of the
    models (write atomicity, not program order, is what IRIW probes).
    """
    return LitmusTest(
        name="iriw",
        threads=[
            [write("x", 1)],
            [write("y", 1)],
            [read("x", "r0", acquire=True), read("y", "r1", acquire=True)],
            [read("y", "r2", acquire=True), read("x", "r3", acquire=True)],
        ],
    )


def write_to_read_causality() -> LitmusTest:
    """WRC: a value observed and republished must stay observable."""
    return LitmusTest(
        name="wrc",
        threads=[
            [write("x", 1)],
            [read("x", "r0", acquire=True), write("y", 1, release=True)],
            [read("y", "r1", acquire=True), read("x", "r2")],
        ],
    )


def sb_with_sync() -> LitmusTest:
    """SB where both stores are releases and both loads acquires.

    Under RCpc a release -> acquire pair is still unordered, so the
    Dekker outcome survives even fully-labelled code — this is exactly
    the RCpc/RCsc distinction (footnote 1).
    """
    return LitmusTest(
        name="sb+sync",
        threads=[
            [write("x", 1, release=True), read("y", "r0", acquire=True)],
            [write("y", 1, release=True), read("x", "r1", acquire=True)],
        ],
    )


STANDARD_TESTS = {
    "SB": store_buffering,
    "MP": message_passing,
    "MP+sync": message_passing_sync,
    "LB": load_buffering,
    "coherence": coherence_per_location,
    "IRIW": iriw,
    "WRC": write_to_read_causality,
    "SB+sync": sb_with_sync,
}

