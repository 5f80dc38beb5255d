"""Relational structures for the axiomatic (herd-style) checker.

A *candidate execution* of a litmus test is a set of events plus a
handful of binary relations over them:

* **po** — program order: same thread, earlier index first;
* **ppo** — *preserved* program order: the po edges a model enforces.
  Exactly the relation the interleaving enumerator reads
  (:meth:`LitmusTest.ordering`, from ``ConsistencyModel.preserves``):
  an edge when the two accesses share an address (local data
  dependences are always observed) or when the model draws a delay
  arc between their :class:`AccessClass`es;
* **rf** — reads-from: which store (or the initial value) each load
  observes;
* **co** — coherence order: a total order on the stores to each
  location, consistent with each thread's program order to that
  location;
* **fr** — from-reads, *derived* as ``rf⁻¹ ; co``: a load is ordered
  before every store that coherence-follows the store it read from.

Everything here is sized for litmus tests (``LitmusTest`` caps a test
at 12 accesses), so a relation is one bit-matrix over event ids (edge
a -> b is bit ``a * n + b``, at most 144 bits) and acyclicity peels
sinks off a graph of at most 12 nodes.

Atomic read-modify-writes are modelled as a *single* event that both
reads and writes.  Its read half is forced to observe its immediate
coherence predecessor, which is precisely the classical ``fr ; co``
atomicity exclusion: no foreign store may intervene between the value
an RMW reads and the value it writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...consistency.litmus import LitmusOp, LitmusTest, Outcome
from ...consistency.models import ConsistencyModel

__all__ = [
    "Event",
    "CandidateExecution",
    "acyclic",
    "acyclic_matrix",
    "build_events",
    "pack",
    "ppo_masks",
    "unpack",
]


@dataclass(frozen=True)
class Event:
    """One access (or fence) of a litmus test, as a relation node."""

    eid: int            # global event id == bit position in masks
    tid: int            # thread index
    idx: int            # index within the thread
    op: LitmusOp

    @property
    def location(self) -> Optional[str]:
        return None if self.op.op == "F" else self.op.addr

    @property
    def is_read(self) -> bool:
        return self.op.op in ("R", "U")

    @property
    def is_write(self) -> bool:
        return self.op.op in ("W", "U")

    def describe(self) -> str:
        return f"e{self.eid}=T{self.tid}.{self.idx}:{self.op.describe()}"


@dataclass(frozen=True)
class CandidateExecution:
    """One (rf, co) witness: communication edges plus the final state.

    ``com`` is the union rf ∪ co ∪ fr as successor bitmasks — by
    construction it is acyclic on its own (all three relations agree
    with the per-location coherence order), so a model accepts the
    execution iff ``ppo ∪ com`` stays acyclic.
    """

    outcome: Outcome
    com: Tuple[int, ...]
    #: rf as a map read-eid -> write-eid (absent key = initial value)
    rf: Tuple[Tuple[int, int], ...]
    #: co as per-location event-id orders, for explanations
    co: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def describe(self, events: Sequence[Event]) -> str:
        rf_text = ", ".join(
            f"e{w}->e{r}" for r, w in self.rf) or "all-from-init"
        co_text = "; ".join(
            f"{loc}: " + " -> ".join(f"e{e}" for e in order)
            for loc, order in self.co if len(order) > 1)
        out = ", ".join(f"{reg}={val}" for reg, val in self.outcome)
        return f"({out})  rf: {rf_text}" + (f"  co: {co_text}" if co_text else "")


def build_events(test: LitmusTest) -> List[Event]:
    """Flatten a litmus test into numbered events (po-major order)."""
    events: List[Event] = []
    for tid, thread in enumerate(test.threads):
        for idx, op in enumerate(thread):
            events.append(Event(eid=len(events), tid=tid, idx=idx, op=op))
    return events


def ppo_masks(test: LitmusTest, model: ConsistencyModel) -> List[int]:
    """Preserved program order under ``model`` as successor bitmasks,
    indexed by event id (:func:`build_events` numbers po-major, as
    :meth:`LitmusTest.ordering` does): the transpose of the
    enumerator's predecessor masks, so both oracles read one relation.
    """
    masks = [0] * sum(len(thread) for thread in test.threads)
    for b, preds in enumerate(test.ordering(model)):
        for a in range(b):
            if preds >> a & 1:
                masks[a] |= 1 << b
    return masks


def pack(succ: Sequence[int]) -> int:
    """Successor bitmasks as one bit-matrix: edge a -> b is bit
    ``a * n + b`` of an ``n``-node relation."""
    n = len(succ)
    return sum(row << (a * n) for a, row in enumerate(succ))


def unpack(matrix: int, n: int) -> Tuple[int, ...]:
    """The successor bitmasks of an ``n``-node bit-matrix."""
    full = (1 << n) - 1
    return tuple(matrix >> (a * n) & full for a in range(n))


def acyclic_matrix(matrix: int, n: int) -> bool:
    """Is the ``n``-node bit-matrix free of directed cycles?

    Repeatedly peels off the nodes with no successor left: a sink is
    on no cycle, and a relation whose every remaining node has a
    successor has one.  Nodes are visited last-first, so program-order
    chains (which point to higher event ids) peel in one sweep.
    """
    full = (1 << n) - 1
    rows = [matrix >> (a * n) & full for a in range(n - 1, -1, -1)]
    live = full
    while live:
        left = live
        bit = 1 << n
        for row in rows:
            bit >>= 1
            if left & bit and not row & left:
                left ^= bit
        if left == live:
            return False
        live = left
    return True


def acyclic(succ: Sequence[int]) -> bool:
    """Is the relation (successor bitmasks) free of directed cycles?"""
    return acyclic_matrix(pack(succ), len(succ))


def interleavings(seqs: Sequence[Sequence[int]]):
    """All merges of the given sequences that preserve each sequence's
    internal order (the per-location coherence-order candidates)."""
    live = [list(s) for s in seqs if s]
    total = sum(len(s) for s in live)
    positions = [0] * len(live)
    prefix: List[int] = []

    def rec():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, s in enumerate(live):
            if positions[i] >= len(s):
                continue
            prefix.append(s[positions[i]])
            positions[i] += 1
            yield from rec()
            positions[i] -= 1
            prefix.pop()

    yield from rec()


def event_table(events: Sequence[Event]) -> str:
    return "\n".join("  " + e.describe() for e in events)
