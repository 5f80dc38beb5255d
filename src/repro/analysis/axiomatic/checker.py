"""Candidate-execution enumeration and the axiomatic outcome oracle.

``axiomatic_outcomes(test, model)`` returns exactly the shape the
interleaving enumerator (:meth:`LitmusTest.outcomes`) returns — a
``FrozenSet[Outcome]`` — but derives it declaratively: enumerate the
(rf, co) candidate executions of the test, accept each one iff the
model's acyclicity axiom holds (see :mod:`.axioms`), and collect the
final register states of the accepted executions.

The two oracles are provably equivalent (the classical linearization
theorem, per model: a total order of all accesses extending ppo in
which every load reads the latest earlier store exists iff
``ppo ∪ rf ∪ co ∪ fr`` is acyclic), so any disagreement between them
is a bug in one of the two implementations — which is precisely what
makes this an independent leg for the differential harness.

Enumeration is pruned so the named litmus suite (including 4-thread
IRIW) checks in milliseconds:

* coherence orders are generated as interleavings of each thread's
  per-location store sequence — orders contradicting same-address
  program order are never materialized;
* a load's rf candidates are pre-filtered by per-location feasibility:
  a store po-sandwiched load can only read the latest same-thread
  store to the location or a coherence-successor of it, and never a
  coherence-successor of a same-thread store that po-follows it (each
  excluded choice closes a 2-cycle with a same-address po edge);
* an RMW's rf source is forced — its immediate coherence predecessor
  (the atomicity axiom), so RMWs contribute no choice fan-out;
* a candidate whose outcome is already accepted for the model is
  skipped.

The search works on packed integers: a candidate is one int holding
its communication edges as a bit-matrix (edge a -> b is bit
``a * n + b``) with its reads' value fields above, and acceptance is
``acyclic_matrix(ppo | candidate, n)``.

Like :meth:`LitmusTest.outcomes` — whose state-memoized search keeps
the interleaving side affordable — the axiomatic side memoizes across
calls: the candidate enumeration per test and outcome sets per
(test, ppo relation), keyed *structurally* (tests are mutable, so identity
keys would be unsound) in bounded insertion-ordered caches.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...consistency.litmus import LitmusTest, Outcome
from ...consistency.models import ConsistencyModel
from ...sim.errors import ConfigurationError
from .relations import (
    CandidateExecution,
    Event,
    acyclic_matrix,
    build_events,
    interleavings,
    pack,
    ppo_masks,
    unpack,
)

__all__ = [
    "axiomatic_outcomes",
    "candidate_executions",
    "compare_with_enumerator",
    "clear_caches",
    "OracleComparison",
]

#: guard against adversarial hand-built tests (12 single-op threads);
#: fuzz-generated tests stay orders of magnitude below this
CANDIDATE_LIMIT = 1_000_000

#: bounded structural caches (insertion-ordered FIFO eviction)
_CACHE_MAX = 512
_candidate_cache: "OrderedDict[object, _Plan]" = OrderedDict()
_outcome_cache: "OrderedDict[object, FrozenSet[Outcome]]" = OrderedDict()


def clear_caches() -> None:
    """Drop both memoization caches (tests and benchmarks)."""
    _candidate_cache.clear()
    _outcome_cache.clear()


def _remember(cache: "OrderedDict[object, object]", key: object,
              value) -> None:
    if len(cache) >= _CACHE_MAX:
        cache.popitem(last=False)
    cache[key] = value


def _test_key(test: LitmusTest) -> object:
    """A structural key: equal tests share cache entries, mutated
    tests miss (LitmusOp is frozen, so ops hash by value)."""
    return (tuple(tuple(thread) for thread in test.threads),
            tuple(sorted(test.initial.items())))


# ----------------------------------------------------------------------
# Candidate enumeration (model-independent)
# ----------------------------------------------------------------------

@dataclass
class _Plan:
    """One test's events and (rf, co) candidates, as the hot loop
    reads them.  A candidate is one int: its communication edges as a
    bit-matrix (see :func:`.relations.pack`) in the low ``n * n`` bits
    and, above them, one field per read holding the index in
    ``values`` of the value the read returns."""

    events: List[Event]
    #: the read events, in event order
    reads: List[Event]
    values: List[int]
    field: int
    #: (register, shift of its value field), by register name
    registers: List[Tuple[str, int]]
    candidates: List[int]
    #: (index of the first candidate, co) per coherence order that has
    #: candidates, in enumeration order
    coherence: List[Tuple[int, Tuple[Tuple[str, Tuple[int, ...]], ...]]]
    view: Optional[Tuple[CandidateExecution, ...]] = None

    def outcome(self, candidate: int) -> Outcome:
        """The final register state of a candidate."""
        return tuple([(reg, self.values[candidate >> at & self.field])
                      for reg, at in self.registers])


def _plan(test: LitmusTest, key: object) -> _Plan:
    cached = _candidate_cache.get(key)
    if cached is None:
        cached = _enumerate(test)
        _remember(_candidate_cache, key, cached)
    return cached


def candidate_executions(test: LitmusTest) -> Tuple[CandidateExecution, ...]:
    """All coherent (rf, co) witnesses of ``test``.

    Model-independent: the communication relations never mention ppo,
    so the (possibly expensive) enumeration is shared by all models —
    each model then runs only its own acyclicity pass.  The witnesses
    are a view of the cached enumeration, built on first request.
    """
    plan = _plan(test, _test_key(test))
    if plan.view is None:
        plan.view = tuple(_witnesses(plan))
    return plan.view


def _enumerate(test: LitmusTest) -> _Plan:
    events = build_events(test)
    n = len(events)

    # per-location, per-thread store sequences (event ids in po order)
    stores: Dict[str, Dict[int, List[int]]] = {}
    for e in events:
        if e.is_write and e.location is not None:
            stores.setdefault(e.location, {}).setdefault(e.tid, []).append(e.eid)
    locations = sorted(stores)
    reads = [e for e in events if e.is_read]
    values = sorted({0, *test.initial.values(),
                     *(e.op.value for e in events if e.is_write)})
    index = {value: i for i, value in enumerate(values)}
    width = max(1, (len(values) - 1).bit_length())
    # per read: its id, its location, whether it is a plain load, its
    # value field holding its location's initial value and holding
    # each event's stored value, and the latest same-thread store to
    # its location before it and the earliest after it in po (None:
    # there is none)
    shapes = []
    for i, r in enumerate(reads):
        loc = r.location
        assert loc is not None
        at = n * n + width * i
        own = stores.get(loc, {}).get(r.tid, [])
        before = [w for w in own if w < r.eid]
        after = [w for w in own if w > r.eid]
        shapes.append((r.eid, loc, r.op.op == "R",
                       index[test.initial.get(loc, 0)] << at,
                       [index[e.op.value] << at for e in events],
                       before[-1] if before else None,
                       after[0] if after else None))

    # every coherence order is visited (per location, the multinomial
    # of its threads' store counts): refuse before building them
    orders = 1
    for loc in locations:
        counts = [len(seq) for seq in stores[loc].values()]
        orders *= math.factorial(sum(counts))
        for count in counts:
            orders //= math.factorial(count)
    if orders > CANDIDATE_LIMIT:
        raise ConfigurationError(
            f"{test.name}: {orders} coherence orders is more than "
            f"{CANDIDATE_LIMIT}; this test is outside the axiomatic "
            f"checker's litmus-sized envelope")
    per_loc_orders = [interleavings(list(stores[loc].values()))
                      for loc in locations]
    candidates: List[int] = []
    coherence = []
    examined = 0
    for combo in itertools.product(*per_loc_orders):
        co = tuple(zip(locations, combo))
        deltas = _rf_deltas(n, shapes, dict(co))
        if deltas is None:
            continue
        count = 1
        for options in deltas:
            count *= len(options)
        examined += count
        if examined > CANDIDATE_LIMIT:
            raise ConfigurationError(
                f"{test.name}: more than {CANDIDATE_LIMIT} candidate "
                f"executions; this test is outside the axiomatic "
                f"checker's litmus-sized envelope")
        # co as consecutive pairs: the same reachability as all of co
        base = 0
        for order in combo:
            for a, b in zip(order, order[1:]):
                base |= 1 << (a * n + b)
        partial = [base]
        for options in deltas:
            partial = [c | d for c in partial for d in options]
        # no two candidates are equal: a plain load's rf edge names its
        # source, an RMW's is its co edge, and the store -> store edges
        # are exactly co's consecutive pairs, so com alone tells the
        # candidates apart
        coherence.append((len(candidates), co))
        candidates.extend(partial)
    registers = sorted((r.op.reg, n * n + width * i)
                       for i, r in enumerate(reads))
    return _Plan(events, reads, values, (1 << width) - 1, registers,
                 candidates, coherence)


def _rf_deltas(
    n: int,
    shapes: Sequence[Tuple[int, str, bool, int, List[int],
                           Optional[int], Optional[int]]],
    co: Dict[str, Tuple[int, ...]],
) -> Optional[List[List[int]]]:
    """Per read, one delta per feasible rf source under this co: the
    read's value field, its rf edge and, for a plain load, its
    from-read edge to the *next* store after its source (the
    transitive generator of fr).  Sources are pruned by per-location
    coherence against same-thread stores; an RMW's is forced to its
    immediate co predecessor.  ``None`` when some read has no feasible
    source under this co."""
    deltas: List[List[int]] = []
    for eid, loc, plain, initial, stored, before, after in shapes:
        order = co.get(loc, ())
        # sources lie at co positions lo..hi-1 (-1: the initial value):
        # at or after the latest same-thread po-earlier store, strictly
        # before the earliest same-thread po-later one
        lo = -1 if before is None else order.index(before)
        hi = len(order) if after is None else order.index(after)
        if not plain:
            at = order.index(eid) - 1
            if not lo <= at < hi:
                return None
            lo, hi = at, at + 1
        elif lo >= hi:
            return None
        options = []
        for at in range(lo, hi):
            if at < 0:
                delta = initial
            else:
                delta = stored[order[at]] | 1 << (order[at] * n + eid)
            if plain and at + 1 < len(order):
                delta |= 1 << (eid * n + order[at + 1])
            options.append(delta)
        deltas.append(options)
    return deltas


def _witnesses(plan: _Plan):
    """The :class:`CandidateExecution` of each planned candidate: its
    rf source is the one same-location store with an edge into the
    read (into a plain load only rf leads; into an RMW also its co
    predecessor, which is its rf source)."""
    n = len(plan.events)
    ends = [first for first, _ in plan.coherence[1:]] + [len(plan.candidates)]
    for (first, co), end in zip(plan.coherence, ends):
        writers = dict(co)
        for candidate in plan.candidates[first:end]:
            rf = []
            for r in plan.reads:
                for w in writers.get(r.location or "", ()):
                    if candidate >> (w * n + r.eid) & 1:
                        rf.append((r.eid, w))
            yield CandidateExecution(
                outcome=plan.outcome(candidate),
                com=unpack(candidate & ((1 << n * n) - 1), n),
                rf=tuple(sorted(rf)), co=co)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

def axiomatic_outcomes(test: LitmusTest,
                       model: ConsistencyModel) -> FrozenSet[Outcome]:
    """The outcome set the model's axioms admit for ``test``.

    Same shape as :meth:`LitmusTest.outcomes`; memoized per
    (test structure, ppo): the axiom reads nothing else of the model,
    so models that preserve the same program order share one solve.
    """
    test_key = _test_key(test)
    plan = _plan(test, test_key)
    ppo = pack(ppo_masks(test, model))
    key = (test_key, ppo)
    cached = _outcome_cache.get(key)
    if cached is not None:
        return cached
    n = len(plan.events)
    shift = n * n
    # the value fields above the bit-matrix are the outcome, and
    # acyclic_matrix reads only the bit-matrix
    accepted: set = set()
    for candidate in plan.candidates:
        if (candidate >> shift not in accepted
                and acyclic_matrix(ppo | candidate, n)):
            accepted.add(candidate >> shift)
    result = frozenset(plan.outcome(fields << shift) for fields in accepted)
    _remember(_outcome_cache, key, result)
    return result


def accepting_witness(test: LitmusTest, model: ConsistencyModel,
                      outcome: Outcome) -> Optional[CandidateExecution]:
    """An accepted candidate with the given outcome, if any (the
    explanation the CLI prints for worked derivations)."""
    view = candidate_executions(test)
    plan = _plan(test, _test_key(test))
    ppo = pack(ppo_masks(test, model))
    n = len(plan.events)
    for witness, candidate in zip(view, plan.candidates):
        if witness.outcome == outcome and acyclic_matrix(ppo | candidate, n):
            return witness
    return None


@dataclass(frozen=True)
class OracleComparison:
    """Axiomatic vs interleaving enumerator on one (test, model)."""

    test_name: str
    model: str
    axiomatic: FrozenSet[Outcome]
    enumerated: FrozenSet[Outcome]

    @property
    def agree(self) -> bool:
        return self.axiomatic == self.enumerated

    @property
    def missing(self) -> FrozenSet[Outcome]:
        """Outcomes the interleaver permits but the axioms reject."""
        return self.enumerated - self.axiomatic

    @property
    def extra(self) -> FrozenSet[Outcome]:
        """Outcomes the axioms admit but the interleaver never reaches."""
        return self.axiomatic - self.enumerated

    def describe(self) -> str:
        mark = "ok  " if self.agree else "FAIL"
        text = (f"[{mark}] {self.test_name:>20} under {self.model:>5}: "
                f"{len(self.axiomatic)} axiomatic / "
                f"{len(self.enumerated)} enumerated outcome(s)")
        if not self.agree:
            text += (f" — {len(self.missing)} missing, "
                     f"{len(self.extra)} extra")
        return text


def compare_with_enumerator(test: LitmusTest,
                            model: ConsistencyModel) -> OracleComparison:
    """Cross-check the two independent oracles on one test."""
    return OracleComparison(
        test_name=test.name,
        model=model.name,
        axiomatic=axiomatic_outcomes(test, model),
        enumerated=test.outcomes(model),
    )
