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
* duplicate witnesses (same communication edges and final state) are
  collapsed before the per-model acyclicity pass, and a candidate
  whose outcome is already accepted for the model is skipped.

Like :meth:`LitmusTest.outcomes` — whose state-memoized search keeps
the interleaving side affordable — the axiomatic side memoizes across
calls: candidate executions per test and outcome sets per
(test, ppo relation), keyed *structurally* (tests are mutable, so identity
keys would be unsound) in bounded insertion-ordered caches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...consistency.litmus import LitmusTest, Outcome
from ...consistency.models import ConsistencyModel
from ...sim.errors import ConfigurationError
from .relations import (
    CandidateExecution,
    Event,
    acyclic,
    build_events,
    interleavings,
    ppo_masks,
    union_masks,
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
_candidate_cache: Dict[object, Tuple[CandidateExecution, ...]] = {}
_outcome_cache: Dict[object, FrozenSet[Outcome]] = {}


def clear_caches() -> None:
    """Drop both memoization caches (tests and benchmarks)."""
    _candidate_cache.clear()
    _outcome_cache.clear()


def _remember(cache: Dict[object, object], key: object, value) -> None:
    if len(cache) >= _CACHE_MAX:
        cache.pop(next(iter(cache)))
    cache[key] = value


def _test_key(test: LitmusTest) -> object:
    """A structural key: equal tests share cache entries, mutated
    tests miss (LitmusOp is frozen, so ops hash by value)."""
    return (tuple(tuple(thread) for thread in test.threads),
            tuple(sorted(test.initial.items())))


# ----------------------------------------------------------------------
# Candidate enumeration (model-independent)
# ----------------------------------------------------------------------

def candidate_executions(test: LitmusTest) -> Tuple[CandidateExecution, ...]:
    """All coherent (rf, co) witnesses of ``test``, deduplicated.

    Model-independent: the communication relations never mention ppo,
    so the (possibly expensive) enumeration is shared by all models —
    each model then runs only its own acyclicity pass.
    """
    key = _test_key(test)
    cached = _candidate_cache.get(key)
    if cached is not None:
        return cached

    events = build_events(test)
    n = len(events)
    initial = dict(test.initial)

    # per-location, per-thread store sequences (event ids in po order)
    stores: Dict[str, Dict[int, List[int]]] = {}
    for e in events:
        if e.is_write and e.location is not None:
            stores.setdefault(e.location, {}).setdefault(e.tid, []).append(e.eid)
    locations = sorted(stores)
    reads = [e for e in events if e.is_read]

    per_loc_orders: List[List[Tuple[int, ...]]] = [
        list(interleavings(list(stores[loc].values()))) for loc in locations]

    seen: set = set()
    out: List[CandidateExecution] = []
    examined = 0
    for combo in itertools.product(*per_loc_orders):
        loc_order: Dict[str, Tuple[int, ...]] = dict(zip(locations, combo))
        pos: Dict[int, int] = {eid: i
                               for order in combo
                               for i, eid in enumerate(order)}
        choices = _rf_choices(events, reads, loc_order, pos)
        if choices is None:
            continue
        for assignment in itertools.product(*[c for _, c in choices]):
            examined += 1
            if examined > CANDIDATE_LIMIT:
                raise ConfigurationError(
                    f"{test.name}: more than {CANDIDATE_LIMIT} candidate "
                    f"executions; this test is outside the axiomatic "
                    f"checker's litmus-sized envelope")
            candidate = _materialize(events, n, initial, loc_order, pos,
                                     choices, assignment)
            dedup = (candidate.outcome, candidate.com)
            if dedup in seen:
                continue
            seen.add(dedup)
            out.append(candidate)
    result = tuple(out)
    _remember(_candidate_cache, key, result)
    return result


def _rf_choices(
    events: Sequence[Event],
    reads: Sequence[Event],
    loc_order: Dict[str, Tuple[int, ...]],
    pos: Dict[int, int],
) -> Optional[List[Tuple[Event, List[Optional[int]]]]]:
    """Feasible rf sources per read (``None`` = initial value), pruned
    by per-location coherence against same-thread stores.  Returns
    ``None`` when some read has no feasible source under this co."""
    choices: List[Tuple[Event, List[Optional[int]]]] = []
    for r in reads:
        loc = r.location
        assert loc is not None
        order = loc_order.get(loc, ())
        # lo: the co position of the latest same-thread po-earlier
        # store (sources must be at or after it; init is out);
        # hi: the position of the earliest same-thread po-later store
        # (sources must be strictly before it)
        lo, hi = -1, len(order)
        for w in events:
            if (w.eid == r.eid or w.tid != r.tid or not w.is_write
                    or w.location != loc):
                continue
            if w.idx < r.idx:
                lo = max(lo, pos[w.eid])
            else:
                hi = min(hi, pos[w.eid])
        if r.op.op == "U":
            p = pos[r.eid]
            src = order[p - 1] if p > 0 else None
            src_pos = -1 if src is None else pos[src]
            if src_pos < lo or src_pos >= hi:
                return None
            opts: List[Optional[int]] = [src]
        else:
            opts = [None] if lo < 0 else []
            opts.extend(order[i] for i in range(max(lo, 0), hi))
            if not opts:
                return None
        choices.append((r, opts))
    return choices


def _materialize(
    events: Sequence[Event],
    n: int,
    initial: Dict[str, int],
    loc_order: Dict[str, Tuple[int, ...]],
    pos: Dict[int, int],
    choices: Sequence[Tuple[Event, Sequence[Optional[int]]]],
    assignment: Sequence[Optional[int]],
) -> CandidateExecution:
    """Build the communication bitmasks and outcome for one witness.

    Edges are the transitive generators only — consecutive co pairs,
    rf, and each plain load's from-read to the *next* store after its
    source — which have the same reachability (hence the same cycles)
    as the full relations.
    """
    masks = [0] * n
    for order in loc_order.values():
        for a, b in zip(order, order[1:]):
            masks[a] |= 1 << b
    regs: Dict[str, int] = {}
    rf_pairs: List[Tuple[int, int]] = []
    for (r, _), src in zip(choices, assignment):
        loc = r.location
        assert loc is not None
        if src is None:
            regs[r.op.reg] = initial.get(loc, 0)
        else:
            regs[r.op.reg] = events[src].op.value
            masks[src] |= 1 << r.eid
            rf_pairs.append((r.eid, src))
        if r.op.op == "R":
            order = loc_order.get(loc, ())
            nxt_pos = (pos[src] if src is not None else -1) + 1
            if nxt_pos < len(order):
                masks[r.eid] |= 1 << order[nxt_pos]
    return CandidateExecution(
        outcome=tuple(sorted(regs.items())),
        com=tuple(masks),
        rf=tuple(sorted(rf_pairs)),
        co=tuple(sorted(loc_order.items())),
    )


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
    ppo = ppo_masks(build_events(test), model)
    key = (_test_key(test), tuple(ppo))
    cached = _outcome_cache.get(key)
    if cached is not None:
        return cached
    accepted: set = set()
    for candidate in candidate_executions(test):
        if candidate.outcome in accepted:
            continue
        if acyclic(union_masks(ppo, candidate.com)):
            accepted.add(candidate.outcome)
    result = frozenset(accepted)
    _remember(_outcome_cache, key, result)
    return result


def accepting_witness(test: LitmusTest, model: ConsistencyModel,
                      outcome: Outcome) -> Optional[CandidateExecution]:
    """An accepted candidate with the given outcome, if any (the
    explanation the CLI prints for worked derivations)."""
    ppo = ppo_masks(build_events(test), model)
    for candidate in candidate_executions(test):
        if candidate.outcome != outcome:
            continue
        if acyclic(union_masks(ppo, candidate.com)):
            return candidate
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
