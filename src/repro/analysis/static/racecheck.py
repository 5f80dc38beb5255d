"""The static race & ordering analyzer.

Given one :class:`~repro.isa.program.Program` per processor and a
consistency model, the analyzer:

1. extracts each thread's shared accesses (:mod:`program_model`);
2. builds the *statically enforced happens-before*: program-order edges
   the model's delay arcs (transitively) enforce, plus
   synchronizes-with edges — a store on one processor to the address a
   *guarded* load on another processor spins on or tests;
3. finds every conflicting pair — same line (or unresolvable address),
   different processors, at least one store — and classifies it:

   * **ordered-by-sync** — a happens-before chain (or a common lock's
     mutual exclusion) orders the pair under this model: race-free, per
     the DRF theorem the execution stays sequentially consistent;
   * **fence-fixable** — the synchronization structure exists at the
     program-order level but the model drops a local link of the chain
     (e.g. an unlabeled message-passing flag under WC/RC): the
     suggested fence/labels restore race-freedom;
   * **racy** — no synchronization orders the pair at all.  The
     suggested fences restore program order around the racy accesses,
     which (under the paper's write-atomicity assumption) restores
     SC-equivalence even though the race itself remains.

Under SC the classification is vacuous — sequentially consistent
hardware is sequentially consistent for *all* programs — so the
analyzer reports no race findings and notes the unconditional
guarantee.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...consistency.access_class import PLAIN_LOAD, PLAIN_STORE
from ...consistency.models import ConsistencyModel
from ...isa.instructions import Rmw
from ...isa.program import Program
from .axiomatic_bridge import axiomatic_verdict
from .diagnostics import AnalysisReport, Diagnostic, FenceSuggestion, Severity, Site
from .program_model import StaticAccess, ThreadModel

Node = Tuple[int, int]  # (cpu, order)


class PairClass(enum.Enum):
    SC_ORDERED = "sc-ordered"          # model itself enforces SC
    SYNC_PAIR = "sync-pair"            # the pair IS the synchronization
    ORDERED_BY_SYNC = "ordered-by-sync"
    FENCE_FIXABLE = "fence-fixable"
    RACY = "racy"


@dataclass(frozen=True)
class ClassifiedPair:
    a: StaticAccess
    b: StaticAccess
    classification: PairClass

    def describe(self) -> str:
        return (f"{self.classification.value}: "
                f"cpu{self.a.cpu} {self.a.site_tag()} <-> "
                f"cpu{self.b.cpu} {self.b.site_tag()}")


def _model_is_total(model: ConsistencyModel) -> bool:
    """Does the model enforce program order between all plain accesses
    (i.e. is it operationally SC)?"""
    plains = (PLAIN_LOAD, PLAIN_STORE)
    return all(model.delay_arc(a, b) for a in plains for b in plains)


class _HbGraph:
    """Happens-before over static accesses: per-thread ordered edges
    plus cross-thread synchronizes-with edges."""

    def __init__(self) -> None:
        self.succ: Dict[Node, Set[Node]] = {}

    def add_edge(self, u: Node, v: Node) -> None:
        self.succ.setdefault(u, set()).add(v)

    def reaches(self, u: Node, v: Node) -> bool:
        if u == v:
            return False
        seen = {u}
        frontier = [u]
        while frontier:
            n = frontier.pop()
            for m in self.succ.get(n, ()):
                if m == v:
                    return True
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        return False

    def ordered(self, u: Node, v: Node) -> bool:
        return self.reaches(u, v) or self.reaches(v, u)


def _po_edge(model: ConsistencyModel, a: StaticAccess, b: StaticAccess) -> bool:
    """Is the program-order edge a -> b (same thread, a earlier)
    enforced?  An unresolved address is no address."""
    return model.preserves(a.klass, b.klass,
                           a.addr is not None and a.addr == b.addr)


def _shared_masks(threads: Sequence[ThreadModel]) -> List[List[bool]]:
    """Per-thread mask: does the access touch a line some *other*
    processor also touches?  Private lines (audit slots, per-thread
    fence words) cannot be observed remotely, so they do not constrain
    the order route — though they still relay ordering as
    intermediates (see :func:`_po_chain`)."""
    lines_by_cpu: Dict[int, Set[int]] = {}
    unknown_cpus: Set[int] = set()
    for t in threads:
        for a in t.accesses:
            if a.addr is None:
                unknown_cpus.add(t.cpu)
            elif a.line is not None:
                lines_by_cpu.setdefault(t.cpu, set()).add(a.line)
    masks: List[List[bool]] = []
    for t in threads:
        mask = []
        for a in t.accesses:
            if a.addr is None:
                mask.append(True)
                continue
            shared = any(c != t.cpu and a.line in ls
                         for c, ls in lines_by_cpu.items())
            mask.append(shared or any(c != t.cpu for c in unknown_cpus))
        masks.append(mask)
    return masks


def _po_chain(model: ConsistencyModel, accesses: Sequence[StaticAccess],
              i: int, j: int) -> bool:
    """Is program order enforced from ``accesses[i]`` to ``accesses[j]``,
    directly or transitively through intermediates (e.g. a fence)?"""
    reachable = {i}
    for k in range(i + 1, j + 1):
        if any(m in reachable and _po_edge(model, accesses[m], accesses[k])
               for m in range(i, k)):
            reachable.add(k)
    return j in reachable


def _build_hb(threads: Sequence[ThreadModel], model: Optional[ConsistencyModel]) -> _HbGraph:
    """``model=None`` builds the SC-level graph (full program order)."""
    g = _HbGraph()
    for t in threads:
        for i, a in enumerate(t.accesses):
            for b in t.accesses[i + 1:]:
                if model is None or _po_edge(model, a, b):
                    g.add_edge((t.cpu, a.order), (t.cpu, b.order))
    for edge in _sync_edges(threads):
        g.add_edge(edge[0], edge[1])
    return g


def _sync_edges(threads: Sequence[ThreadModel]) -> List[Tuple[Node, Node]]:
    """Synchronizes-with: a store to ``f`` on P can be observed by a
    *guarded* load of ``f`` on Q (a spin or a tested acquire).  A load
    whose value is never examined observes nothing."""
    edges: List[Tuple[Node, Node]] = []
    for src in threads:
        for s in src.accesses:
            if not s.is_store or s.addr is None:
                continue
            for dst in threads:
                if dst.cpu == src.cpu:
                    continue
                for l in dst.accesses:
                    if (l.is_load and l.guards_branch and l.addr == s.addr):
                        edges.append(((src.cpu, s.order), (dst.cpu, l.order)))
    return edges


def _find_path(g: _HbGraph, u: Node, v: Node) -> Optional[List[Node]]:
    """A happens-before path u -> ... -> v, if one exists (BFS)."""
    if u == v:
        return None
    prev: Dict[Node, Node] = {}
    frontier = [u]
    seen = {u}
    while frontier:
        nxt: List[Node] = []
        for n in frontier:
            for m in sorted(g.succ.get(n, ())):
                if m in seen:
                    continue
                seen.add(m)
                prev[m] = n
                if m == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                nxt.append(m)
        frontier = nxt
    return None


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------

def analyze_programs(
    programs: Sequence[Program],
    model: ConsistencyModel,
    line_size: int = 4,
) -> AnalysisReport:
    """Race/ordering analysis of one program per processor under
    ``model``.  Returns a structured :class:`AnalysisReport`."""
    threads = [ThreadModel.from_program(p, cpu, line_size)
               for cpu, p in enumerate(programs)]
    report = AnalysisReport(model=model.name)
    total = _model_is_total(model)

    # the declarative checker's independent view of the same program
    # (when it bridges exactly; the refusal reason otherwise)
    verdict = axiomatic_verdict(programs, model, line_size=line_size)
    report.axiomatic_verdict = verdict.describe()
    report.axiomatic_sc_equivalent = verdict.sc_equivalent

    # order route: per-CPU, does the model enforce program order among
    # the accesses other processors can observe?
    report.po_fully_enforced = []
    for t, mask in zip(threads, _shared_masks(threads)):
        idxs = [i for i, s in enumerate(mask) if s]
        report.po_fully_enforced.append(all(
            _po_chain(model, t.accesses, i, j)
            for i, j in zip(idxs, idxs[1:])))

    _warn_ineffective_syncs(threads, model, report)
    _warn_unknown_addresses(threads, model, report)

    if total:
        report.notes.append(
            "model enforces full program order: sequentially consistent "
            "for all programs (no race classification needed)")
        report.sc_guaranteed = True
        _cite_axiomatic(report)
        return report

    hb = _build_hb(threads, model)
    sc_hb = _build_hb(threads, None)
    sync_pairs = {(e[0], e[1]) for e in _sync_edges(threads)}

    pairs = _conflicting_pairs(threads)
    classified: List[ClassifiedPair] = []
    sc_ok = True
    for a, b in pairs:
        na, nb = (a.cpu, a.order), (b.cpu, b.order)
        if (na, nb) in sync_pairs or (nb, na) in sync_pairs:
            classified.append(ClassifiedPair(a, b, PairClass.SYNC_PAIR))
            continue
        if a.klass.is_sync and b.klass.is_sync:
            # Synchronization is *allowed* to race — that is its job —
            # but an unordered sync pair can still be observed out of
            # SC order unless the model keeps each thread's program
            # order around it (RCsc does; RCpc does not — footnote 1).
            classified.append(ClassifiedPair(a, b, PairClass.SYNC_PAIR))
            if not hb.ordered(na, nb):
                order_route = (report.po_fully_enforced[a.cpu]
                               and report.po_fully_enforced[b.cpu])
                if not order_route:
                    sc_ok = False
                report.add(Diagnostic(
                    kind="competing-sync",
                    severity=Severity.INFO,
                    message=(f"synchronization accesses compete and are "
                             f"not ordered by other synchronization; the "
                             f"dynamic detector may flag them"),
                    sites=(_site(a), _site(b)),
                    fences=tuple(_local_fences(a, threads, model)
                                 + _local_fences(b, threads, model)),
                    model=model.name,
                ))
            continue
        if a.locks & b.locks:
            classified.append(ClassifiedPair(a, b, PairClass.ORDERED_BY_SYNC))
            continue
        if hb.ordered(na, nb):
            classified.append(ClassifiedPair(a, b, PairClass.ORDERED_BY_SYNC))
            continue
        # not ordered under the model: fixable, or plain racy?
        sc_path = _find_path(sc_hb, na, nb) or _find_path(sc_hb, nb, na)
        order_route = (report.po_fully_enforced[a.cpu]
                       and report.po_fully_enforced[b.cpu])
        if not order_route:
            sc_ok = False
        if sc_path is not None:
            classified.append(ClassifiedPair(a, b, PairClass.FENCE_FIXABLE))
            report.add(_fixable_diagnostic(a, b, sc_path, threads, model))
        else:
            classified.append(ClassifiedPair(a, b, PairClass.RACY))
            report.add(_racy_diagnostic(a, b, threads, model, order_route))

    report.sc_guaranteed = sc_ok
    report.pairs = classified  # type: ignore[attr-defined]
    _cite_axiomatic(report)
    return report


def _cite_axiomatic(report: AnalysisReport) -> None:
    """Append the declarative checker's verdict to every race finding,
    so each diagnostic cites the independent oracle's view."""
    if report.axiomatic_sc_equivalent is None:
        return
    if report.axiomatic_sc_equivalent:
        cite = ("the axiomatic checker finds every admitted final state "
                "sequentially consistent")
    else:
        cite = ("the axiomatic checker confirms the model admits final "
                "states SC forbids")
    for i, d in enumerate(report.diagnostics):
        if d.kind in ("data-race", "fence-fixable"):
            report.diagnostics[i] = replace(
                d, message=f"{d.message} ({cite})")


def _conflicting_pairs(threads: Sequence[ThreadModel]) -> List[Tuple[StaticAccess, StaticAccess]]:
    out = []
    for i, t1 in enumerate(threads):
        for t2 in threads[i + 1:]:
            for a in t1.accesses:
                for b in t2.accesses:
                    if (a.is_store or b.is_store) and a.may_alias(b):
                        out.append((a, b))
    return out


def _site(a: StaticAccess) -> Site:
    return Site(cpu=a.cpu, pc=a.pc, tag=a.site_tag(), addr=a.addr)


def _warn_ineffective_syncs(threads: Sequence[ThreadModel],
                            model: ConsistencyModel,
                            report: AnalysisReport) -> None:
    for t in threads:
        for a in t.accesses:
            if a.klass.acquire and a.klass.release:
                continue  # a full fence binds no useful value by design
            if a.klass.acquire and not a.value_used:
                what = ("lock acquire" if isinstance(a.instr, Rmw)
                        else "acquire load")
                report.add(Diagnostic(
                    kind="ineffective-sync",
                    severity=Severity.WARNING,
                    message=(f"{what} result is never examined; it cannot "
                             f"establish mutual exclusion or observe a "
                             f"release (the paper's 'optimistic' lock)"),
                    sites=(_site(a),),
                    suggestion=("test the returned value and retry "
                                "(spin) before entering the critical section"),
                    model=model.name,
                ))


def _warn_unknown_addresses(threads: Sequence[ThreadModel],
                            model: ConsistencyModel,
                            report: AnalysisReport) -> None:
    for t in threads:
        for a in t.accesses:
            if a.addr is None:
                report.add(Diagnostic(
                    kind="unknown-address",
                    severity=Severity.WARNING,
                    message=("address is not statically resolvable; the "
                             "access is treated as conflicting with every "
                             "location"),
                    sites=(_site(a),),
                    model=model.name,
                ))


def _local_fences(a: StaticAccess, threads: Sequence[ThreadModel],
                  model: ConsistencyModel) -> List[FenceSuggestion]:
    """Order-route fences: restore the missing program-order links
    between ``a`` and its neighbouring *shared* accesses."""
    out: List[FenceSuggestion] = []
    thread = threads[a.cpu]
    acc = thread.accesses
    idxs = [i for i, s in enumerate(_shared_masks(threads)[a.cpu]) if s]
    if a.order not in idxs:
        return out
    pos = idxs.index(a.order)
    if pos > 0:
        p = idxs[pos - 1]
        if not _po_chain(model, acc, p, a.order):
            out.append(FenceSuggestion(
                cpu=thread.cpu, after_pc=acc[p].pc, before_pc=a.pc,
                after_tag=acc[p].site_tag(), before_tag=a.site_tag()))
    if pos + 1 < len(idxs):
        nx = idxs[pos + 1]
        if not _po_chain(model, acc, a.order, nx):
            out.append(FenceSuggestion(
                cpu=thread.cpu, after_pc=a.pc, before_pc=acc[nx].pc,
                after_tag=a.site_tag(), before_tag=acc[nx].site_tag()))
    return out


def _racy_diagnostic(a: StaticAccess, b: StaticAccess,
                     threads: Sequence[ThreadModel],
                     model: ConsistencyModel,
                     order_route: bool) -> Diagnostic:
    fences = tuple(_local_fences(a, threads, model)
                   + _local_fences(b, threads, model))
    note = ("; the model happens to enforce full program order around "
            "both sides, so executions remain sequentially consistent, "
            "but the race itself is real" if order_route else "")
    return Diagnostic(
        kind="data-race",
        severity=Severity.ERROR,
        message=(f"conflicting accesses are not ordered by any "
                 f"synchronization under {model.name}{note}"),
        sites=(_site(a), _site(b)),
        suggestion=("synchronize the pair (common lock, or a released "
                    "flag spun on by the consumer); the fences below "
                    "restore SC-equivalence without removing the race"),
        fences=fences,
        model=model.name,
    )


def _fixable_diagnostic(a: StaticAccess, b: StaticAccess,
                        path: List[Node],
                        threads: Sequence[ThreadModel],
                        model: ConsistencyModel) -> Diagnostic:
    """The SC-level chain exists; report the local links the model
    drops, with a label hint where acquire/release would do."""
    fences: List[FenceSuggestion] = []
    for (c1, o1), (c2, o2) in zip(path, path[1:]):
        if c1 != c2:
            continue  # a synchronizes-with hop: nothing to fix
        u, v = threads[c1].accesses[o1], threads[c1].accesses[o2]
        if _po_edge(model, u, v):
            continue
        hint = ""
        if v.is_store and not v.klass.release:
            hint = f"label {v.site_tag()!r} as a release (st.rel)"
        elif u.is_load and not u.klass.acquire:
            hint = f"label {u.site_tag()!r} as an acquire (ld.acq)"
        fences.append(FenceSuggestion(
            cpu=c1, after_pc=u.pc, before_pc=v.pc,
            after_tag=u.site_tag(), before_tag=v.site_tag(),
            label_hint=hint))
    return Diagnostic(
        kind="fence-fixable",
        severity=Severity.ERROR,
        message=(f"the synchronization chain ordering these accesses "
                 f"exists in program order but {model.name} does not "
                 f"enforce every link"),
        sites=(_site(a), _site(b)),
        suggestion="apply the fence/label fixes below to restore race-freedom",
        fences=tuple(fences),
        model=model.name,
    )


# ----------------------------------------------------------------------
# Applying suggestions (used by tests and the CLI self-check)
# ----------------------------------------------------------------------

def apply_fence_suggestions(
    programs: Sequence[Program],
    suggestions: Sequence[FenceSuggestion],
    fence_addr_base: int = 0xF000,
    line_size: int = 4,
) -> List[Program]:
    """Insert a full fence (acquire+release RMW to a private line) at
    every suggested point; returns patched copies of the programs."""
    patched: List[Program] = []
    for cpu, program in enumerate(programs):
        insert_pcs = sorted({s.before_pc for s in suggestions if s.cpu == cpu})
        if not insert_pcs:
            patched.append(program)
            continue
        fence_addr = fence_addr_base + cpu * line_size
        instrs = list(program.instructions)
        labels = dict(program.labels)
        for pc in reversed(insert_pcs):
            instrs.insert(pc, Rmw(dst="r30", base="r0", offset=fence_addr,
                                  op="ts", acquire=True, release=True,
                                  tag="fence"))
            labels = {name: (lp + 1 if lp >= pc else lp)
                      for name, lp in labels.items()}
        patched.append(Program(instrs, labels))
    return patched
