"""The speculative-load buffer (paper, Section 4.2 and Appendix A).

Loads issue as soon as their address is known, regardless of the
consistency model; each issued load also enters this buffer, which
implements the paper's **detection mechanism**:

* every entry has the four fields of Figure 4 — *load address*, *acq*,
  *done*, and *store tag* (generalized here to a tag **set**, of which
  the paper's single tag is the SC specialization, since SC retires
  stores in order);
* coherence transactions (invalidations, updates, replacements) are
  associatively checked against buffered load addresses;
* entries retire in FIFO order once their store tags are null and, for
  acquire-like entries, once the load has performed.

On a match the buffer reports a **correction action**:

* load already done → the value may have been consumed: discard the
  load and everything after it and re-execute (``squash_from``);
* load still in flight → reissue just the load (``reissue``); the stale
  response is dropped by a generation check;
* RMW not yet issued by the store buffer → discard the RMW and
  everything after (Appendix A);
* RMW already issued → the atomic's own return value is authoritative:
  discard only the computation after it (``squash_after``).

Per footnote 2 the detection is conservative: false sharing within a
line and silent same-value writes also squash.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Set

from ..memory.types import SnoopKind
from ..sim.stats import StatsRegistry


class CorrectionKind(enum.Enum):
    REISSUE = "reissue"            # redo the load only
    SQUASH_FROM = "squash_from"    # discard the load and everything after
    SQUASH_AFTER = "squash_after"  # keep the access, discard what follows


@dataclass(frozen=True)
class Correction:
    kind: CorrectionKind
    seq: int


@dataclass
class SlbEntry:
    """One speculative load (Figure 4's four fields, plus RMW state)."""

    seq: int
    addr: int
    line_addr: int
    acq: bool
    store_tags: Set[int] = field(default_factory=set)
    done: bool = False
    is_rmw: bool = False
    rmw_issued: bool = False
    tag: str = ""

    def period_key(self, num: Callable[[int], object]) -> tuple:
        """This entry numbered as ``num`` does."""
        return (num(self.seq), self.addr, self.line_addr, self.acq,
                tuple(map(num, sorted(self.store_tags))),
                self.done, self.is_rmw, self.rmw_issued, self.tag)

    def retirable(self) -> bool:
        """Figure 4's retirement conditions."""
        return not self.store_tags and (self.done or not self.acq)

    def describe(self) -> str:
        tags = ",".join(str(t) for t in sorted(self.store_tags)) or "null"
        return (f"{self.tag or self.addr:}: acq={int(self.acq)} "
                f"done={int(self.done)} st_tag={tags}")


class SpeculativeLoadBuffer:
    """FIFO buffer of in-window speculative loads for one processor."""

    #: what a run never changes, left out of :meth:`period_key`
    PERIOD_FIXED = frozenset({"size", "stat_inserted", "stat_retired",
                              "stat_squashes", "stat_reissues",
                              "stat_matches"})

    def __init__(self, size: int, stats: StatsRegistry, name: str = "slb") -> None:
        self.size = size
        self._entries: "OrderedDict[int, SlbEntry]" = OrderedDict()
        self.stat_inserted = stats.counter(f"{name}/inserted")
        self.stat_retired = stats.counter(f"{name}/retired")
        self.stat_squashes = stats.counter(f"{name}/squashes")
        self.stat_reissues = stats.counter(f"{name}/reissues")
        self.stat_matches = stats.counter(f"{name}/snoop_matches")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.size

    @property
    def empty(self) -> bool:
        return not self._entries

    def entries(self) -> List[SlbEntry]:
        return list(self._entries.values())

    def get(self, seq: int) -> Optional[SlbEntry]:
        return self._entries.get(seq)

    def is_cleared(self, seq: int) -> bool:
        """True once ``seq`` is no longer speculative (retired or absent)."""
        return seq not in self._entries

    # ------------------------------------------------------------------
    # Insertion / progress
    # ------------------------------------------------------------------
    def insert(self, entry: SlbEntry) -> None:
        assert not self.full, "caller must check .full"
        assert entry.seq not in self._entries
        if self._entries:
            last = next(reversed(self._entries))
            assert entry.seq > last, (
                f"SLB entries must arrive in program order "
                f"(got {entry.seq} after {last})"
            )
        self._entries[entry.seq] = entry
        self.stat_inserted.inc()

    def mark_done(self, seq: int) -> None:
        entry = self._entries.get(seq)
        if entry is not None:
            entry.done = True

    def mark_rmw_issued(self, seq: int) -> None:
        entry = self._entries.get(seq)
        if entry is not None:
            entry.rmw_issued = True

    def store_performed(self, store_seq: int) -> None:
        """Nullify ``store_seq`` wherever it appears as a store tag."""
        for entry in self._entries.values():
            entry.store_tags.discard(store_seq)

    def retire_ready(self) -> List[int]:
        """Retire eligible entries from the head; return their seqs."""
        retired: List[int] = []
        while self._entries:
            head = next(iter(self._entries.values()))
            if not head.retirable():
                break
            self._entries.popitem(last=False)
            retired.append(head.seq)
            self.stat_retired.inc()
        return retired

    def squash(self, seqs: Iterable[int]) -> None:
        for seq in seqs:
            self._entries.pop(seq, None)

    def period_key(self, num: Callable[[int], object]) -> tuple:
        """The buffer numbered as ``num`` does."""
        return tuple(entry.period_key(num)
                     for entry in self._entries.values())

    def renumber(self, first: int, seqs: int) -> None:
        """Move every entry, and every store tag, from ``first`` on
        ``seqs`` on."""
        for entry in self._entries.values():
            if entry.seq >= first:
                entry.seq += seqs
            entry.store_tags = {tag + seqs if tag >= first else tag
                                for tag in entry.store_tags}
        self._entries = OrderedDict(
            (entry.seq, entry) for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Detection (Section 4.2)
    # ------------------------------------------------------------------
    def on_snoop(self, kind: SnoopKind, line_addr: int) -> List[Correction]:
        """Check a coherence event against the buffer.

        Returns the corrections the core must apply.  All three event
        kinds are treated identically (a replaced line can no longer be
        monitored, so its value is conservatively assumed stale).
        """
        matches = [e for e in self._entries.values() if e.line_addr == line_addr]
        if not matches:
            return []
        # footnote 4: the head entry may be ignored if its constraints
        # are already satisfied — the model would have allowed the
        # access to perform at this time.
        head = next(iter(self._entries.values()))
        matches = [e for e in matches if not (e.seq == head.seq and e.retirable())]
        if not matches:
            return []
        self.stat_matches.inc()

        corrections: List[Correction] = []
        squash_at: Optional[int] = None
        squash_kind = CorrectionKind.SQUASH_FROM
        for entry in matches:  # FIFO order (insertion-ordered dict)
            if entry.is_rmw:
                squash_at = entry.seq
                squash_kind = (CorrectionKind.SQUASH_AFTER if entry.rmw_issued
                               else CorrectionKind.SQUASH_FROM)
                break
            if entry.done:
                squash_at = entry.seq
                squash_kind = CorrectionKind.SQUASH_FROM
                break
            corrections.append(Correction(CorrectionKind.REISSUE, entry.seq))
            self.stat_reissues.inc()
        if squash_at is not None:
            corrections.append(Correction(squash_kind, squash_at))
            self.stat_squashes.inc()
        return corrections

    def describe(self) -> str:
        return "\n".join(e.describe() for e in self._entries.values())
