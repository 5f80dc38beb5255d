"""Unit tests for the speculative-load buffer (Section 4.2, Appendix A)."""

import pytest

from repro.core.speculation import (
    Correction,
    CorrectionKind,
    SlbEntry,
    SpeculativeLoadBuffer,
)
from repro.cpu.decode import decode_table
from repro.isa.assembler import assemble
from repro.memory.types import SnoopKind
from repro.sim import StatsRegistry

#: the decode rows of a load and of an RMW: what an entry is
LOAD_ROW, RMW_ROW = decode_table(assemble("""
    ld     r1, 0x4
    rmw.ts r2, 0x8
""")).rows


def make_slb(size=8):
    return SpeculativeLoadBuffer(size, StatsRegistry())


def entry(seq, line=1, acq=False, tags=(), done=False, is_rmw=False):
    return SlbEntry(seq=seq, addr=line * 4, line_addr=line, acq=acq,
                    row=RMW_ROW if is_rmw else LOAD_ROW,
                    store_tags=set(tags), done=done)


class TestInsertionAndRetirement:
    def test_fifo_retirement_conditions(self):
        slb = make_slb()
        slb.insert(entry(1, acq=True, done=False))
        assert slb.retire_ready() == []     # acq and not done
        slb.mark_done(1)
        assert slb.retire_ready() == [1]

    def test_store_tag_blocks_retirement(self):
        slb = make_slb()
        slb.insert(entry(1, tags=[0], done=True, acq=True))
        assert slb.retire_ready() == []
        slb.store_performed(0)
        assert slb.retire_ready() == [1]

    def test_non_acquire_entry_retires_without_done(self):
        """Under RC an ordinary load leaves the buffer as soon as no
        store tags remain, even while still in flight."""
        slb = make_slb()
        slb.insert(entry(1, acq=False, done=False))
        assert slb.retire_ready() == [1]

    def test_fifo_blocks_younger_behind_older(self):
        slb = make_slb()
        slb.insert(entry(1, acq=True, done=False))   # pending acquire
        slb.insert(entry(2, acq=False, done=True))   # retirable by itself
        assert slb.retire_ready() == []              # blocked behind head
        slb.mark_done(1)
        assert slb.retire_ready() == [1, 2]

    def test_program_order_enforced(self):
        slb = make_slb()
        slb.insert(entry(5))
        with pytest.raises(AssertionError):
            slb.insert(entry(3))

    def test_full_and_cleared(self):
        slb = make_slb(size=2)
        slb.insert(entry(1, acq=True))
        slb.insert(entry(2, acq=True))
        assert slb.full
        assert not slb.is_cleared(1)
        assert slb.is_cleared(99)

    def test_squash_removes_entries(self):
        slb = make_slb()
        slb.insert(entry(1, acq=True))
        slb.insert(entry(2, acq=True))
        slb.squash({2})
        assert slb.is_cleared(2)
        assert not slb.is_cleared(1)


class TestDetection:
    def test_no_match_no_corrections(self):
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True))
        assert slb.on_snoop(SnoopKind.INVALIDATION, line_addr=9) == []

    def test_done_load_squashes_from_itself(self):
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True, done=True, tags=[0]))
        corrections = slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert corrections == [Correction(CorrectionKind.SQUASH_FROM, 1)]

    def test_inflight_load_reissues_only(self):
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True, done=False))
        corrections = slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert corrections == [Correction(CorrectionKind.REISSUE, 1)]

    @pytest.mark.parametrize("kind", list(SnoopKind))
    def test_all_snoop_kinds_treated_identically(self, kind):
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True, done=True, tags=[0]))
        corrections = slb.on_snoop(kind, 1)
        assert corrections and corrections[0].kind is CorrectionKind.SQUASH_FROM

    def test_head_entry_ignored_when_retirable(self):
        """Footnote 4: a head entry whose constraints are satisfied
        would have been allowed to perform — no correction needed."""
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True, done=True))  # retirable
        assert slb.on_snoop(SnoopKind.INVALIDATION, 1) == []

    def test_non_head_retirable_entry_still_squashes(self):
        slb = make_slb()
        slb.insert(entry(1, line=5, acq=True, done=False))  # head, other line
        slb.insert(entry(2, line=1, acq=True, done=True))   # retirable but not head
        corrections = slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert corrections == [Correction(CorrectionKind.SQUASH_FROM, 2)]

    def test_multiple_matches_reissue_then_squash(self):
        """Footnote 5: earlier in-flight loads reissue; the first done
        match squashes (discarding the rest)."""
        slb = make_slb()
        slb.insert(entry(1, line=9, acq=True, done=False))  # head, other line
        slb.insert(entry(2, line=1, acq=True, done=False, tags=[0]))
        slb.insert(entry(3, line=1, acq=True, done=True, tags=[0]))
        slb.insert(entry(4, line=1, acq=True, done=True, tags=[0]))
        corrections = slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert corrections == [
            Correction(CorrectionKind.REISSUE, 2),
            Correction(CorrectionKind.SQUASH_FROM, 3),
        ]

    def test_rmw_not_issued_squashes_from_rmw(self):
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True, is_rmw=True, tags=[1]))
        corrections = slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert corrections == [Correction(CorrectionKind.SQUASH_FROM, 1)]

    def test_rmw_issued_squashes_after_rmw(self):
        slb = make_slb()
        slb.insert(entry(1, line=1, acq=True, is_rmw=True, tags=[1]))
        slb.mark_rmw_issued(1)
        corrections = slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert corrections == [Correction(CorrectionKind.SQUASH_AFTER, 1)]

    def test_stats_track_squashes_and_reissues(self):
        slb = make_slb()
        slb.insert(entry(1, line=9, acq=True))
        slb.insert(entry(2, line=1, acq=True, done=False))
        slb.on_snoop(SnoopKind.INVALIDATION, 1)
        assert slb.stat_reissues.value == 1
        slb.insert(entry(3, line=2, acq=True, done=True, tags=[0]))
        slb.on_snoop(SnoopKind.UPDATE, 2)
        assert slb.stat_squashes.value == 1

    def test_describe_renders_fields(self):
        slb = make_slb()
        slb.insert(entry(1, acq=True, tags=[7]))
        text = slb.describe()
        assert "acq=1" in text and "7" in text
