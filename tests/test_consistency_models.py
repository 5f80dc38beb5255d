"""Tests for the delay-arc rules — an executable version of Figure 1."""

import pytest

from repro.consistency import (
    ACQUIRE,
    ACQUIRE_RMW,
    PLAIN_LOAD,
    PLAIN_STORE,
    RELEASE,
    AccessClass,
    PC,
    RC,
    RCSC,
    SC,
    WC,
    classify,
    get_model,
)
from repro.isa import Alu, Load, Rmw, Store


class TestAccessClass:
    def test_requires_read_or_write(self):
        with pytest.raises(ValueError):
            AccessClass(is_load=False, is_store=False)

    def test_acquire_must_read(self):
        with pytest.raises(ValueError):
            AccessClass(is_load=False, is_store=True, acquire=True)

    def test_release_must_write(self):
        with pytest.raises(ValueError):
            AccessClass(is_load=True, is_store=False, release=True)

    def test_classify_instructions(self):
        assert classify(Load(dst="r1", acquire=True)) == ACQUIRE
        assert classify(Store(src="r1")) == PLAIN_STORE
        rmw = classify(Rmw(dst="r1", acquire=True))
        assert rmw.is_load and rmw.is_store and rmw.acquire

    def test_classify_rejects_non_memory(self):
        with pytest.raises(TypeError):
            classify(Alu(op="mov", dst="r1", src1="r0", imm=0))

    def test_is_sync(self):
        assert ACQUIRE.is_sync and RELEASE.is_sync
        assert not PLAIN_LOAD.is_sync


class TestSequentialConsistency:
    """Figure 1 top-left: every access ordered after the previous one."""

    @pytest.mark.parametrize("a", [PLAIN_LOAD, PLAIN_STORE, ACQUIRE, RELEASE])
    @pytest.mark.parametrize("b", [PLAIN_LOAD, PLAIN_STORE, ACQUIRE, RELEASE])
    def test_all_pairs_ordered(self, a, b):
        assert SC.delay_arc(a, b)


class TestProcessorConsistency:
    """Figure 1 top-right: reads bypass earlier writes; all else ordered."""

    def test_store_load_relaxed(self):
        assert not PC.delay_arc(PLAIN_STORE, PLAIN_LOAD)

    @pytest.mark.parametrize(
        "a,b",
        [
            (PLAIN_LOAD, PLAIN_LOAD),
            (PLAIN_LOAD, PLAIN_STORE),
            (PLAIN_STORE, PLAIN_STORE),
        ],
    )
    def test_other_pairs_ordered(self, a, b):
        assert PC.delay_arc(a, b)

    def test_rmw_keeps_both_arcs(self):
        # An RMW writes, but it also reads, so load->RMW and RMW->load arcs hold.
        assert PC.delay_arc(ACQUIRE_RMW, PLAIN_LOAD)
        assert PC.delay_arc(PLAIN_STORE, ACQUIRE_RMW)


class TestWeakConsistency:
    """Figure 1 bottom-left: pipelining between syncs; syncs fence all."""

    def test_data_data_unordered(self):
        assert not WC.delay_arc(PLAIN_LOAD, PLAIN_STORE)
        assert not WC.delay_arc(PLAIN_STORE, PLAIN_LOAD)
        assert not WC.delay_arc(PLAIN_STORE, PLAIN_STORE)
        assert not WC.delay_arc(PLAIN_LOAD, PLAIN_LOAD)

    def test_sync_fences_both_directions(self):
        assert WC.delay_arc(ACQUIRE, PLAIN_LOAD)   # after sync waits
        assert WC.delay_arc(PLAIN_STORE, ACQUIRE)  # sync waits for before
        assert WC.delay_arc(RELEASE, PLAIN_STORE)
        assert WC.delay_arc(PLAIN_LOAD, RELEASE)

    def test_sync_sync_ordered(self):
        assert WC.delay_arc(ACQUIRE, RELEASE)
        assert WC.delay_arc(RELEASE, ACQUIRE)


class TestReleaseConsistency:
    """Figure 1 bottom-right: only acquire->later and earlier->release."""

    def test_data_accesses_unordered(self):
        assert not RC.delay_arc(PLAIN_LOAD, PLAIN_STORE)
        assert not RC.delay_arc(PLAIN_STORE, PLAIN_LOAD)

    def test_acquire_blocks_later(self):
        assert RC.delay_arc(ACQUIRE, PLAIN_LOAD)
        assert RC.delay_arc(ACQUIRE, PLAIN_STORE)
        assert RC.delay_arc(ACQUIRE, RELEASE)

    def test_release_waits_for_earlier(self):
        assert RC.delay_arc(PLAIN_LOAD, RELEASE)
        assert RC.delay_arc(PLAIN_STORE, RELEASE)
        assert RC.delay_arc(ACQUIRE, RELEASE)

    def test_accesses_after_release_not_delayed(self):
        """RC does not delay accesses following a release (Section 2)."""
        assert not RC.delay_arc(RELEASE, PLAIN_LOAD)
        assert not RC.delay_arc(RELEASE, PLAIN_STORE)

    def test_acquire_not_delayed_for_earlier_data(self):
        """RC does not require an acquire to be delayed for its previous
        accesses (Section 2)."""
        assert not RC.delay_arc(PLAIN_LOAD, ACQUIRE)
        assert not RC.delay_arc(PLAIN_STORE, ACQUIRE)

    def test_rcpc_release_acquire_unordered(self):
        assert not RC.delay_arc(RELEASE, ACQUIRE)

    def test_rcsc_release_acquire_ordered(self):
        assert RCSC.delay_arc(RELEASE, ACQUIRE)


class TestStrictnessHierarchy:
    """Every arc of a relaxed model is also an arc of a stricter one."""

    CLASSES = [PLAIN_LOAD, PLAIN_STORE, ACQUIRE, RELEASE, ACQUIRE_RMW]

    def assert_weaker(self, strict, relaxed):
        for a in self.CLASSES:
            for b in self.CLASSES:
                if relaxed.delay_arc(a, b):
                    assert strict.delay_arc(a, b), (
                        f"{relaxed.name} orders {a}->{b} but {strict.name} does not"
                    )

    def test_pc_weaker_than_sc(self):
        self.assert_weaker(SC, PC)

    def test_wc_weaker_than_sc(self):
        self.assert_weaker(SC, WC)

    def test_rc_weaker_than_wc(self):
        self.assert_weaker(WC, RC)

    def test_rc_weaker_than_rcsc(self):
        self.assert_weaker(RCSC, RC)


class TestDrf0:
    """DRF0 (paper, Section 2): sync accesses fence without the
    acquire/release distinction."""

    def test_registered_and_named(self):
        from repro.consistency import DRF0
        assert get_model("drf0") is DRF0

    def test_sync_fences_both_ways(self):
        from repro.consistency import DRF0
        assert DRF0.delay_arc(ACQUIRE, PLAIN_LOAD)
        assert DRF0.delay_arc(PLAIN_LOAD, ACQUIRE)   # unlike RC
        assert DRF0.delay_arc(RELEASE, PLAIN_STORE)  # unlike RC

    def test_data_accesses_free(self):
        from repro.consistency import DRF0
        assert not DRF0.delay_arc(PLAIN_LOAD, PLAIN_STORE)
        assert not DRF0.delay_arc(PLAIN_STORE, PLAIN_LOAD)

    def test_strictly_between_rc_and_sc(self):
        from repro.consistency import DRF0
        classes = [PLAIN_LOAD, PLAIN_STORE, ACQUIRE, RELEASE]
        for a in classes:
            for b in classes:
                if RC.delay_arc(a, b):
                    assert DRF0.delay_arc(a, b)
                if DRF0.delay_arc(a, b):
                    assert SC.delay_arc(a, b)

    def test_runs_on_detailed_simulator(self):
        from repro.consistency import DRF0
        from repro.isa import ProgramBuilder
        from repro.system import run_workload

        p = (ProgramBuilder()
             .store_imm(1, addr=0x40)
             .load("r1", addr=0x40)
             .build())
        result = run_workload([p], model=DRF0, speculation=True)
        assert result.machine.reg(0, "r1") == 1


class TestDerivedQueries:
    def test_sc_every_load_is_acquire_like(self):
        """Under SC the speculative buffer sets acq on all loads (Sec 4.2)."""
        assert SC.load_blocks_later_accesses(PLAIN_LOAD)

    def test_rc_only_real_acquires_block(self):
        assert RC.load_blocks_later_accesses(ACQUIRE)
        assert not RC.load_blocks_later_accesses(PLAIN_LOAD)

    def test_sc_load_waits_for_previous_store(self):
        assert SC.load_waits_for_store(PLAIN_STORE, PLAIN_LOAD)

    def test_rc_load_does_not_wait_for_store(self):
        assert not RC.load_waits_for_store(PLAIN_STORE, PLAIN_LOAD)
        assert not RC.load_waits_for_store(RELEASE, PLAIN_LOAD)

    def test_may_perform_conventional_rule(self):
        # Under SC nothing may perform past a pending access
        assert not SC.may_perform([PLAIN_STORE], PLAIN_LOAD)
        # Under PC a load may perform past a pending (pure) store
        assert PC.may_perform([PLAIN_STORE], PLAIN_LOAD)
        # Under RC a load may perform past anything but a pending acquire
        assert RC.may_perform([PLAIN_STORE, PLAIN_LOAD, RELEASE], PLAIN_LOAD)
        assert not RC.may_perform([ACQUIRE], PLAIN_LOAD)

    def test_get_model_lookup(self):
        assert get_model("sc") is SC
        assert get_model("RC") is RC
        # the one mixed-case name is reachable as printed and in any case
        assert get_model("RCsc") is RCSC and get_model("rcsc") is RCSC
        with pytest.raises(KeyError, match="RCsc"):
            get_model("TSO")
