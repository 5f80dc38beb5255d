"""Litmus-test validation of the model semantics (executable Figure 1)."""

import pytest

from repro.consistency import (
    PC,
    RC,
    RCSC,
    SC,
    WC,
    LitmusTest,
    coherence_per_location,
    critical_section,
    load_buffering,
    message_passing,
    message_passing_sync,
    read,
    store_buffering,
    write,
)
from repro.sim.errors import ConfigurationError


class TestLitmusConstruction:
    def test_read_needs_register(self):
        with pytest.raises(ConfigurationError):
            LitmusTest("bad", [[read("x", "")]])

    def test_duplicate_registers_rejected(self):
        with pytest.raises(ConfigurationError):
            LitmusTest("bad", [[read("x", "r0")], [read("y", "r0")]])

    def test_acquire_write_rejected(self):
        with pytest.raises(ConfigurationError):
            write("x", 1).__class__(op="W", addr="x", value=1, acquire=True)

    def test_too_many_accesses_rejected(self):
        ops = [write("x", i) for i in range(13)]
        with pytest.raises(ConfigurationError):
            LitmusTest("big", [ops])

    def test_describe(self):
        assert "R.acq" in read("x", "r0", acquire=True).describe()
        assert "W x = 1" in write("x", 1).describe()


class TestStoreBuffering:
    """SB (Dekker): r0=r1=0 needs a load to bypass an earlier store."""

    def test_sc_forbids_both_zero(self):
        assert store_buffering().forbids(SC, r0=0, r1=0)

    @pytest.mark.parametrize("model", [PC, WC, RC], ids=lambda m: m.name)
    def test_relaxed_models_allow_both_zero(self, model):
        assert store_buffering().allows(model, r0=0, r1=0)

    def test_sc_allows_other_outcomes(self):
        sb = store_buffering()
        assert sb.allows(SC, r0=1, r1=1)
        assert sb.allows(SC, r0=0, r1=1)
        assert sb.allows(SC, r0=1, r1=0)


class TestMessagePassing:
    """MP: flag observed but data stale."""

    def test_sc_forbids_stale_data(self):
        assert message_passing().forbids(SC, r0=1, r1=0)

    def test_pc_forbids_stale_data(self):
        # PC keeps W->W and R->R order, so MP is safe under PC.
        assert message_passing().forbids(PC, r0=1, r1=0)

    @pytest.mark.parametrize("model", [WC, RC], ids=lambda m: m.name)
    def test_unlabeled_sync_breaks_under_weak_models(self, model):
        assert message_passing().allows(model, r0=1, r1=0)

    @pytest.mark.parametrize("model", [SC, PC, WC, RC, RCSC], ids=lambda m: m.name)
    def test_labeled_sync_is_safe_everywhere(self, model):
        assert message_passing_sync().forbids(model, r0=1, r1=0)


class TestLoadBuffering:
    def test_sc_and_pc_forbid(self):
        assert load_buffering().forbids(SC, r0=1, r1=1)
        assert load_buffering().forbids(PC, r0=1, r1=1)

    @pytest.mark.parametrize("model", [WC, RC], ids=lambda m: m.name)
    def test_weak_models_allow(self, model):
        assert load_buffering().allows(model, r0=1, r1=1)


class TestCoherence:
    """Per-location program order holds under every model."""

    @pytest.mark.parametrize("model", [SC, PC, WC, RC], ids=lambda m: m.name)
    def test_no_model_reorders_same_location_writes(self, model):
        # seeing 2 then (stale) 1 is forbidden everywhere
        assert coherence_per_location().forbids(model, r0=2, r1=1)

    @pytest.mark.parametrize("model", [SC, PC, WC, RC], ids=lambda m: m.name)
    def test_monotonic_observations_allowed(self, model):
        t = coherence_per_location()
        assert t.allows(model, r0=1, r1=2)
        assert t.allows(model, r0=0, r1=0)


class TestCriticalSection:
    def test_rc_handoff_preserves_data(self):
        """A consumer whose acquire saw the release value sees the data."""
        t = critical_section()
        assert t.forbids(RC, r_lock1=2, r_data=0)

    def test_rc_early_acquire_may_miss_data(self):
        t = critical_section()
        assert t.allows(RC, r_lock1=0, r_data=0)


class TestOutcomeSetRelations:
    """The outcome set grows monotonically as the model relaxes."""

    @pytest.mark.parametrize(
        "test_fn",
        [store_buffering, message_passing, load_buffering, coherence_per_location],
        ids=lambda f: f.__name__,
    )
    def test_sc_subset_of_relaxed(self, test_fn):
        t = test_fn()
        sc_outcomes = t.outcomes(SC)
        for model in (PC, WC, RC):
            assert sc_outcomes <= t.outcomes(model), model.name
        assert t.outcomes(PC) <= t.outcomes(WC) <= t.outcomes(RC)

    def test_rc_superset_of_wc_on_sync_tests(self):
        t = message_passing_sync()
        assert t.outcomes(WC) <= t.outcomes(RC)

    def test_initial_values_respected(self):
        t = LitmusTest(
            "init",
            threads=[[read("x", "r0")]],
            initial={"x": 9},
        )
        assert t.allows(SC, r0=9)
        assert t.forbids(SC, r0=0)
