"""Tests for the Figure 5 scenario (E4) and the scripted agent."""

import pytest

from repro.consistency import RC, SC
from repro.sim import Simulator
from repro.system import MemoryFabric, ScriptedAgent
from repro.system.fabric import MemoryFabric
from repro.workloads import D, E_BASE, run_figure5


class TestScriptedAgent:
    def build(self):
        sim = Simulator()
        fabric = MemoryFabric(sim, num_cpus=1)
        agent = ScriptedAgent("agent", sim, fabric.net,
                              line_size=fabric.cache_config.line_size)
        return sim, fabric, agent

    @staticmethod
    def settle(sim, cycles=600):
        for _ in range(cycles):
            sim.step()

    def test_agent_write_invalidates_cached_copy(self):
        sim, fabric, agent = self.build()
        fabric.warm(0, 0x40, exclusive=False)
        agent.write_at(1, 0x40, 99)
        self.settle(sim)
        from repro.memory import LineState
        assert fabric.caches[0].line_state(0x40) is LineState.INVALID

    def test_agent_write_value_visible_to_later_reader(self):
        from repro.memory import AccessKind, AccessRequest

        sim, fabric, agent = self.build()
        agent.write_at(1, 0x40, 77)
        self.settle(sim)
        done = {}
        req = AccessRequest(req_id=1, kind=AccessKind.LOAD, addr=0x40,
                            callback=lambda r, v: done.setdefault("v", v))
        assert fabric.caches[0].access(req)
        sim.run(until=lambda: "v" in done, max_cycles=10_000)
        assert done["v"] == 77

    def test_agent_read_downgrades_owner(self):
        sim, fabric, agent = self.build()
        fabric.warm(0, 0x40, exclusive=True)
        agent.read_at(1, 0x40)
        self.settle(sim)
        from repro.memory import LineState
        assert fabric.caches[0].line_state(0x40) is LineState.SHARED


class TestFigure5:
    def test_rollback_produces_corrected_values(self):
        result = run_figure5(inval_cycle=5)
        assert result.machine.reg(0, "r2") == 1
        assert result.machine.reg(0, "r3") == 700
        assert result.has_event(
            "invalidation for D arrives; load D and following discarded")
        assert result.has_event("read of D is reissued")
        stats = result.machine.sim.stats
        assert stats.counter("cpu0/slb/squashes").value == 1
        # ld D and ld E[D] both go
        assert stats.counter("cpu0/instructions_squashed").value >= 2

    def test_clean_run_has_no_squash(self):
        result = run_figure5(inval_cycle=90_000, max_cycles=200_000)
        assert result.machine.reg(0, "r2") == 0
        assert result.machine.reg(0, "r3") == 500
        assert result.machine.sim.stats.counter("cpu0/slb/squashes").value == 0
        # one exposed miss plus pipeline: far under two misses
        assert result.cycles < 160

    def test_mis_speculation_costs_but_stays_correct(self):
        clean = run_figure5(inval_cycle=90_000, max_cycles=200_000)
        squashed = run_figure5(inval_cycle=5)
        assert squashed.cycles > clean.cycles
        # stores must be unaffected by the rollback (they were committed)
        assert squashed.machine.read_word(48) == 1  # B
        assert squashed.machine.read_word(64) == 1  # C

    def test_same_value_write_still_squashes(self):
        """Footnote 2: we conservatively assume the value is stale even
        if the new value equals the speculated one."""
        result = run_figure5(inval_cycle=5, new_d_value=0)
        assert result.machine.sim.stats.counter("cpu0/slb/squashes").value >= 1
        assert result.machine.reg(0, "r2") == 0
        assert result.machine.reg(0, "r3") == 500

    def test_rc_keeps_the_early_value_legally(self):
        """Under RC the same remote write causes *no* rollback: read D
        has no earlier acquire, so it was allowed to perform the moment
        it issued — its (now overwritten) value is a legal outcome, and
        the SLB retires the entry instead of monitoring it.  This is
        exactly the semantic gap between SC and RC that the detection
        mechanism encodes in the acq/store-tag fields."""
        result = run_figure5(inval_cycle=5, model=RC)
        assert result.machine.sim.stats.counter("cpu0/slb/squashes").value == 0
        assert result.machine.reg(0, "r2") == 0    # the early (legal) value
        assert result.machine.reg(0, "r3") == 500

    def test_event_digest_ordering(self):
        result = run_figure5(inval_cycle=5)
        events = result.events
        squash = events.index(
            "invalidation for D arrives; load D and following discarded")
        reissue = events.index("read of D is reissued")
        new_value = events.index("new value for D arrives")
        assert squash < reissue < new_value
