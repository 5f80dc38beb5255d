"""Focused tests of load/store-unit mechanics (Figure 4's components)."""

import pytest

from repro.consistency import PC, RC, RCSC, SC, WC
from repro.cpu import ProcessorConfig
from repro.isa import ProgramBuilder, assemble
from repro.system import run_workload


def run1(program, **kw):
    kw.setdefault("max_cycles", 300_000)
    return run_workload([program], **kw)


class TestStoreForwarding:
    def test_forward_waits_for_store_value(self):
        """A load matching a store whose data is still being computed
        must wait for the value, then forward."""
        p = assemble("""
            ld   r1, 0x40        # long-latency producer of the store value
            st   r1, 0x80
            ld   r2, 0x80        # must observe r1's value via forwarding
            halt
        """)
        r = run1(p, model=RC, speculation=True, initial_memory={0x40: 33})
        assert r.machine.reg(0, "r2") == 33

    def test_youngest_matching_store_wins(self):
        p = assemble("""
            movi r1, 1
            movi r2, 2
            st   r1, 0x40
            st   r2, 0x40
            ld   r3, 0x40
            halt
        """)
        r = run1(p, model=RC, speculation=True)
        assert r.machine.reg(0, "r3") == 2

    def test_no_forwarding_across_different_addresses(self):
        p = assemble("""
            movi r1, 5
            st   r1, 0x40
            ld   r2, 0x44      # same line, different word
            halt
        """)
        r = run1(p, model=RC, speculation=True, initial_memory={0x44: 9})
        assert r.machine.reg(0, "r2") == 9

    def test_forward_counts_in_stats(self):
        p = assemble("movi r1, 3\nst r1, 0x40\nld r2, 0x40\nhalt")
        r = run1(p, model=RC, speculation=True)
        assert r.counter("cpu0/lsu/store_forwards") == 1


class TestConsistencyStallAccounting:
    def make_two_loads(self):
        return (ProgramBuilder()
                .load("r1", addr=0x40, tag="ld1")
                .load("r2", addr=0x80, tag="ld2")
                .build())

    def test_sc_baseline_stalls_second_load(self):
        r = run1(self.make_two_loads(), model=SC)
        assert r.counter("cpu0/lsu/rs_consistency_stalls") > 0

    def test_rc_baseline_does_not_stall_plain_loads(self):
        r = run1(self.make_two_loads(), model=RC)
        assert r.counter("cpu0/lsu/rs_consistency_stalls") == 0

    def test_speculation_eliminates_rs_stalls(self):
        r = run1(self.make_two_loads(), model=SC, speculation=True)
        assert r.counter("cpu0/lsu/rs_consistency_stalls") == 0

    def test_sc_store_buffer_serializes(self):
        p = (ProgramBuilder()
             .store_imm(1, addr=0x40)
             .store_imm(2, addr=0x80)
             .build())
        r_sc = run1(p, model=SC)
        r_rc = run1(p, model=RC)
        assert r_sc.cycles > r_rc.cycles + 80  # ~one extra serialized miss


class TestModelSpecificTiming:
    def two_loads_after_acquire(self):
        return (ProgramBuilder()
                .lock_optimistic(addr=0x10)
                .load("r1", addr=0x40)
                .load("r2", addr=0x80)
                .build())

    def test_wc_and_rc_pipeline_after_acquire(self):
        r_wc = run1(self.two_loads_after_acquire(), model=WC)
        r_sc = run1(self.two_loads_after_acquire(), model=SC)
        assert r_wc.cycles < r_sc.cycles - 50

    def test_rcsc_orders_release_acquire(self):
        """RCsc delays an acquire for a previous release; RCpc does not."""
        p = (ProgramBuilder()
             .release_store_imm(1, addr=0x40, tag="rel")
             .rmw("r1", addr=0x80, op="ts", acquire=True, tag="acq")
             .build())
        r_pc = run1(p, model=RC)
        r_sc_variant = run1(p, model=RCSC)
        assert r_sc_variant.cycles > r_pc.cycles + 50

    def test_pc_serializes_store_store(self):
        p = (ProgramBuilder()
             .store_imm(1, addr=0x40)
             .store_imm(2, addr=0x80)
             .build())
        r_pc = run1(p, model=PC)
        r_rc = run1(p, model=RC)
        assert r_pc.cycles > r_rc.cycles + 80


class TestGenerationAndReissue:
    def test_inflight_load_reissued_with_fresh_value(self):
        """Section 4.2's second correction case: a coherence event for
        a load *not yet done* reissues just that load — no rollback.

        (With our FIFO channels and blocking directory, an invalidation
        can only beat a load's data while the load is still queued at
        the cache port, so the scenario saturates the port with filler
        loads and lands the remote write inside that window.)"""
        from repro.memory import LatencyConfig
        from repro.system.machine import MachineConfig, Multiprocessor

        b = ProgramBuilder()
        b.lock_optimistic(addr=0x10, tag="acq")
        for i in range(8):
            b.load(f"r{2 + (i % 6)}", addr=0x1000 + 16 * i, tag=f"fill{i}")
        b.load("r1", addr=0x40, tag="target")
        program = b.build()

        config = MachineConfig(model=SC, enable_speculation=True,
                               latencies=LatencyConfig.from_miss_latency(12))
        machine = Multiprocessor([program], config, extra_agents=1)
        machine.init_memory({0x10: 0, 0x40: 1})
        machine.warm(0, 0x40, exclusive=False)
        machine.agents[0].write_at(1, 0x40, 2)
        machine.run(max_cycles=100_000)

        stats = machine.sim.stats
        assert stats.counter("cpu0/slb/reissues").value == 1
        assert stats.counter("cpu0/slb/squashes").value == 0  # no rollback
        assert machine.reg(0, "r1") == 2  # the fresh value


class TestPrefetcherDetails:
    def test_prefetch_candidates_cover_store_buffer(self):
        p = (ProgramBuilder()
             .lock_optimistic(addr=0x10)
             .store_imm(1, addr=0x40)
             .store_imm(2, addr=0x80)
             .build())
        r = run1(p, model=SC, prefetch=True)
        assert r.counter("cpu0/prefetcher/exclusive") >= 2

    def test_prefetcher_respects_bandwidth_config(self):
        p = (ProgramBuilder()
             .lock_optimistic(addr=0x10)
             .store_imm(1, addr=0x40)
             .store_imm(2, addr=0x80)
             .store_imm(3, addr=0xc0)
             .build())
        r = run1(p, model=SC, prefetch=True,
                 processor=ProcessorConfig(prefetches_per_cycle=1))
        # all three lines still get prefetched, just one per cycle
        assert r.counter("cpu0/prefetcher/issued") >= 3

    def test_software_prefetch_is_architecturally_silent(self):
        p = assemble("pf 0x40\npf.x 0x80\nmovi r1, 1\nhalt")
        r = run1(p, model=SC)
        assert r.machine.reg(0, "r1") == 1
        assert r.machine.read_word(0x40) == 0

    def test_software_prefetch_warms_cache(self):
        from repro.memory import LineState
        p = assemble("pf.x 0x40\nhalt")
        r = run1(p, model=SC)
        cache = r.machine.fabric.caches[0]
        assert cache.line_state(0x40) is LineState.MODIFIED


class TestSpeculativeRmwRead:
    """Appendix A: an RMW waiting its turn reads its location
    speculatively (read-exclusive) and hands dependents the old value."""

    def test_read_refused_by_a_full_mshr_file_is_retried(self, monkeypatch):
        from repro.cpu.lsu import LoadStoreUnit
        from repro.memory.types import CacheConfig
        from repro.sim.trace import TraceRecorder

        # the load miss holds the only MSHR for ~100 cycles, so the
        # cache refuses the RMW's speculative read, which then waits for
        # the fill that releases the MSHR — asked twice in all, not once
        # a cycle; the store behind the load keeps the RMW itself (SC:
        # after every earlier access) waiting long enough for the read
        # to come back first
        p = assemble("""
            ld      r1, 0x40
            st      r1, 0x100
            rmw.add r2, 0x80, r1
            add     r3, r2, r1
            halt
        """)
        asked = []
        send = LoadStoreUnit._send_rmw_read

        def counted(self, op):
            sent = send(self, op)
            asked.append((self.sim.cycle, sent))
            return sent

        monkeypatch.setattr(LoadStoreUnit, "_send_rmw_read", counted)
        runs = []
        for fast_forward in (True, False):
            trace = TraceRecorder()
            r = run1(p, model=SC, speculation=True,
                     cache=CacheConfig(mshr_entries=1),
                     initial_memory={0x40: 7, 0x80: 30}, trace=trace,
                     fast_forward=fast_forward)
            spec = [e for e in trace.events if e.kind == "rmw_spec_value"]
            assert [e.detail["value"] for e in spec] == [30]
            assert r.machine.reg(0, "r2") == 30
            assert r.machine.reg(0, "r3") == 37
            assert r.machine.read_word(0x80) == 37
            assert r.machine.read_word(0x100) == 7
            fill = next(e.cycle for e in trace.events
                        if e.kind == "load_complete" and e.detail["seq"] == 0)
            runs.append((r.cycles, spec[0].cycle, fill, asked[:]))
            asked.clear()
        assert runs[0] == runs[1]
        *_, fill, ((refused, no), (resent, yes)) = runs[0]
        assert (no, yes) == (False, True)
        assert resent - refused > 50      # refused for most of the load's miss
        assert resent == fill             # sent as the fill frees the MSHR
