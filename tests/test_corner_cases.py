"""Corner cases: structural limits, protocol races, tiny configurations.

Architectural results must be identical under any sizing of the
buffers — small structures may only cost cycles, never correctness.
"""

import pytest

from repro.consistency import RC, SC
from repro.cpu import ProcessorConfig
from repro.isa import ProgramBuilder, assemble, interpret
from repro.memory import AccessKind, AccessRequest, CacheConfig, LineState
from repro.sim import Simulator
from repro.coherence.messages import MessageKind
from repro.sim.errors import DeadlockError, ProtocolError
from repro.system import run_workload
from repro.system.agent import ScriptedAgent
from repro.system.machine import MachineConfig, Multiprocessor
from repro.system.fabric import MemoryFabric
from repro.workloads import barrier_workload, critical_section_workload

REFERENCE_PROGRAM = """
    movi r1, 7
    st   r1, 0x10
    ld   r2, 0x10
    st   r2, 0x20
    ld   r3, 0x20
    rmw.add r4, 0x10, r1
    ld   r5, 0x10
    st   r5, 0x30
    ld   r6, 0x30
    halt
"""


def run_with(processor=None, cache=None, model=SC, spec=True, pf=True):
    program = assemble(REFERENCE_PROGRAM)
    expected = interpret(program)
    result = run_workload([program], model=model, prefetch=pf,
                          speculation=spec, processor=processor,
                          cache=cache, max_cycles=500_000)
    for reg in ("r2", "r3", "r4", "r5", "r6"):
        assert result.machine.reg(0, reg) == expected.reg(reg), reg
    for addr in (0x10, 0x20, 0x30):
        assert result.machine.read_word(addr) == expected.word(addr)
    return result


class TestTinyStructures:
    def test_single_entry_store_buffer(self):
        run_with(processor=ProcessorConfig(store_buffer_size=1))

    def test_single_entry_slb(self):
        run_with(processor=ProcessorConfig(slb_size=1))

    def test_tiny_ls_reservation_station(self):
        run_with(processor=ProcessorConfig(ls_rs_size=1, store_buffer_size=1))

    def test_tiny_rob(self):
        run_with(processor=ProcessorConfig(rob_size=4))

    def test_single_wide_pipeline(self):
        run_with(processor=ProcessorConfig(width=1, alu_count=1))

    def test_tiny_cache_with_conflicts(self):
        # 1 set x 1 way: every distinct line conflicts
        run_with(cache=CacheConfig(num_sets=1, assoc=1))

    def test_tiny_cache_small_mshr(self):
        run_with(cache=CacheConfig(num_sets=2, assoc=1, mshr_entries=1))

    def test_all_tiny_at_once(self):
        run_with(
            processor=ProcessorConfig(rob_size=4, ls_rs_size=1,
                                      store_buffer_size=1, slb_size=1,
                                      width=1, alu_count=1),
            cache=CacheConfig(num_sets=1, assoc=2, mshr_entries=2),
        )

    @pytest.mark.parametrize("model", [SC, RC], ids=lambda m: m.name)
    def test_tiny_structures_multiprocessor(self, model):
        wl = critical_section_workload(num_cpus=2, iterations=2)
        result = run_workload(
            wl.programs, model=model, prefetch=True, speculation=True,
            processor=ProcessorConfig(rob_size=8, slb_size=2,
                                      store_buffer_size=2),
            cache=CacheConfig(num_sets=4, assoc=2),
            initial_memory=wl.initial_memory,
            max_cycles=5_000_000,
        )
        for addr, expected in wl.expectations:
            assert result.machine.read_word(addr) == expected


class TestWritebackRace:
    """The RECALL/WRITEBACK crossing (directory `awaiting_writeback`)."""

    @pytest.mark.parametrize("gap", [0, 1, 5, 20, 45, 90])
    def test_eviction_races_remote_request(self, gap):
        sim = Simulator()
        fabric = MemoryFabric(sim, num_cpus=2,
                              cache_config=CacheConfig(num_sets=1, assoc=1))
        done = {}

        def cb(req, value):
            done[req.req_id] = value

        # CPU0 dirties line 0
        fabric.caches[0].access(AccessRequest(
            req_id=1, kind=AccessKind.STORE, addr=0x0, value=111, callback=cb))
        sim.run(until=lambda: 1 in done, max_cycles=10_000)
        # CPU0 evicts it (conflicting fill) while CPU1 requests it
        fabric.caches[0].access(AccessRequest(
            req_id=2, kind=AccessKind.LOAD, addr=0x10, callback=cb))
        for _ in range(gap):
            sim.step()
        fabric.caches[1].access(AccessRequest(
            req_id=3, kind=AccessKind.LOAD, addr=0x0, callback=cb))
        sim.run(until=lambda: 2 in done and 3 in done, max_cycles=50_000)
        assert done[3] == 111  # the dirty data must never be lost
        sim.run(until=fabric.is_quiescent, max_cycles=50_000)
        assert fabric.directory.read_word(0x0) == 111


class TestDirectoryFairness:
    def test_four_cpus_hammering_one_line_all_progress(self):
        """A single hot line under RMW fire from four CPUs: the blocking
        directory's per-line FIFO queue must guarantee progress for all."""
        from repro.workloads import critical_section_workload

        wl = critical_section_workload(num_cpus=4, iterations=1)
        result = run_workload(wl.programs, model=RC, prefetch=True,
                              speculation=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=10_000_000)
        for addr, expected in wl.expectations:
            assert result.machine.read_word(addr) == expected
        assert result.counter("dir/requests_queued") > 0  # contention was real


class TestFalseSharing:
    def test_adjacent_word_writers_both_land(self):
        w0 = ProgramBuilder().store_imm(5, addr=0x100).build()
        w1 = ProgramBuilder().store_imm(9, addr=0x101).build()  # same line
        for spec in (False, True):
            result = run_workload([w0, w1], model=SC, speculation=spec,
                                  prefetch=spec, max_cycles=200_000)
            assert result.machine.read_word(0x100) == 5
            assert result.machine.read_word(0x101) == 9

    def test_false_sharing_squashes_conservatively(self):
        """A speculative load squashes even when the remote write hits
        a *different word* of the same line (footnote 2)."""
        reader = (ProgramBuilder()
                  .lock_optimistic(addr=0x10, tag="acq")
                  .load("r1", addr=0x100, tag="data")
                  .build())
        # the remote writer touches word 0x101: same line, other word
        from repro.sim.trace import TraceRecorder
        from repro.system.machine import MachineConfig, Multiprocessor
        from repro.memory import LatencyConfig

        config = MachineConfig(model=SC, enable_prefetch=True,
                               enable_speculation=True,
                               latencies=LatencyConfig.from_miss_latency(100))
        machine = Multiprocessor([reader], config, extra_agents=1)
        machine.init_memory({0x10: 0, 0x100: 42, 0x101: 0})
        machine.warm(0, 0x100, exclusive=False)
        machine.agents[0].write_at(5, 0x101, 1)
        machine.run(max_cycles=100_000)
        assert machine.sim.stats.counter("cpu0/slb/squashes").value >= 1
        assert machine.reg(0, "r1") == 42  # value still correct after redo


class _DeafAgent(ScriptedAgent):
    """Keeps its copies, and never acknowledges an invalidation."""

    def receive(self, msg):
        if msg.kind is not MessageKind.INVAL:
            super().receive(msg)


class TestDeadlockDiagnostic:
    def test_a_wedge_names_the_cache_and_directory_line_it_waits_on(self):
        # the agent reads 0x40's line and then withholds the INVAL_ACK
        # the directory asks for when cpu0 stores to it: cpu0 waits on
        # its cache's miss, the miss on the directory's transaction
        program = assemble("""
            ld   r1, 0x80
            st   r1, 0x40
            halt
        """)
        machine = Multiprocessor([program], MachineConfig(model=SC))
        agent = _DeafAgent("agent0", machine.sim, machine.fabric.net)
        agent.read_at(1, 0x40)
        with pytest.raises(DeadlockError) as exc:
            machine.run(max_cycles=2_000)
        assert exc.value.diagnostic == (
            "non-quiescent components: ['cpu0', 'directory', 'cache0']; "
            "directory busy: 0x10 readx txn 3 (1 acks pending, 0 queued); "
            "cache0 misses 0x10")


class TestUpdateProtocolLimits:
    def test_rmw_rejected_under_update_protocol(self):
        program = ProgramBuilder().rmw("r1", addr=0x10, op="ts").build()
        with pytest.raises(ProtocolError):
            run_workload([program], model=SC,
                         cache=CacheConfig(protocol="update"),
                         max_cycles=100_000)

    def test_plain_workload_runs_under_update_protocol(self):
        program = (ProgramBuilder()
                   .store_imm(3, addr=0x10)
                   .load("r1", addr=0x10)
                   .build())
        result = run_workload([program], model=SC,
                              cache=CacheConfig(protocol="update"),
                              max_cycles=100_000)
        assert result.machine.reg(0, "r1") == 3


class TestBarrierWorkload:
    @pytest.mark.parametrize("model", [SC, RC], ids=lambda m: m.name)
    def test_barrier_phases_synchronize(self, model):
        wl = barrier_workload(num_cpus=2, phases=2)
        result = run_workload(wl.programs, model=model, prefetch=True,
                              speculation=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=5_000_000)
        for addr, expected in wl.expectations:
            assert result.machine.read_word(addr) == expected

    def test_barrier_requires_two_cpus(self):
        with pytest.raises(ValueError):
            barrier_workload(num_cpus=1)

    def test_three_cpus_three_phases(self):
        wl = barrier_workload(num_cpus=3, phases=3)
        result = run_workload(wl.programs, model=RC, prefetch=True,
                              speculation=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=10_000_000)
        for addr, expected in wl.expectations:
            assert result.machine.read_word(addr) == expected
