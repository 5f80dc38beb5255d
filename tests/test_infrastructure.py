"""Tests for interconnect, directory internals, cache details, and the
system assembly layer."""

import pytest

from repro.coherence import DIRECTORY_NODE, DirState, Message, MessageKind
from repro.memory import (
    AccessKind,
    AccessRequest,
    CacheConfig,
    Interconnect,
    LatencyConfig,
    LineState,
)
from repro.sim import Simulator
from repro.sim.errors import ConfigurationError, ProtocolError
from repro.system import MachineConfig, Multiprocessor, run_workload
from repro.system.fabric import MemoryFabric, latency_by_kind


class TestInterconnect:
    def test_delivers_after_latency(self):
        sim = Simulator()
        net = Interconnect(sim, lambda msg: 5)
        got = []
        net.attach(0, got.append)
        net.attach(1, got.append)
        net.send(Message(kind=MessageKind.READ, src=0, dst=1, line_addr=7))
        for _ in range(4):
            sim.step()
        assert got == []
        sim.step()
        assert len(got) == 1 and got[0].line_addr == 7

    def test_fifo_per_channel(self):
        """A later message with lower latency must not overtake."""
        sim = Simulator()
        latencies = iter([10, 1])
        net = Interconnect(sim, lambda msg: next(latencies))
        got = []
        net.attach(0, lambda m: None)
        net.attach(1, lambda m: got.append(m.line_addr))
        net.send(Message(kind=MessageKind.READ, src=0, dst=1, line_addr=1))
        net.send(Message(kind=MessageKind.READ, src=0, dst=1, line_addr=2))
        for _ in range(15):
            sim.step()
        assert got == [1, 2]

    def test_unattached_destination_rejected(self):
        sim = Simulator()
        net = Interconnect(sim, lambda msg: 1)
        net.attach(0, lambda m: None)
        with pytest.raises(ConfigurationError):
            net.send(Message(kind=MessageKind.READ, src=0, dst=9, line_addr=0))

    def test_double_attach_rejected(self):
        sim = Simulator()
        net = Interconnect(sim, lambda msg: 1)
        net.attach(0, lambda m: None)
        with pytest.raises(ConfigurationError):
            net.attach(0, lambda m: None)

    def test_message_stats_counted(self):
        sim = Simulator()
        net = Interconnect(sim, lambda msg: 3)
        net.attach(0, lambda m: None)
        net.attach(1, lambda m: None)
        net.send(Message(kind=MessageKind.READ, src=0, dst=1, line_addr=0))
        assert sim.stats.counter("net/messages").value == 1
        assert sim.stats.counter("net/total_latency").value == 3

    def test_latency_by_kind_covers_all_kinds(self):
        fn = latency_by_kind(LatencyConfig())
        for kind in MessageKind:
            msg = Message(kind=kind, src=0, dst=1, line_addr=0)
            assert fn(msg) >= 0


class TestDirectoryInternals:
    def make(self):
        sim = Simulator()
        fabric = MemoryFabric(sim, num_cpus=2)
        return sim, fabric

    def run_access(self, sim, fabric, cpu, kind, addr, value=None, rid=[0]):
        rid[0] += 1
        done = {}
        req = AccessRequest(req_id=rid[0], kind=kind, addr=addr, value=value,
                            callback=lambda r, v: done.setdefault("v", v))
        assert fabric.caches[cpu].access(req)
        sim.run(until=lambda: "v" in done, max_cycles=20_000)
        return done["v"]

    def test_requests_queue_while_line_busy(self):
        sim, fabric = self.make()
        # two CPUs race for exclusive ownership of the same line
        done = {}
        for i, cpu in enumerate((0, 1)):
            req = AccessRequest(req_id=i + 1, kind=AccessKind.STORE,
                                addr=0x40, value=cpu + 1,
                                callback=lambda r, v: done.setdefault(r.req_id, v))
            assert fabric.caches[cpu].access(req)
        sim.run(until=lambda: len(done) == 2, max_cycles=50_000)
        assert fabric.directory.stat_queued.value >= 1
        sim.run(until=fabric.is_quiescent, max_cycles=50_000)
        # exactly one final owner
        owners = [c for c in fabric.caches
                  if c.line_state(0x40) is LineState.MODIFIED]
        assert len(owners) == 1

    def test_directory_state_tracks_transitions(self):
        sim, fabric = self.make()
        self.run_access(sim, fabric, 0, AccessKind.LOAD, 0x40)
        ent = fabric.directory.entry(0x40 // 4)
        assert ent.state is DirState.SHARED and 0 in ent.sharers
        self.run_access(sim, fabric, 1, AccessKind.STORE, 0x40, value=1)
        assert ent.state is DirState.EXCLUSIVE and ent.owner == 1

    def test_owner_rerequest_is_protocol_error(self):
        sim, fabric = self.make()
        self.run_access(sim, fabric, 0, AccessKind.STORE, 0x40, value=1)
        # inject an illegal duplicate READX from the current owner
        fabric.net.send(Message(kind=MessageKind.READX, src=0,
                                dst=DIRECTORY_NODE, line_addr=0x40 // 4))
        with pytest.raises(ProtocolError):
            for _ in range(500):
                sim.step()

    def test_sharers_of_reports_directory_view(self):
        sim, fabric = self.make()
        self.run_access(sim, fabric, 0, AccessKind.LOAD, 0x40)
        self.run_access(sim, fabric, 1, AccessKind.LOAD, 0x40)
        assert fabric.directory.sharers_of(0x40 // 4) == {0, 1}


class TestCacheDetails:
    def make(self, **cfg):
        sim = Simulator()
        fabric = MemoryFabric(sim, num_cpus=1,
                              cache_config=CacheConfig(**cfg))
        return sim, fabric.caches[0], fabric

    def test_port_limits_accesses_per_cycle(self):
        sim, cache, _ = self.make(ports=1)
        r1 = AccessRequest(req_id=1, kind=AccessKind.LOAD, addr=0)
        r2 = AccessRequest(req_id=2, kind=AccessKind.LOAD, addr=64)
        sim.step()
        assert cache.access(r1)
        assert not cache.can_accept()
        assert not cache.access(r2)
        sim.step()
        assert cache.access(r2)

    def test_dual_port_config(self):
        sim, cache, _ = self.make(ports=2)
        sim.step()
        assert cache.access(AccessRequest(req_id=1, kind=AccessKind.LOAD, addr=0))
        assert cache.access(AccessRequest(req_id=2, kind=AccessKind.LOAD, addr=64))
        assert not cache.can_accept()

    def test_lru_victim_selection(self):
        sim, cache, fabric = self.make(num_sets=1, assoc=2)
        done = set()

        def go(rid, addr):
            req = AccessRequest(req_id=rid, kind=AccessKind.LOAD, addr=addr,
                                callback=lambda r, v: done.add(r.req_id))
            assert cache.access(req)
            sim.run(until=lambda: rid in done, max_cycles=10_000)

        go(1, 0x00)
        go(2, 0x10)
        go(3, 0x00)   # touch line 0 again -> line 0x10 is LRU
        go(4, 0x20)   # evicts 0x10
        assert cache.line_state(0x00) is not LineState.INVALID
        assert cache.line_state(0x10) is LineState.INVALID

    def test_warm_install_validates_line_length(self):
        _, cache, _ = self.make()
        with pytest.raises(ProtocolError):
            cache.warm_install(1, LineState.SHARED, [1, 2])  # wrong length

    def test_contents_snapshot(self):
        sim, cache, fabric = self.make()
        fabric.warm(0, 0x40, exclusive=True)
        contents = cache.contents()
        assert contents[0x40 // 4][0] == "M"

    def test_peek_word_absent_line(self):
        _, cache, _ = self.make()
        assert cache.peek_word(0x999) is None

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(num_sets=0)
        with pytest.raises(ConfigurationError):
            CacheConfig(protocol="token")
        with pytest.raises(ConfigurationError):
            LatencyConfig(request=-1)
        with pytest.raises(ConfigurationError):
            LatencyConfig.from_miss_latency(2)


class TestSystemAssembly:
    def test_machine_requires_programs(self):
        with pytest.raises(ConfigurationError):
            Multiprocessor([])

    def test_both_techniques_reach_every_core_built_or_rearmed(self):
        from repro.consistency.models import RC, SC
        from repro.isa import ProgramBuilder

        programs = [ProgramBuilder().mov_imm("r1", 1).build()] * 2

        def units(machine):
            return [(proc.lsu.slb is not None,
                     proc.lsu.prefetcher is not None)
                    for proc in machine.processors]

        built = Multiprocessor(programs, MachineConfig(
            model=RC, enable_prefetch=True, enable_speculation=True))
        assert units(built) == [(True, True)] * 2
        rearmed = Multiprocessor(programs)
        assert units(rearmed) == [(False, False)] * 2
        rearmed.reset(RC, True, True)
        assert units(rearmed) == [(True, True)] * 2
        rearmed.reset(SC, False, False)
        assert units(rearmed) == [(False, False)] * 2

    def test_run_result_counter_access(self):
        from repro.isa import ProgramBuilder
        p = ProgramBuilder().mov_imm("r1", 1).build()
        result = run_workload([p])
        assert result.counter("cpu0/instructions_retired") == 2  # mov + halt

    # ids: the two warms in order, X exclusive and S shared
    @pytest.mark.parametrize("first,second", [
        (True, False), (False, True), (True, True),
    ], ids=["XS", "SX", "XX"])
    def test_warm_exclusive_then_shared_conflict_rejected(self, first,
                                                          second):
        # every order that would leave a second copy beside an owned one
        # breaks single-writer/multiple-reader and is refused
        from repro.isa import ProgramBuilder
        p = ProgramBuilder().build()
        m = Multiprocessor([p, p])
        m.warm(0, 0x40, exclusive=first)
        with pytest.raises(ValueError):
            m.warm(1, 0x40, exclusive=second)

    def test_miss_latency_knob_changes_timing(self):
        from repro.isa import ProgramBuilder
        p = ProgramBuilder().load("r1", addr=0x40).build()
        slow = run_workload([p], miss_latency=200)
        fast = run_workload([p], miss_latency=20)
        assert slow.cycles > fast.cycles + 100
