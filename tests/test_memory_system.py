"""Integration tests for the coherent memory system (cache + directory).

These drive :class:`LockupFreeCache` instances directly, without a
processor, and check protocol correctness, merging, prefetch semantics,
snoop notification, and timing.
"""

import itertools

import pytest

from repro.memory import (
    AccessKind,
    AccessRequest,
    CacheConfig,
    LatencyConfig,
    LineState,
    SnoopKind,
)
from repro.sim import DeadlockError, Simulator
from repro.sim.trace import TraceRecorder
from repro.system.fabric import MemoryFabric

MISS = 100  # paper's canonical miss latency


class Harness:
    """A fabric plus helpers to issue accesses and wait for completion."""

    def __init__(self, num_cpus=2, cache_config=None, miss_latency=MISS,
                 trace=None):
        self.sim = Simulator()
        self.fabric = MemoryFabric(
            self.sim,
            num_cpus,
            cache_config=cache_config or CacheConfig(),
            latencies=LatencyConfig.from_miss_latency(miss_latency),
            trace=trace,
        )
        self._ids = itertools.count(1)
        self.completions = {}  # req_id -> (cycle, value)

    def cache(self, cpu):
        return self.fabric.caches[cpu]

    def request(self, kind, addr, value=None, rmw_op=None):
        rid = next(self._ids)

        def done(req, val):
            self.completions[req.req_id] = (self.sim.cycle, val)

        return AccessRequest(req_id=rid, kind=kind, addr=addr, value=value,
                             rmw_op=rmw_op, callback=done)

    def issue(self, cpu, kind, addr, value=None, rmw_op=None):
        req = self.request(kind, addr, value=value, rmw_op=rmw_op)
        assert self.cache(cpu).access(req), "access not accepted"
        return req

    def wait(self, req, max_cycles=10_000):
        self.sim.run(until=lambda: req.req_id in self.completions,
                     max_cycles=max_cycles)
        return self.completions[req.req_id]

    def wait_all(self, reqs, max_cycles=20_000):
        self.sim.run(
            until=lambda: all(r.req_id in self.completions for r in reqs),
            max_cycles=max_cycles,
        )
        return [self.completions[r.req_id] for r in reqs]

    def settle(self, max_cycles=20_000):
        """Run until the fabric is fully quiescent."""
        self.sim.run(until=self.fabric.is_quiescent, max_cycles=max_cycles)


class TestBasicAccesses:
    def test_load_miss_returns_memory_value(self):
        h = Harness()
        h.fabric.init_memory({0x100: 42})
        req = h.issue(0, AccessKind.LOAD, 0x100)
        cycle, value = h.wait(req)
        assert value == 42
        assert h.cache(0).line_state(0x100) is LineState.SHARED

    def test_clean_load_miss_latency_matches_config(self):
        h = Harness(miss_latency=100)
        req = h.issue(0, AccessKind.LOAD, 0x100)
        cycle, _ = h.wait(req)
        # issued at cycle 0; response event lands at clean_miss cycles
        assert cycle == LatencyConfig.from_miss_latency(100).clean_miss

    def test_load_hit_is_fast(self):
        h = Harness()
        req = h.issue(0, AccessKind.LOAD, 0x100)
        h.wait(req)
        start = h.sim.cycle
        req2 = h.issue(0, AccessKind.LOAD, 0x100)
        cycle, _ = h.wait(req2)
        assert cycle - start == h.fabric.cache_config.hit_latency

    def test_store_miss_gains_ownership(self):
        h = Harness()
        req = h.issue(0, AccessKind.STORE, 0x100, value=7)
        h.wait(req)
        assert h.cache(0).line_state(0x100) is LineState.MODIFIED
        assert h.cache(0).peek_word(0x100) == 7
        assert h.fabric.read_word(0x100) == 7

    def test_store_hit_on_owned_line(self):
        h = Harness()
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=1))
        start = h.sim.cycle
        req = h.issue(0, AccessKind.STORE, 0x100, value=2)
        cycle, _ = h.wait(req)
        assert cycle - start == 1
        assert h.cache(0).peek_word(0x100) == 2

    def test_load_within_same_line_hits(self):
        h = Harness()
        h.fabric.init_memory({0x101: 9})
        h.wait(h.issue(0, AccessKind.LOAD, 0x100))
        start = h.sim.cycle
        cycle, value = h.wait(h.issue(0, AccessKind.LOAD, 0x101))
        assert value == 9 and cycle - start == 1

    def test_rmw_test_and_set(self):
        h = Harness()
        h.fabric.init_memory({0x80: 0})
        cycle, old = h.wait(h.issue(0, AccessKind.RMW, 0x80, value=0, rmw_op="ts"))
        assert old == 0
        assert h.cache(0).peek_word(0x80) == 1
        # second T&S sees it held
        _, old2 = h.wait(h.issue(0, AccessKind.RMW, 0x80, value=0, rmw_op="ts"))
        assert old2 == 1

    def test_rmw_fetch_and_add(self):
        h = Harness()
        h.fabric.init_memory({0x80: 10})
        _, old = h.wait(h.issue(0, AccessKind.RMW, 0x80, value=5, rmw_op="add"))
        assert old == 10
        assert h.cache(0).peek_word(0x80) == 15


class TestCoherence:
    def test_reader_sees_writers_value_via_recall(self):
        h = Harness()
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=99))
        _, value = h.wait(h.issue(1, AccessKind.LOAD, 0x100))
        assert value == 99
        # both copies shared now; memory updated by the recall
        assert h.cache(0).line_state(0x100) is LineState.SHARED
        assert h.cache(1).line_state(0x100) is LineState.SHARED
        assert h.fabric.directory.read_word(0x100) == 99

    def test_write_invalidates_sharers(self):
        h = Harness(num_cpus=3)
        h.wait_all([h.issue(0, AccessKind.LOAD, 0x100), h.issue(1, AccessKind.LOAD, 0x100)])
        h.wait(h.issue(2, AccessKind.STORE, 0x100, value=5))
        assert h.cache(0).line_state(0x100) is LineState.INVALID
        assert h.cache(1).line_state(0x100) is LineState.INVALID
        assert h.cache(2).line_state(0x100) is LineState.MODIFIED

    def test_write_steals_ownership_from_other_writer(self):
        h = Harness()
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=1))
        h.wait(h.issue(1, AccessKind.STORE, 0x100, value=2))
        assert h.cache(0).line_state(0x100) is LineState.INVALID
        assert h.cache(1).line_state(0x100) is LineState.MODIFIED
        assert h.fabric.read_word(0x100) == 2

    def test_upgrade_from_shared(self):
        h = Harness()
        h.wait_all([h.issue(0, AccessKind.LOAD, 0x100), h.issue(1, AccessKind.LOAD, 0x100)])
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=3))
        assert h.cache(0).line_state(0x100) is LineState.MODIFIED
        assert h.cache(1).line_state(0x100) is LineState.INVALID

    def test_invalidation_fires_snoop_listener(self):
        h = Harness()
        events = []
        h.cache(0).register_snoop_listener(lambda kind, line: events.append((kind, line)))
        h.wait(h.issue(0, AccessKind.LOAD, 0x100))
        h.wait(h.issue(1, AccessKind.STORE, 0x100, value=1))
        h.settle()
        line = h.fabric.cache_config.line_addr(0x100)
        assert (SnoopKind.INVALIDATION, line) in events

    def test_sequential_write_read_chain(self):
        """Values propagate through a chain of owners."""
        h = Harness(num_cpus=4)
        for i in range(4):
            h.wait(h.issue(i, AccessKind.STORE, 0x40, value=i + 1))
        _, v = h.wait(h.issue(0, AccessKind.LOAD, 0x40))
        assert v == 4

    def test_false_sharing_invalidation(self):
        """Writes to a different word in the same line still invalidate."""
        h = Harness()
        h.wait(h.issue(0, AccessKind.LOAD, 0x100))
        h.wait(h.issue(1, AccessKind.STORE, 0x101, value=1))  # same line
        assert h.cache(0).line_state(0x100) is LineState.INVALID


class TestMshrMerging:
    def test_two_loads_one_miss(self):
        h = Harness()
        r1 = h.issue(0, AccessKind.LOAD, 0x100)
        h.sim.step()
        r2 = h.issue(0, AccessKind.LOAD, 0x101)  # same line
        (c1, _), (c2, _) = h.wait_all([r1, r2])
        assert h.cache(0).stat_misses.value == 1
        assert h.cache(0).stat_merges.value == 1
        assert abs(c1 - c2) <= 1  # both complete at the fill

    def test_store_merged_onto_shared_miss_upgrades_after_fill(self):
        h = Harness()
        r1 = h.issue(0, AccessKind.LOAD, 0x100)
        h.sim.step()
        r2 = h.issue(0, AccessKind.STORE, 0x100, value=5)
        (c1, _), (c2, _) = h.wait_all([r1, r2])
        assert c2 > c1  # store needed a second (exclusive) transaction
        assert h.cache(0).line_state(0x100) is LineState.MODIFIED
        assert h.cache(0).peek_word(0x100) == 5

    def test_load_merged_onto_exclusive_miss(self):
        h = Harness()
        r1 = h.issue(0, AccessKind.STORE, 0x100, value=5)
        h.sim.step()
        r2 = h.issue(0, AccessKind.LOAD, 0x100)
        results = h.wait_all([r1, r2])
        assert results[1][1] == 5  # load observes the merged store's value

    def test_mshr_exhaustion_rejects_access(self):
        cfg = CacheConfig(mshr_entries=1)
        h = Harness(cache_config=cfg)
        h.issue(0, AccessKind.LOAD, 0x100)
        h.sim.step()
        req = h.request(AccessKind.LOAD, 0x200)
        assert not h.cache(0).access(req)  # different line, MSHRs full


class TestPrefetch:
    def test_read_prefetch_brings_line_shared(self):
        h = Harness()
        assert h.cache(0).prefetch(0x100, exclusive=False)
        h.settle()
        assert h.cache(0).line_state(0x100) is LineState.SHARED
        assert h.cache(0).stat_prefetches.value == 1

    def test_read_exclusive_prefetch_brings_ownership(self):
        h = Harness()
        h.cache(0).prefetch(0x100, exclusive=True)
        h.settle()
        assert h.cache(0).line_state(0x100) is LineState.MODIFIED

    def test_prefetch_discarded_if_line_present(self):
        h = Harness()
        h.wait(h.issue(0, AccessKind.LOAD, 0x100))
        h.cache(0).prefetch(0x100, exclusive=False)
        assert h.cache(0).stat_prefetch_discarded.value == 1
        assert h.cache(0).stat_prefetches.value == 0

    def test_prefetch_discarded_if_mshr_outstanding(self):
        h = Harness()
        h.cache(0).prefetch(0x100, exclusive=False)
        h.sim.step()
        h.cache(0).prefetch(0x100, exclusive=False)
        assert h.cache(0).stat_prefetch_discarded.value == 1

    def test_demand_merges_with_prefetch_and_counts_useful(self):
        h = Harness()
        h.cache(0).prefetch(0x100, exclusive=False)
        h.sim.step()
        req = h.issue(0, AccessKind.LOAD, 0x100)
        cycle, _ = h.wait(req)
        assert h.cache(0).stat_prefetch_useful.value == 1
        # completes when the prefetch returns, not a full miss later
        assert cycle <= LatencyConfig.from_miss_latency(MISS).clean_miss + 1

    def test_store_after_exclusive_prefetch_is_fast(self):
        h = Harness()
        h.cache(0).prefetch(0x100, exclusive=True)
        h.settle()
        start = h.sim.cycle
        cycle, _ = h.wait(h.issue(0, AccessKind.STORE, 0x100, value=1))
        assert cycle - start == 1  # hit on the prefetched exclusive line

    def test_prefetched_line_invalidated_before_use_is_refetched(self):
        """Non-binding property: a stale prefetch never yields stale data."""
        h = Harness()
        h.cache(0).prefetch(0x100, exclusive=False)
        h.settle()
        h.wait(h.issue(1, AccessKind.STORE, 0x100, value=77))  # invalidates P0
        assert h.cache(0).line_state(0x100) is LineState.INVALID
        _, value = h.wait(h.issue(0, AccessKind.LOAD, 0x100))
        assert value == 77

    def test_exclusive_prefetch_upgrade_path(self):
        h = Harness()
        h.wait(h.issue(0, AccessKind.LOAD, 0x100))  # S copy
        h.cache(0).prefetch(0x100, exclusive=True)  # should upgrade
        h.settle()
        assert h.cache(0).line_state(0x100) is LineState.MODIFIED


class TestReplacement:
    def tiny_cache(self):
        # 1 set, 2 ways, line_size 4 -> any 3 distinct lines conflict
        return CacheConfig(num_sets=1, assoc=2, line_size=4)

    def test_eviction_notifies_replacement_snoop(self):
        h = Harness(cache_config=self.tiny_cache())
        events = []
        h.cache(0).register_snoop_listener(lambda k, l: events.append((k, l)))
        for addr in (0x00, 0x10, 0x20):
            h.wait(h.issue(0, AccessKind.LOAD, addr))
        assert any(k is SnoopKind.REPLACEMENT for k, _ in events)

    def test_dirty_eviction_writes_back(self):
        h = Harness(cache_config=self.tiny_cache())
        h.wait(h.issue(0, AccessKind.STORE, 0x00, value=123))
        for addr in (0x10, 0x20):
            h.wait(h.issue(0, AccessKind.LOAD, addr))
        h.settle()
        assert h.fabric.directory.read_word(0x00) == 123
        assert h.cache(0).stat_writebacks.value == 1

    def test_evicted_line_reload_gets_correct_value(self):
        h = Harness(cache_config=self.tiny_cache())
        h.wait(h.issue(0, AccessKind.STORE, 0x00, value=5))
        for addr in (0x10, 0x20):
            h.wait(h.issue(0, AccessKind.LOAD, addr))
        _, value = h.wait(h.issue(0, AccessKind.LOAD, 0x00))
        assert value == 5


    def test_an_invalidated_way_is_no_replacement(self):
        """At 4 sets x 1 way, line 0 and line 4 share set 0.  After
        P1's store took P0's copy of line 0, P0's fill of line 4 reuses
        the INVALID way: no replacement count, no ``evict`` event and no
        REPLACEMENT snoop for a line that already left."""
        trace = TraceRecorder()
        h = Harness(cache_config=CacheConfig(num_sets=4, assoc=1,
                                             line_size=4), trace=trace)
        snoops = []
        h.cache(0).register_snoop_listener(
            lambda k, l: snoops.append((k, l)))
        h.wait(h.issue(0, AccessKind.LOAD, 0x00))
        h.wait(h.issue(1, AccessKind.STORE, 0x00, value=7))
        h.settle()
        assert h.cache(0).line_state(0x00) is LineState.INVALID
        _, value = h.wait(h.issue(0, AccessKind.LOAD, 0x10))
        h.settle()
        assert value == 0
        assert h.cache(0).line_state(0x10) is LineState.SHARED
        assert h.cache(0).stat_replacements.value == 0
        assert not [e for e in trace.events
                    if e.source == "cache0" and e.kind == "evict"]
        assert (SnoopKind.INVALIDATION, 0) in snoops
        assert not [k for k, _ in snoops if k is SnoopKind.REPLACEMENT]


class TestUpdateProtocol:
    def update_harness(self, num_cpus=2):
        return Harness(num_cpus=num_cpus,
                       cache_config=CacheConfig(protocol="update"))

    def test_store_updates_sharers_in_place(self):
        h = self.update_harness()
        h.wait_all([h.issue(0, AccessKind.LOAD, 0x100),
                    h.issue(1, AccessKind.LOAD, 0x100)])
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=42))
        # P1's copy stays valid and carries the new value
        assert h.cache(1).line_state(0x100) is LineState.SHARED
        assert h.cache(1).peek_word(0x100) == 42

    def test_update_fires_update_snoop(self):
        h = self.update_harness()
        events = []
        h.cache(1).register_snoop_listener(lambda k, l: events.append(k))
        h.wait_all([h.issue(0, AccessKind.LOAD, 0x100),
                    h.issue(1, AccessKind.LOAD, 0x100)])
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=1))
        h.settle()
        assert SnoopKind.UPDATE in events

    def test_store_without_sharers_completes(self):
        h = self.update_harness()
        _, v = h.wait(h.issue(0, AccessKind.STORE, 0x100, value=9))
        assert h.fabric.directory.read_word(0x100) == 9

    def test_no_invalidation_under_update(self):
        h = self.update_harness()
        h.wait_all([h.issue(0, AccessKind.LOAD, 0x100),
                    h.issue(1, AccessKind.LOAD, 0x100)])
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=1))
        h.settle()
        assert h.cache(1).stat_invals.value == 0


class TestStress:
    def test_many_cpus_many_lines_reach_consistency(self):
        """Pseudo-random store/load mix settles with a coherent final state."""
        import random

        rng = random.Random(1234)
        h = Harness(num_cpus=4)
        reqs = []
        last_store = {}
        order = 0
        for _ in range(120):
            cpu = rng.randrange(4)
            addr = rng.choice([0x10, 0x20, 0x30, 0x40]) + rng.randrange(4)
            if rng.random() < 0.5:
                order += 1
                reqs.append(h.issue(cpu, AccessKind.STORE, addr, value=order))
                last_store[addr] = order
            else:
                reqs.append(h.issue(cpu, AccessKind.LOAD, addr))
            # issue pacing so ports/MSHRs don't reject
            for _ in range(rng.randrange(1, 30)):
                h.sim.step()
        h.wait_all(reqs, max_cycles=200_000)
        h.settle(max_cycles=200_000)
        # single-writer-per-cycle isn't enforced, but the *final* value of
        # each address must be the value of one of the stores to it
        for addr, _ in last_store.items():
            final = h.fabric.read_word(addr)
            stored = [h.completions[r.req_id][1] for r in reqs
                      if r.addr == addr and r.kind is AccessKind.STORE]
            assert final in stored

    def test_no_owner_ever_duplicated(self):
        h = Harness(num_cpus=3)
        h.wait(h.issue(0, AccessKind.STORE, 0x100, value=1))
        h.wait(h.issue(1, AccessKind.STORE, 0x100, value=2))
        h.wait(h.issue(2, AccessKind.STORE, 0x100, value=3))
        h.settle()
        owners = [c for c in h.fabric.caches
                  if c.line_state(0x100) is LineState.MODIFIED]
        assert len(owners) == 1
