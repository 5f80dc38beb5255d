"""Struct-of-arrays lockstep engine: many simulations, one clock.

One :class:`BatchEngine` steps L independent simulations ("lanes") of
``ncpu`` CPUs each.  CPU state lives in packed numpy arrays indexed by
*context* (``ctx = lane * ncpu + cpu``): the per-cycle work — retire,
decode, reservation-station advance, address-unit drain, ALU
issue/complete, cycle accounting — is vectorized across every context
at once, which kills the O(cycles x cpus) interpreted-python term that
dominates the scalar kernel.  Per-*operation* work (cache accesses,
store forwards, completion callbacks) stays plain python against a
per-lane coherence fabric, the transliterated
:class:`~repro.sim.batch.coherence.FastFabric`.  That work is
O(memory ops), not O(cycles), and the protocol behaviour is
scalar-identical.

Bit-exactness contract
----------------------

Every phase below mirrors one method of the scalar kernel, in the same
order the scalar ``Processor.tick`` / ``LoadStoreUnit.tick`` run them:

=================  =====================================================
engine phase       scalar counterpart
=================  =====================================================
event drain        ``Simulator.step`` -> ``EventQueue.run_due``
retire (x width)   ``Processor._retire``
addr-unit drain    ``LoadStoreUnit._drain_addr_unit``
RS advance         ``LoadStoreUnit._advance_rs``
store issue        ``LoadStoreUnit._issue_stores``
load issue         ``LoadStoreUnit._issue_loads`` / ``_try_forward``
ALU complete+issue ``AluUnit.tick``
decode (x width)   ``Processor._decode``
accountant         ``CycleAccountant.account`` / ``account_drained``
staged flush       (event-queue scheduling-order tie break)
lane completion    ``Multiprocessor.done`` via ``Simulator.run(until=)``
deadlock check     ``Simulator.run`` max_cycles check
fast-forward       ``Simulator.run`` idle-span jump
=================  =====================================================

Running phase-major across CPUs (all contexts retire, then all drain,
...) instead of CPU-major is safe because within one cycle no two CPUs
write shared state before the issue phases, and cache/directory/
interconnect interaction is mediated by per-channel messages whose
delivery order is fixed by the staged event keys ``(lane, cpu, phase)``
— exactly the order the scalar kernel's global event-queue sequence
numbers would impose.

Events are kept in one shared heap keyed ``(when, lane, seq)`` with
per-lane monotone sequence numbers.  Schedules made *during the event
drain* (cache pipelines chaining) push immediately — the scalar
``run_due`` executes same-cycle chained events in the same drain.
Schedules made *during tick phases* (cache accesses, store forwards)
are staged and flushed in ``(lane, cpu, phase, chronological)`` order,
reproducing the scalar per-CPU tick order.

Idle-cycle fast-forward: when a processed cycle turns out to be a pure
stall for every live lane (nothing retired, decoded, drained, advanced,
issued, completed, or fired), every gate in the machine is
cycle-invariant until the next event, so the engine jumps the clock to
``min(next event, next deadlock horizon)`` and bulk-replays the skipped
cycles' accounting (cycle causes and rs/sb consistency-stall counters
repeat the stalled cycle's pattern exactly — the same replay the scalar
kernel's wake/sleep protocol performs).
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...consistency.models import get_model
from ...memory.types import AccessKind, AccessRequest
from .compile import (
    C_BUSY,
    C_IDLE,
    C_ROB_FULL,
    C_WRITE,
    CompiledProgram,
    K_ALU,
    K_HALT,
    K_LOAD,
    K_NOP,
    K_PAD,
    K_RMW,
    K_STORE,
    RMW_OPS_BY_CODE,
)
from ...sim.stats import StatsRegistry
from .coherence import FastFabric
from ...system.jobs import BatchJob
from .stats import materialize_lane_stats

#: default ProcessorConfig geometry the engine assumes (checked against
#: the envelope by ``job_unsupported_reason``)
WIDTH = 2
ROB_SIZE = 32
ALU_RS_SIZE = 16
LS_RS_SIZE = 16
STORE_BUFFER_SIZE = 16
ALU_COUNT = 2

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_M64 = (1 << 64) - 1


def _bits(positions: np.ndarray) -> np.ndarray:
    """Elementwise ``1 << positions`` as uint64."""
    return np.left_shift(_ONE, positions.astype(np.uint64))


class BatchEngine:
    """Lockstep SoA execution of a homogeneous-``ncpu`` batch of jobs."""

    def __init__(self, jobs: Sequence[BatchJob],
                 compiled: Sequence[Tuple[CompiledProgram, ...]]) -> None:
        if not jobs:
            raise ValueError("empty batch")
        ncpu = jobs[0].ncpu
        if any(j.ncpu != ncpu for j in jobs):
            raise ValueError("all jobs in one engine must share ncpu")
        self.jobs = list(jobs)
        self.ncpu = ncpu
        self.L = len(jobs)
        self.C = self.L * ncpu
        self.cycle = 0

        # --- events ---------------------------------------------------
        # calendar buckets: cycle -> [(lane, fabric-or-None, fn, args)].
        # Cross-lane order inside a bucket is append order, not the old
        # (lane, seq) heap order — sound because lanes share no state;
        # per-lane order (what bit-exactness needs) is append order too.
        self._buckets: dict = {}
        self._cycle_heap: List[int] = []
        self._stage: List[tuple] = []
        self._stage_key: Optional[Tuple[int, int, int]] = None
        self._stage_n = 0
        self._events_fired = 0

        self._build_tables(compiled)
        self._build_state()
        self._build_lanes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_tables(self, compiled) -> None:
        C, L, ncpu = self.C, self.L, self.ncpu
        progs = [cp for lane in compiled for cp in lane]
        assert len(progs) == C
        P = max(cp.nseq_len for cp in progs)
        M = max(1, max(cp.n_mem for cp in progs))
        A = max(1, max(cp.n_alu for cp in progs))
        self.P, self.M, self.A = P, M, A

        self.PLEN = np.array([cp.nseq_len for cp in progs], dtype=np.int32)
        self.NMEM = np.array([cp.n_mem for cp in progs], dtype=np.int32)

        # per-pc tables, width P+1 so any in-range gather is safe
        self.KIND = np.full((C, P + 1), K_PAD, dtype=np.int8)
        self.MIDX = np.full((C, P + 1), -1, dtype=np.int16)
        self.AIDX = np.full((C, P + 1), -1, dtype=np.int16)
        self.HEADC = np.full((C, P + 1), -1, dtype=np.int8)
        self.VALSTAT = np.zeros((C, P + 1), dtype=np.int64)

        self.MPC = np.zeros((C, M), dtype=np.int16)
        self.MADDR = np.zeros((C, M), dtype=np.int64)
        self.MISL = np.zeros((C, M), dtype=bool)
        self.MISS = np.zeros((C, M), dtype=bool)
        self.MISR = np.zeros((C, M), dtype=bool)
        self.MBDEP = np.full((C, M), -1, dtype=np.int16)
        self.MDDEP = np.full((C, M), -1, dtype=np.int16)
        self.MDVAL = np.zeros((C, M), dtype=np.int64)
        self.MRMW = np.full((C, M), -1, dtype=np.int8)
        self.BLOCK = np.zeros((C, M), dtype=np.uint64)
        self.SBBLOCK = np.zeros((C, M), dtype=np.uint64)
        self.FWD = np.zeros((C, M), dtype=np.uint64)
        self.MTAG: List[Tuple[str, ...]] = []

        self.APC = np.zeros((C, A), dtype=np.int16)
        self.ADEP = np.zeros((C, A), dtype=np.uint64)
        self.AREADY0 = np.zeros(C, dtype=np.uint64)

        for ctx, cp in enumerate(progs):
            n, nm, na = cp.nseq_len, cp.n_mem, cp.n_alu
            self.KIND[ctx, :n] = cp.kind
            self.MIDX[ctx, :n] = cp.midx
            self.AIDX[ctx, :n] = cp.aidx
            self.HEADC[ctx, :n] = cp.headcause
            self.VALSTAT[ctx, :n] = cp.value
            if nm:
                self.MPC[ctx, :nm] = cp.m_pc
                self.MADDR[ctx, :nm] = cp.m_addr
                self.MISL[ctx, :nm] = cp.m_isload
                self.MISS[ctx, :nm] = cp.m_isstore
                self.MISR[ctx, :nm] = cp.m_isrmw
                self.MBDEP[ctx, :nm] = cp.m_base_dep
                self.MDDEP[ctx, :nm] = cp.m_data_dep
                self.MDVAL[ctx, :nm] = cp.m_data_val
                self.MRMW[ctx, :nm] = cp.m_rmw_code
                self.BLOCK[ctx, :nm] = cp.block
                self.SBBLOCK[ctx, :nm] = cp.sbblock
                self.FWD[ctx, :nm] = cp.fwd
            self.MTAG.append(cp.m_tag)
            if na:
                self.APC[ctx, :na] = cp.a_pc
                self.ADEP[ctx, :na] = cp.a_depmask
            self.AREADY0[ctx] = cp.a_init_ready

        # per-ctx scalars derived from the job
        self.IS_SC = np.zeros(C, dtype=bool)
        self.HIT_LAT = [1] * C
        for lane, job in enumerate(self.jobs):
            sc = get_model(job.model_name).name == "SC"
            hl = job.cache_config().hit_latency
            for cpu in range(ncpu):
                ctx = lane * ncpu + cpu
                self.IS_SC[ctx] = sc
                self.HIT_LAT[ctx] = hl

        self.lane_max = np.array([j.max_cycles for j in self.jobs],
                                 dtype=np.int64)

    def _build_state(self) -> None:
        C = self.C
        self.finished = np.zeros(C, dtype=bool)
        self.fetch_halted = np.zeros(C, dtype=bool)
        self.nseq = np.zeros(C, dtype=np.int32)
        self.retired = np.zeros(C, dtype=np.int32)
        self.done = np.zeros((C, self.P + 1), dtype=bool)
        self.value = self.VALSTAT.copy()  # ALU results pre-bound

        self.disp = np.zeros(C, dtype=np.uint64)      # dispatched memops
        self.perf = np.zeros(C, dtype=np.uint64)      # performed memops
        self.sb = np.zeros(C, dtype=np.uint64)        # IN_SB | SB_ISSUED
        self.sbissued = np.zeros(C, dtype=np.uint64)  # SB_ISSUED
        self.ready = np.zeros(C, dtype=np.uint64)     # ready_loads
        self.sig = np.zeros(C, dtype=np.uint64)       # ROB-signalled stores
        self.n_mem_disp = np.zeros(C, dtype=np.int32)
        self.rs_next = np.zeros(C, dtype=np.int32)
        self.addr_occ = np.zeros(C, dtype=bool)
        self.addr_m = np.full(C, -1, dtype=np.int16)
        self.addr_ready = np.zeros(C, dtype=np.int64)

        self.alu_inrs = np.zeros(C, dtype=np.uint64)
        self.alu_ready = self.AREADY0.copy()
        self.exec_aidx = np.full((C, ALU_COUNT), -1, dtype=np.int16)
        self.scan_load = np.zeros(C, dtype=bool)

        self.retired_acc = np.zeros(C, dtype=np.int64)
        self.decoded_acc = np.zeros(C, dtype=np.int64)
        self.cause_acc = np.zeros((C, 7), dtype=np.int64)
        self.rs_stalls_acc = np.zeros(C, dtype=np.int64)
        self.sb_stalls_acc = np.zeros(C, dtype=np.int64)

        self.lane_active = np.ones(self.L, dtype=bool)
        self.lane_cycles = np.full(self.L, -1, dtype=np.int64)
        self.lane_deadlocked = np.zeros(self.L, dtype=bool)
        self.act = np.ones(self.C, dtype=bool)
        self._n_active = self.L

    def _build_lanes(self) -> None:
        self.fabrics: List = []
        self.caches = [None] * self.C
        self.req_ids = [itertools.count(1) for _ in range(self.C)]
        # live LSU accounting: flat accumulators + latency sample lists,
        # folded into a real StatsRegistry only on materialize_stats()
        self.loads_acc = np.zeros(self.C, dtype=np.int64)
        self.stores_acc = np.zeros(self.C, dtype=np.int64)
        self.rmws_acc = np.zeros(self.C, dtype=np.int64)
        self.forwards_acc = np.zeros(self.C, dtype=np.int64)
        self.load_lat: List[List[int]] = [[] for _ in range(self.C)]
        self.store_lat: List[List[int]] = [[] for _ in range(self.C)]
        self._materialized: dict = {}
        for lane, job in enumerate(self.jobs):
            fabric = FastFabric(self, lane, job)
            self.fabrics.append(fabric)
            for cpu in range(self.ncpu):
                self.caches[lane * self.ncpu + cpu] = fabric.caches[cpu]

    def materialize_stats(self, lane: int) -> StatsRegistry:
        """Build the lane's scalar-identical StatsRegistry on demand.

        Fuzz/sweep consumers compare outcomes only, so the registry (70+
        counter objects per lane) is never built unless a caller asks.
        """
        reg = self._materialized.get(lane)
        if reg is not None:
            return reg
        # the fast fabric flushes its plain-int counters on demand
        reg = StatsRegistry()
        materialize_lane_stats(reg, self, lane)
        self.fabrics[lane].flush_stats(reg)
        self._materialized[lane] = reg
        return reg

    # ------------------------------------------------------------------
    # Event plumbing (FastFabric entry point)
    # ------------------------------------------------------------------
    def post(self, lane: int, when: int, fab, fn, args: tuple) -> None:
        """Schedule ``fn(*args)``; ``fab`` non-None marks an in-flight
        network message whose delivery decrements ``fab.in_flight``.

        During tick phases (``_stage_key`` set) the event is staged and
        flushed in scalar per-CPU order afterwards; during the event
        drain it lands in its bucket directly — the scalar ``run_due``
        executes same-cycle chained events within the same drain.
        """
        if self._stage_key is None:
            bucket = self._buckets.get(when)
            if bucket is None:
                bucket = self._buckets[when] = []
                heapq.heappush(self._cycle_heap, when)
            bucket.append((lane, fab, fn, args))
        else:
            _, cpu, rank = self._stage_key
            self._stage.append(
                (lane, cpu, rank, self._stage_n, when, fab, fn, args))
            self._stage_n += 1

    def _flush_staged(self) -> None:
        if not self._stage:
            return
        self._stage.sort(key=lambda t: t[:4])
        buckets = self._buckets
        for lane, _cpu, _rank, _n, when, fab, fn, args in self._stage:
            bucket = buckets.get(when)
            if bucket is None:
                bucket = buckets[when] = []
                heapq.heappush(self._cycle_heap, when)
            bucket.append((lane, fab, fn, args))
        self._stage.clear()

    def _drain_events(self) -> int:
        fired = 0
        cheap = self._cycle_heap
        buckets = self._buckets
        active = self.lane_active
        while cheap and cheap[0] <= self.cycle:
            # handlers may post same-cycle follow-ups: those create a
            # fresh bucket for this cycle, re-pushed and drained by the
            # outer loop (the scalar run_due's same-drain chaining)
            bucket = buckets.pop(heapq.heappop(cheap))
            for lane, fab, fn, args in bucket:
                if not active[lane]:
                    continue  # deadlocked lane's leftovers: drop
                if fab is not None:
                    fab.in_flight -= 1
                fn(*args)
                fired += 1
        return fired

    def _next_event_cycle(self) -> Optional[int]:
        cheap = self._cycle_heap
        active = self.lane_active
        while cheap:
            when = cheap[0]
            bucket = self._buckets.get(when)
            if bucket is not None and any(active[e[0]] for e in bucket):
                return when
            # bucket only holds dead lanes' leftovers: discard it
            heapq.heappop(cheap)
            self._buckets.pop(when, None)
        return None

    # ------------------------------------------------------------------
    # Completion handlers (run in event context)
    # ------------------------------------------------------------------
    def _on_store_done(self, ctx: int, m: int, start: int,
                       _req, value) -> None:
        bit = 1 << m
        if not (int(self.sbissued[ctx]) >> m) & 1:
            return  # stale (cannot happen inside the envelope; guard anyway)
        inv = np.uint64(bit ^ _M64)
        self.perf[ctx] |= np.uint64(bit)
        self.sb[ctx] &= inv
        self.sbissued[ctx] &= inv
        self.store_lat[ctx].append(self.cycle - start)
        if self.MISR[ctx, m]:
            pc = self.MPC[ctx, m]
            self.done[ctx, pc] = True
            self.value[ctx, pc] = value
        # a store leaving the SB (or an RMW binding its value) can
        # unblock a forward-pending ready load
        self.scan_load[ctx] = True

    def _on_load_cb(self, ctx: int, m: int, start: int, _req, value) -> None:
        self._load_done(ctx, m, value, start)

    def _load_done(self, ctx: int, m: int, value: int, start: int) -> None:
        bit = 1 << m
        d = int(self.disp[ctx])
        p = int(self.perf[ctx])
        if not ((d >> m) & 1) or ((p >> m) & 1):
            return  # stale
        self.perf[ctx] |= np.uint64(bit)
        pc = self.MPC[ctx, m]
        self.done[ctx, pc] = True
        self.value[ctx, pc] = value
        self.load_lat[ctx].append(self.cycle - start)
        # the bound value may be a later store's data operand
        self.scan_load[ctx] = True

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _phase_retire(self, finished_pre: np.ndarray) -> Tuple[np.ndarray, int]:
        rc = np.zeros(self.C, dtype=np.int32)
        halted_now = np.zeros(self.C, dtype=bool)
        m = self.act & ~finished_pre
        for it in range(WIDTH):
            m = m & (self.retired < self.nseq)
            idx = np.nonzero(m)[0]
            if idx.size == 0:
                break
            rpc = self.retired[idx]
            k = self.KIND[idx, rpc]
            mi = self.MIDX[idx, rpc]
            mi_safe = np.where(mi >= 0, mi, 0)
            mbit = _bits(mi_safe)
            # signal store/RMW heads (idempotent; happens even when
            # retirement then fails — mirrors Processor._retire)
            sig_sel = (k == K_STORE) | (k == K_RMW)
            if sig_sel.any():
                si = idx[sig_sel]
                self.sig[si] |= mbit[sig_sel]
            perf_bit = (self.perf[idx] & mbit) != 0
            sb_bit = (self.sb[idx] & mbit) != 0
            done_h = self.done[idx, rpc]
            may = np.where(
                k == K_LOAD, done_h,
                np.where(k == K_RMW, perf_bit,
                         np.where(k == K_STORE,
                                  perf_bit | (sb_bit & ~self.IS_SC[idx]),
                                  done_h)))
            ri = idx[may]
            if ri.size:
                self.retired[ri] += 1
                self.retired_acc[ri] += 1
                rc[ri] += 1
                halt = ri[k[may] == K_HALT]
                if halt.size:
                    self.finished[halt] = True
                    halted_now[halt] = True
            # scalar _retire returns on the first failed retirement and
            # after a Halt: iteration 2 only for clean retirers
            nxt = np.zeros(self.C, dtype=bool)
            nxt[ri] = True
            m = nxt & ~halted_now
        return rc, int(rc.sum())

    def _phase_drain_addr(self) -> int:
        if not self.addr_occ.any():
            return 0
        d = self.act & self.addr_occ & (self.cycle >= self.addr_ready)
        idx = np.nonzero(d)[0]
        if idx.size == 0:
            return 0
        mi = self.addr_m[idx].astype(np.int64)
        isload = self.MISL[idx, mi]
        drained = 0
        li = idx[isload]
        if li.size:
            lm = mi[isload]
            self.ready[li] |= _bits(lm)
            self.addr_occ[li] = False
            self.scan_load[li] = True
            drained += li.size
        si = idx[~isload]
        if si.size:
            sm = mi[~isload]
            room = np.bitwise_count(self.sb[si]) < STORE_BUFFER_SIZE
            s_ok = si[room]
            if s_ok.size:
                sm_ok = sm[room]
                self.sb[s_ok] |= _bits(sm_ok)
                self.addr_occ[s_ok] = False
                # a pure store "completes" for ROB purposes at translation
                pure = self.MISS[s_ok, sm_ok]
                ps = s_ok[pure]
                if ps.size:
                    self.done[ps, self.MPC[ps, sm_ok[pure]]] = True
                drained += s_ok.size
            # SB full: silent stall, the address unit stays occupied
        return drained

    def _phase_advance_rs(self, rs_stall_now: np.ndarray) -> int:
        a = self.act & ~self.addr_occ & (self.rs_next < self.n_mem_disp)
        idx = np.nonzero(a)[0]
        if idx.size == 0:
            return 0
        mi = self.rs_next[idx].astype(np.int64)
        bdep = self.MBDEP[idx, mi]
        base_ok = (bdep < 0) | self.done[idx, np.where(bdep >= 0, bdep, 0)]
        idx = idx[base_ok]
        if idx.size == 0:
            return 0  # effective address not computable yet: silent stall
        mi = mi[base_ok]
        pending = self.disp[idx] & ~self.perf[idx]
        stalled = self.MISL[idx, mi] & ((self.BLOCK[idx, mi] & pending) != 0)
        st = idx[stalled]
        if st.size:
            self.rs_stalls_acc[st] += 1
            rs_stall_now[st] = True
        adv = idx[~stalled]
        if adv.size:
            self.rs_next[adv] += 1
            self.addr_occ[adv] = True
            self.addr_m[adv] = mi[~stalled].astype(np.int16)
            self.addr_ready[adv] = self.cycle + 1
        return int(adv.size)

    def _phase_issue_stores(self, sb_stall_now: np.ndarray) -> int:
        if not self.sb.any():
            return 0
        cand = self.sb & ~self.sbissued
        has = self.act & (cand != 0)
        idx = np.nonzero(has)[0]
        if idx.size == 0:
            return 0
        c = cand[idx]
        lsb = c & (_ZERO - c)
        m0 = np.bitwise_count(lsb - _ONE).astype(np.int64)
        sig_ok = (self.sig[idx] & lsb) != 0
        dep = self.MDDEP[idx, m0]
        data_ok = (dep < 0) | self.done[idx, np.where(dep >= 0, dep, 0)]
        blocked = (self.SBBLOCK[idx, m0] & self.sb[idx]) != 0
        # scalar gate order: signalled (silent) -> data (silent) ->
        # earlier-SB consistency block (counted) -> port/cache attempt
        stall = sig_ok & data_ok & blocked
        st = idx[stall]
        if st.size:
            self.sb_stalls_acc[st] += 1
            sb_stall_now[st] = True
        attempt = np.nonzero(sig_ok & data_ok & ~blocked)[0]
        issued = 0
        if attempt.size == 0:
            return 0
        ncpu = self.ncpu
        for ctx, m, d in zip(idx[attempt].tolist(), m0[attempt].tolist(),
                             dep[attempt].tolist()):
            cache = self.caches[ctx]
            if not cache.can_accept():
                continue
            value = int(self.MDVAL[ctx, m]) if d < 0 else int(self.value[ctx, d])
            is_rmw = bool(self.MISR[ctx, m])
            lane, cpu = divmod(ctx, ncpu)
            self._stage_key = (lane, cpu, 0)
            try:
                req = AccessRequest(
                    req_id=next(self.req_ids[ctx]),
                    kind=AccessKind.RMW if is_rmw else AccessKind.STORE,
                    addr=int(self.MADDR[ctx, m]),
                    value=value,
                    rmw_op=(RMW_OPS_BY_CODE[self.MRMW[ctx, m]]
                            if is_rmw else None),
                    generation=1,
                    tag=self.MTAG[ctx][m],
                    callback=partial(self._on_store_done, ctx, m, self.cycle),
                )
                accepted = cache.access(req)
            finally:
                self._stage_key = None
            if accepted:
                self.sbissued[ctx] |= np.uint64(1 << m)
                if is_rmw:
                    self.rmws_acc[ctx] += 1
                else:
                    self.stores_acc[ctx] += 1
                issued += 1
            # rejected: scalar reverts to IN_SB and retries next tick
        return issued

    def _phase_issue_loads(self) -> int:
        if not self.scan_load.any():
            return 0
        sel = self.act & self.scan_load & (self.ready != 0)
        idx = np.nonzero(sel)[0]
        acted = 0
        ncpu = self.ncpu
        for ctx in idx.tolist():
            r = int(self.ready[ctx])
            sbits = int(self.sb[ctx])
            issued_one = False
            rescan = False
            lane, cpu = divmod(ctx, ncpu)
            while r:
                m = (r & -r).bit_length() - 1
                r &= r - 1
                if issued_one:
                    rescan = True
                    break
                fwd = int(self.FWD[ctx, m]) & sbits
                if fwd:
                    match = fwd.bit_length() - 1  # youngest earlier store
                    if self.MISR[ctx, match]:
                        continue  # RMWs do not forward; wait for result
                    d = int(self.MDDEP[ctx, match])
                    if d >= 0 and not self.done[ctx, d]:
                        continue  # store value unknown yet; retry
                    value = (int(self.MDVAL[ctx, match]) if d < 0
                             else int(self.value[ctx, d]))
                    self.ready[ctx] &= np.uint64((1 << m) ^ _M64)
                    self.forwards_acc[ctx] += 1
                    self._stage_key = (lane, cpu, 1)
                    try:
                        self.post(lane, self.cycle + self.HIT_LAT[ctx], None,
                                  self._load_done, (ctx, m, value, self.cycle))
                    finally:
                        self._stage_key = None
                    issued_one = True
                    acted += 1
                    continue
                cache = self.caches[ctx]
                if not cache.can_accept():
                    rescan = True
                    break
                self._stage_key = (lane, cpu, 1)
                try:
                    req = AccessRequest(
                        req_id=next(self.req_ids[ctx]),
                        kind=AccessKind.LOAD,
                        addr=int(self.MADDR[ctx, m]),
                        generation=1,
                        tag=self.MTAG[ctx][m],
                        callback=partial(self._on_load_cb, ctx, m, self.cycle),
                    )
                    accepted = cache.access(req)
                finally:
                    self._stage_key = None
                # scalar removes the op from ready_loads and sets
                # issued_one even when the cache rejects the access (the
                # op is then lost — reproduced deliberately; such lanes
                # deadlock at max_cycles exactly like the scalar kernel)
                self.ready[ctx] &= np.uint64((1 << m) ^ _M64)
                issued_one = True
                acted += 1
                if accepted:
                    self.loads_acc[ctx] += 1
            self.scan_load[ctx] = rescan
        return acted

    def _phase_alu(self) -> int:
        if not self.alu_inrs.any() and not (self.exec_aidx >= 0).any():
            return 0
        acted = 0
        completed = np.zeros(self.C, dtype=bool)
        for slot in range(ALU_COUNT):
            col = self.exec_aidx[:, slot]
            has = self.act & (col >= 0)
            idx = np.nonzero(has)[0]
            if idx.size == 0:
                continue
            ai = col[idx].astype(np.int64)
            self.done[idx, self.APC[idx, ai]] = True
            self.alu_ready[idx] |= self.ADEP[idx, ai]
            col[idx] = -1
            completed[idx] = True
            acted += idx.size
        # an ALU result may be a store's data operand a pending forward waits on
        self.scan_load |= completed & (self.ready != 0)
        avail = self.alu_inrs & self.alu_ready
        for slot in range(ALU_COUNT):
            has = self.act & (avail != 0)
            idx = np.nonzero(has)[0]
            if idx.size == 0:
                break
            a = avail[idx]
            lsb = a & (_ZERO - a)
            ai = np.bitwise_count(lsb - _ONE).astype(np.int16)
            self.exec_aidx[idx, slot] = ai
            self.alu_inrs[idx] &= ~lsb
            avail[idx] &= ~lsb
            acted += idx.size
        return acted

    def _phase_decode(self, finished_pre: np.ndarray) -> int:
        can = self.act & ~finished_pre & ~self.fetch_halted
        advanced = 0
        for it in range(WIDTH):
            can = can & ((self.nseq - self.retired) < ROB_SIZE)
            idx = np.nonzero(can)[0]
            if idx.size == 0:
                break
            pc = self.nseq[idx]
            k = self.KIND[idx, pc]

            pad = idx[k == K_PAD]  # ran off the end (no trailing Halt)
            if pad.size:
                self.fetch_halted[pad] = True
                can[pad] = False

            halt = idx[k == K_HALT]
            if halt.size:
                self.done[halt, self.nseq[halt]] = True
                self.fetch_halted[halt] = True
                self._advance(halt)
                advanced += halt.size
                can[halt] = False

            nop = idx[k == K_NOP]
            if nop.size:
                self.done[nop, self.nseq[nop]] = True
                self._advance(nop)
                advanced += nop.size

            alu = idx[k == K_ALU]
            if alu.size:
                full = np.bitwise_count(self.alu_inrs[alu]) >= ALU_RS_SIZE
                stall = alu[full]
                can[stall] = False
                go = alu[~full]
                if go.size:
                    ai = self.AIDX[go, self.nseq[go]]
                    self.alu_inrs[go] |= _bits(ai)
                    self._advance(go)
                    advanced += go.size

            mem = idx[(k == K_LOAD) | (k == K_STORE) | (k == K_RMW)]
            if mem.size:
                full = (self.n_mem_disp[mem] - self.rs_next[mem]) >= LS_RS_SIZE
                stall = mem[full]
                can[stall] = False
                go = mem[~full]
                if go.size:
                    mi = self.MIDX[go, self.nseq[go]]
                    self.disp[go] |= _bits(mi)
                    self.n_mem_disp[go] += 1
                    self._advance(go)
                    advanced += go.size
        return advanced

    def _advance(self, idx: np.ndarray) -> None:
        self.nseq[idx] += 1
        self.decoded_acc[idx] += 1

    def _lsu_empty(self) -> np.ndarray:
        return ((self.rs_next == self.n_mem_disp)
                & ~self.addr_occ
                & (self.ready == 0)
                & (self.sb == 0)
                & ((self.disp & ~self.perf) == 0))

    def _phase_account(self, finished_pre: np.ndarray, rc: np.ndarray,
                       lsu_empty: np.ndarray) -> np.ndarray:
        cidx = np.full(self.C, -1, dtype=np.int8)
        drained = self.act & finished_pre
        if drained.any():
            cidx[drained] = np.where(lsu_empty[drained], C_IDLE, C_WRITE)
        live = self.act & ~finished_pre
        idx = np.nonzero(live)[0]
        if idx.size:
            rpc = self.retired[idx]
            head_exists = self.nseq[idx] > rpc
            hc = np.where(head_exists, self.HEADC[idx, rpc], -1)
            rob_full = (self.nseq[idx] - rpc) >= ROB_SIZE
            cause = np.where(
                rc[idx] > 0, C_BUSY,
                np.where(hc >= 0, hc,
                         np.where(rob_full, C_ROB_FULL, C_BUSY)))
            cidx[idx] = cause.astype(np.int8)
            self.cause_acc[idx, cause] += 1
        d_idx = np.nonzero(drained)[0]
        if d_idx.size:
            self.cause_acc[d_idx, cidx[d_idx]] += 1
        return cidx

    # ------------------------------------------------------------------
    # Lane lifecycle
    # ------------------------------------------------------------------
    def _deactivate(self, lanes: np.ndarray) -> None:
        for lane in lanes:
            self.lane_active[lane] = False
            lo = lane * self.ncpu
            self.act[lo:lo + self.ncpu] = False
            self._n_active -= 1

    def _check_completion(self, lsu_empty: np.ndarray) -> None:
        ok = self.finished & lsu_empty
        lane_ok = ok.reshape(self.L, self.ncpu).all(axis=1) & self.lane_active
        if not lane_ok.any():
            return
        finished_lanes = []
        for lane in np.nonzero(lane_ok)[0]:
            if self.fabrics[lane].is_quiescent():
                self.lane_cycles[lane] = self.cycle
                finished_lanes.append(lane)
        if finished_lanes:
            self._deactivate(np.array(finished_lanes))

    def _check_deadlock(self) -> None:
        dead = self.lane_active & (self.cycle >= self.lane_max)
        if dead.any():
            lanes = np.nonzero(dead)[0]
            self.lane_deadlocked[lanes] = True
            self._deactivate(lanes)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        while self._n_active:
            self._step()
        # stats stay in the vector accumulators until a caller asks —
        # see materialize_stats()

    def _step(self) -> None:
        self.cycle += 1
        fired = self._drain_events()
        finished_pre = self.finished.copy()
        rs_stall_now = np.zeros(self.C, dtype=bool)
        sb_stall_now = np.zeros(self.C, dtype=bool)

        rc, n_ret = self._phase_retire(finished_pre)
        n_drain = self._phase_drain_addr()
        n_adv = self._phase_advance_rs(rs_stall_now)
        n_store = self._phase_issue_stores(sb_stall_now)
        n_load = self._phase_issue_loads()
        n_alu = self._phase_alu()
        n_dec = self._phase_decode(finished_pre)

        lsu_empty = self._lsu_empty()
        cause_idx = self._phase_account(finished_pre, rc, lsu_empty)
        self._flush_staged()
        self._check_completion(lsu_empty)
        self._check_deadlock()
        if not self._n_active:
            return

        acted = (fired or n_ret or n_drain or n_adv or n_store or n_load
                 or n_alu or n_dec)
        if acted:
            return
        # quiet cycle: every gate is provably cycle-invariant until the
        # next event, unless an ALU is mid-flight or a load scan is armed
        if (self.act & (self.exec_aidx >= 0).any(axis=1)).any():
            return
        if (self.act & self.scan_load & (self.ready != 0)).any():
            return
        nxt = self._next_event_cycle()
        horizon = int(self.lane_max[self.lane_active].min())
        target = horizon if nxt is None else min(nxt, horizon)
        skipped = target - 1 - self.cycle
        if skipped <= 0:
            return
        # bulk-replay the skipped cycles' deterministic accounting
        live = np.nonzero(self.act & (cause_idx >= 0))[0]
        self.cause_acc[live, cause_idx[live]] += skipped
        self.rs_stalls_acc[rs_stall_now & self.act] += skipped
        self.sb_stalls_acc[sb_stall_now & self.act] += skipped
        self.cycle = target - 1
