"""The dynamically scheduled processor (paper, Figure 3).

A Johnson-style out-of-order core: instructions are fetched and decoded
in program order, renamed through the reorder buffer, dispatched to
per-unit reservation stations, executed out of order, and retired in
order.  Conditional branches are predicted and executed past; the
rollback machinery that repairs mispredictions is reused verbatim for
speculative-load corrections — which is the paper's central
implementation argument (Section 4.2: "the correction mechanism for the
branch prediction machinery can easily be extended to handle correction
for speculative load accesses").
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional

from ..isa.instructions import Alu
from ..isa.program import Program
from ..isa.registers import RegisterFile
from ..memory.cache import LockupFreeCache
from ..obs.accounting import CycleAccountant
from ..sim.kernel import Component, Simulator
from ..sim.state import (FIXED, Numbering, Part, Seq, Shift, Value, Watched,
                         period_key, renumber, reset)
from ..sim.trace import TraceRecorder
from .branch import BranchPredictor
from .config import ProcessorConfig
from .decode import ALU, BRANCH, HALT, JUMP, TO_LSU, Decoded, decode_table
from .lsu import LoadStoreUnit
from .rob import Operand, ReorderBuffer, RobEntry
from .spin import Books, Period, Point, SpinWatch
from .units import AluUnit, BranchUnit


def _reason_slug(reason: str) -> str:
    """A squash reason as a stable stat-name component."""
    return reason.replace(" ", "_").replace("/", "_")


class Processor(Component):
    """One core executing one program against its coherent cache."""

    #: a reset puts the core at the program's first instruction with
    #: every buffer empty, running as its ``config`` says (which may
    #: differ from the wired one only in the consistency model and the
    #: technique flags: the buffers keep their sizes)
    STATE = dict(
        cpu_id=FIXED, sim=FIXED, program=FIXED, _runs=FIXED, _rows=FIXED,
        _runs_end=FIXED, trace=FIXED, name=FIXED, stat_retired=FIXED,
        stat_decoded=FIXED, stat_squashed=FIXED, stat_squashes=FIXED,
        stat_mispredicts=FIXED, stat_squash_depth=FIXED, config=FIXED,
        regfile=Value(RegisterFile, copy=RegisterFile.values),
        rob=Part(), predictor=Part(), alu_unit=Part(), branch_unit=Part(),
        lsu=Part(), accountant=Part(),
        pc=Value(0), _next_seq=Seq(0),
        #: a Halt has been fetched (maybe speculatively); it has retired
        fetch_halted=Value(False), finished=Value(False),
        #: what the last tick bumped if it moved nothing, else None
        _idle_counters=Value(None),
        #: squash_reason/<slug> counters, each created at its first squash
        _stat_squash_reason=Value(dict, copy=tuple),
        #: spin sleep (:meth:`next_wake`), from the first mispredict on
        _spin=Watched(None))

    def __init__(
        self,
        cpu_id: int,
        sim: Simulator,
        program: Program,
        cache: LockupFreeCache,
        config: Optional[ProcessorConfig] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.sim = sim
        self.program = program
        # the runs stay in their table: up to 29 attributes, CPython
        # shares the keys of the instances' dicts, and a machine is built
        # per run configuration
        self._runs = table = decode_table(program)
        self._rows = table.rows
        #: no chain sleep from this pc on (0: the program has no run)
        self._runs_end = table.run_lasts[-1] if table.run_lasts else 0
        self.config = config = config or ProcessorConfig()
        self.trace = trace or TraceRecorder(enabled=False)
        self.name = f"cpu{cpu_id}"

        self.rob = ReorderBuffer(config.rob_size)
        self.predictor = BranchPredictor()
        self.alu_unit = AluUnit(config.alu_rs_size, config.alu_count,
                                self._on_alu_complete)
        self.branch_unit = BranchUnit(config.alu_rs_size,
                                      self._on_branch_resolve)
        self.lsu = LoadStoreUnit(cpu_id, sim, cache, self.rob, self,
                                 trace=self.trace)

        s = sim.stats
        self.stat_retired = s.counter(f"{self.name}/instructions_retired")
        self.stat_decoded = s.counter(f"{self.name}/instructions_decoded")
        self.stat_squashed = s.counter(f"{self.name}/instructions_squashed")
        self.stat_squashes = s.counter(f"{self.name}/squash_events")
        self.stat_mispredicts = s.counter(f"{self.name}/branch_mispredicts")
        self.stat_squash_depth = s.histogram(f"{self.name}/squash_depth")
        self.accountant = CycleAccountant(s, self.name)
        reset(self)

    # ------------------------------------------------------------------
    # Per-cycle pipeline (reverse dataflow order)
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        # a unit with no work is not entered: an empty load/store unit's
        # tick would return False with nothing in ``stalled``, an empty
        # branch unit's False
        lsu = self.lsu
        stalled: tuple = ()
        if self.finished:
            # the program has retired, but stores already signalled may
            # still be draining from the store buffer (RC/WC/PC)
            moved = False
            if not lsu.is_empty():
                moved = lsu.tick(cycle)
                stalled = lsu.stalled
            blame = self.accountant.account_drained(lsu.is_empty())
        else:
            retired_before = self.stat_retired.value
            moved = self._retire(cycle)
            if not lsu.is_empty():
                moved |= lsu.tick(cycle)
                stalled = lsu.stalled
            if self.branch_unit.ready:
                moved |= self.branch_unit.tick(cycle)
            moved |= self.alu_unit.tick(cycle)
            moved |= self._decode(cycle)
            blame = self.accountant.account(
                retired=self.stat_retired.value - retired_before,
                head=self.rob.head(),
                rob_full=self.rob.full,
            )
        self._idle_counters = None if moved else (blame, *stalled)
        if self._spin is not None:
            spin = self._spin
            if spin.armed or spin.readings is not None:
                self._watch_spin(cycle)

    def is_quiescent(self) -> bool:
        return self.finished and self.lsu.is_empty()

    # ------------------------------------------------------------------
    # Sleep protocol (the kernel ticks only the cores that are due)
    # ------------------------------------------------------------------
    def next_wake(self, cycle: int) -> int:
        """Earliest future cycle this core's tick would change state
        other than as :meth:`skip_cycles` does it.

        Three kinds of sleep.  After a tick in which no stage moved
        anything, observed, not predicted: the core is stalled on state
        only a delivery to this core can change — each of which wakes
        it, see :meth:`LoadStoreUnit._waking` — so the next tick would
        repeat it, bumping the same counters (:meth:`skip_cycles`
        replays them), until the one clock-driven change left, an
        in-flight ALU completion.

        After a tick that moved, keep ticking — unless the core is in a
        run of one self-dependent ``add`` (a start skew), in the shape
        :meth:`_chain_span` checks.  There each tick is predicted: it
        slides the whole window one instruction down the run, which
        :meth:`_shift` does for any number of ticks at once, so the
        core sleeps until dispatch would reach the run's last row.

        Or unless the core is in a steady spin: :meth:`_watch_spin`
        saw its whole state come round to itself, up to numbering and
        clocks, one period after the last time.  With no input, each
        period then repeats the last, so the core sleeps through whole
        periods (:meth:`_skip_periods` applies them in one go), until
        the last period boundary before the first message to its cache
        lands (:meth:`_spin_sleep`) — its only input.
        """
        if self._spin is not None:
            spin = self._spin
            if spin.found:
                return self._spin_sleep(cycle)
            if spin.readings is not None:
                return cycle + 1  # a period is being recorded, every tick
        if self._idle_counters is not None:
            return self.alu_unit.next_completion()
        if self.pc < self._runs_end:
            return cycle + 1 + self._chain_span(cycle)
        return cycle + 1

    def skip_cycles(self, skipped: int) -> None:
        if self._spin is not None and self._spin.asleep:
            self._skip_periods(skipped)
            return
        idle = self._idle_counters
        if idle is None:
            # a tick that moved is followed by a sleep only in a run
            self._shift(skipped)
            return
        for counter in idle:
            counter.inc(skipped)

    # ------------------------------------------------------------------
    # Chain sleep: a run of one self-dependent add
    # ------------------------------------------------------------------
    def _chain_span(self, cycle: int) -> int:
        """Cycles from ``cycle`` on in which each tick would only slide
        the window one instruction down a run of one self-dependent
        ``add``; 0 unless the core is in the shape that guarantees it.

        The shape: the next row to dispatch and the one before it lie
        in one run (:attr:`DecodeTable.run_firsts`); the reorder buffer
        holds only that row, in order, one entry done at its head, one
        finishing next cycle and a full station of the rest, none
        ready, with room left; nothing else is in flight (load/store
        and branch units empty), nothing is traced.  Each tick then
        retires the head, completes the next, issues the one after,
        and dispatches one row — the second dispatch finds the station
        full, so the span stops where that second row would leave the
        run.
        """
        pc = self.pc
        runs = self._runs
        run = bisect_right(runs.run_firsts, pc - 1) - 1
        if run < 0:
            return 0
        span = runs.run_lasts[run] - pc
        if (span <= 0 or self.finished or self.fetch_halted
                or self.trace.enabled
                or not self.alu_unit.is_chained(cycle)):
            return 0
        rob = self.rob
        if (len(rob) != self.alu_unit.rs_size + 2 or rob.full
                or self.branch_unit.rs or not self.lsu.is_empty()
                or not rob.holds_run(self._rows[pc], self._next_seq, pc)):
            return 0
        return span

    def _shift(self, n: int) -> None:
        """Apply ``n`` ticks of the shape :meth:`_chain_span` found.

        Each tick is the same function of the state, and the state it
        leaves differs from the one it found only by one instruction:
        every number, address and counter one on, every value in the
        run one ``imm`` on.  So ``n`` of them are that difference ``n``
        times over, applied to each component's own state.
        """
        head = self.rob.head()
        assert head is not None and head.value is not None
        instr = head.row.instr
        assert isinstance(instr, Alu) and instr.imm is not None
        imm = instr.imm
        # the last of the n retirements writes the head's value n-1 on
        self.regfile.write(instr.dst, head.value + (n - 1) * imm)
        self.rob.shift(n, n * imm)
        self.alu_unit.shift(n, n * imm)
        self.pc += n
        self._next_seq += n
        self.stat_retired.inc(n)
        self.stat_decoded.inc(n)
        self.accountant.account_retiring(n)

    # ------------------------------------------------------------------
    # Spin sleep: a period of ticks that comes round to itself
    # ------------------------------------------------------------------
    def _arm_spin(self) -> None:
        """A branch mispredicted: a spin may have begun.  Not while the
        kernel ticks every cycle, nor while every event is recorded."""
        spin = self._spin
        if spin is None:
            if (not self.sim.fast_forward or self.trace.enabled
                    or self.lsu.sc_detector is not None):
                return
            # the books are every statistic this core and its cache
            # write, of this run's registry
            spin = self._spin = SpinWatch(Books(
                self.sim.stats, (f"{self.name}/", f"{self.lsu.cache.name}/")))
        spin.armed = True

    def _watch_spin(self, cycle: int) -> None:
        """After a tick that follows a mispredict (or records a period):
        keep the books of a period under test, and at a *keyed point* —
        the first tick after a mispredict at whose end none of this
        node's events is pending — compare the period that ended there
        with the one before.

        Two periods of the same shape (refetch pc, cycles, instructions,
        cache requests) make the core key its state there and record the next period's
        books tick by tick.  If that one ends in the same key, with no
        message sent or received on the way, it is what follows a state
        with that key: :attr:`SpinWatch.period`, and the core may sleep
        (:attr:`SpinWatch.found`) at this and at every later keyed point
        with that key."""
        spin = self._spin
        books = spin.books
        readings = spin.readings
        cache = self.lsu.cache
        if readings is not None:
            readings.append(books.read())
        if not spin.armed or cache.events_until > cycle:
            if readings is not None and len(readings) > spin.shape[1] + 1:
                spin.readings = None  # the period did not come round
            return
        spin.armed = False
        point = Point(cycle, self._next_seq, self.lsu.next_req_id,
                      cache.lru_clock, cache.messages, cache.waiting())
        last = spin.at
        shape = (None if last is None
                 else (self.pc, cycle - last.cycle, point.seq - last.seq,
                       point.req - last.req))
        key = None
        if shape is not None and shape == spin.shape and shape[2] > 0:
            # the core's whole state with its cache's CPU side: two equal
            # keys one period apart mean the periods after them are the
            # same (:class:`~repro.sim.state.Numbering`)
            lsu = self.lsu
            num = Numbering(self._next_seq, lsu.next_req_id,
                            self._next_seq - 2 * shape[2], cycle,
                            self.rob.live, lsu.live_requests())
            key = (period_key(self, num), period_key(cache, num))
        if key is None or key != spin.key:
            spin.period = None
        elif (readings is not None and len(readings) == shape[1] + 1
              and len(self.sim.stats) == spin.size
              and point.messages == last.messages):
            spin.period = Period(books, readings, last, point,
                                 cache.stamps_since(last.clock),
                                 cache.merged_since(last.waiting))
        spin.found = spin.period is not None
        spin.at, spin.shape, spin.key = point, shape, key
        spin.readings = None
        if key is not None and spin.period is None:
            spin.readings = [readings[-1] if readings else books.read()]
            spin.size = len(self.sim.stats)

    def _spin_sleep(self, cycle: int) -> int:
        """Sleep through as many whole periods as end before the first
        message in flight to this core's cache lands and before the run
        ends; a message sent later moves the wake forward
        (:meth:`_on_arrival`).  That needs every message to take longer
        than a period and a cycle: then the last boundary before an
        arrival is never in the past when it is sent."""
        spin = self._spin
        spin.found = False
        cycles = spin.period.cycles
        cache = self.lsu.cache
        net = cache.net
        # the core must tick, and so settle its books, before whatever
        # lands on its cache: events run before the ticks of a cycle
        bound = self.sim.horizon
        arrival = net.next_arrival(cache.node)
        if arrival is not None and arrival <= bound:
            bound = arrival - 1
        periods = (bound - cycle - 1) // cycles
        if net.floor <= cycles + 1 or periods < 1:
            return cycle + 1
        spin.asleep = True
        spin.start = cycle
        spin.wake = cycle + 1 + periods * cycles
        net.watch(cache.node, self._on_arrival)
        return spin.wake

    def _on_arrival(self, arrival: int) -> None:
        """A message to this core's cache lands at ``arrival``: wake at
        the last period boundary before it, if that is sooner."""
        spin = self._spin
        cycles = spin.period.cycles
        start = spin.start
        wake = start + 1 + (arrival - start - 2) // cycles * cycles
        if wake < spin.wake:
            spin.wake = wake
            self.sim.wake(self, by=wake)

    def _skip_periods(self, skipped: int) -> None:
        """Apply ``skipped`` cycles of the spin: the whole periods as one
        shift of the state — every number, request id, cycle and LRU
        stamp moves on by a period's worth times their number, and the
        books count each period's additions that often — and a partial
        period, left only when a run ends in mid-sleep, to the books
        alone.  The core wakes at a keyed point with the key it fell
        asleep with."""
        spin = self._spin
        period = spin.period
        periods, rest = divmod(skipped, period.cycles)
        cache = self.lsu.cache
        if periods:
            # what the last two periods decoded moves on, what is older
            # stays; the lines a period touches go where the last one
            # leaves them
            ticks = periods * period.ticks
            shift = Shift(self._next_seq - 2 * period.seqs,
                          periods * period.seqs, periods * period.reqs,
                          periods * period.cycles, ticks, period.stamps,
                          cache.lru_clock + ticks - period.ticks, set())
            renumber(self, shift)
            renumber(cache, shift)
            cache.add_merged(period.merged, periods)
        period.count(periods, rest)
        cache.net.watch(cache.node, None)
        spin.asleep = False
        spin.at = period.after(spin.at, periods)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _retire(self, cycle: int) -> bool:
        """Retire up to ``width`` instructions; True when one retired or
        a store head was signalled (which happens exactly once)."""
        moved = False
        rob = self.rob
        for _ in range(self.config.width):
            head = rob.head()
            if head is None:
                break
            row = head.row
            if row.signals_store and not head.signalled:
                head.signalled = True  # the store buffer may issue it
                moved = True
            if row.is_memory:
                if not self.lsu.may_retire(head):
                    break
            elif not head.done:
                break
            rob.retire_head()
            moved = True
            self.stat_retired.inc()
            if self.trace.enabled:
                instr = row.instr
                acq = getattr(instr, "is_acquire", False)
                rel = getattr(instr, "is_release", False)
                sync = {(True, True): "full", (True, False): "acquire",
                        (False, True): "release"}.get((acq, rel))
                extra = {"sync": sync} if sync else {}
                self.trace.record(
                    cycle, self.name, "retire",
                    seq=head.seq, pc=head.pc,
                    op=type(instr).__name__.lower(),
                    bound=head.value is not None, **extra)
            if row.dst is not None and head.value is not None:
                self.regfile.write(row.dst, head.value)
            if row.is_halt:
                self.finished = True
                if self.trace.enabled:
                    self.trace.record(cycle, self.name, "finished")
                break
        return moved

    # ------------------------------------------------------------------
    # Decode / rename / dispatch
    # ------------------------------------------------------------------
    def _operand(self, reg: str) -> Operand:
        """``reg`` as a source: its value if it has one now, else bound
        to the in-flight entry that will produce it."""
        if reg == "r0":
            return Operand(value=0)
        producer = self.rob.producer_of(reg)
        if producer is None:
            return Operand(value=self.regfile.read(reg))
        if producer.done and producer.value is not None:
            return Operand(value=producer.value)
        return Operand(producer=producer)

    def _decode(self, cycle: int) -> bool:
        """Dispatch up to ``width`` instructions; True when one was
        decoded (a Halt too, though :meth:`_dispatch` returns False for
        it) or ``fetch_halted`` was latched."""
        if self.fetch_halted:
            return False
        first_seq = self._next_seq
        rows = self._rows
        # only a dispatch fills the window or halts fetch in here, and a
        # dispatch that halts fetch ends the loop
        room = self.rob.size - len(self.rob)
        for _ in range(min(self.config.width, room)):
            if not 0 <= self.pc < len(rows):
                self.fetch_halted = True
                return True
            if not self._dispatch(rows[self.pc]):
                break
        return self._next_seq != first_seq

    def _dispatch(self, row: Decoded) -> bool:
        """Rename and dispatch the instruction at ``pc``, decoded as
        ``row``; False when a structural stall occurs."""
        seq = self._next_seq
        pc = self.pc
        kind = row.kind
        instr = row.instr

        if kind == ALU:
            if self.alu_unit.rs_full:
                return False
            operands = [self._operand(instr.src1)]
            if instr.src2 is not None:
                operands.append(self._operand(instr.src2))
            entry = RobEntry(seq, pc, row)
            self.rob.allocate(entry)
            self.alu_unit.dispatch(entry, operands)
            self._advance(seq, pc + 1)
            return True

        if kind in TO_LSU:
            if self.lsu.rs_full:
                return False
            base = self._operand(instr.base)
            data = (self._operand(instr.src) if row.signals_store else None)
            entry = RobEntry(seq, pc, row)
            self.rob.allocate(entry)
            self.lsu.dispatch(entry, base, data)
            self._advance(seq, pc + 1)
            return True

        if kind == BRANCH:
            if self.branch_unit.rs_full:
                return False
            operand = self._operand(instr.cond)
            taken = self.predictor.predict(pc, instr)
            next_pc = row.target_pc if taken else pc + 1
            entry = RobEntry(seq, pc, row, predicted_taken=taken,
                             predicted_next_pc=next_pc)
            self.rob.allocate(entry)
            self.branch_unit.dispatch(entry, [operand])
            self._advance(seq, next_pc)
            return True

        # jump, nop, halt: nothing to execute, done at decode
        self.rob.allocate(RobEntry(seq, pc, row, done=True))
        if kind == JUMP:
            self._advance(seq, row.target_pc)
            return True
        self._advance(seq, pc + 1)
        if kind == HALT:
            self.fetch_halted = True
            return False
        return True

    def _advance(self, seq: int, next_pc: int) -> None:
        self._next_seq = seq + 1
        self.pc = next_pc
        self.stat_decoded.inc()

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _on_alu_complete(self, entry: RobEntry, value: int) -> None:
        self.rob.mark_done(entry.seq, value)

    def _on_branch_resolve(self, entry: RobEntry, taken: bool) -> None:
        actual_next = entry.row.target_pc if taken else entry.pc + 1
        entry.resolved_next_pc = actual_next
        self.rob.mark_done(entry.seq, None)
        self.predictor.update(entry.pc, entry.row.instr, taken)
        if actual_next != entry.predicted_next_pc:
            self._arm_spin()
            self.stat_mispredicts.inc()
            if self.trace.enabled:
                self.trace.record(self.sim.cycle, self.name, "mispredict",
                                  pc=entry.pc, taken=taken)
            self.squash_from(entry.seq + 1, actual_next, "branch mispredict")

    # ------------------------------------------------------------------
    # Rollback — shared by branches and speculative loads
    # ------------------------------------------------------------------
    def squash_from(self, seq: int, refetch_pc: int, reason: str) -> None:
        """Discard ROB entry ``seq`` and everything younger, clear all
        buffers of the discarded work, and restart fetch at
        ``refetch_pc`` (Section 4.2's correction mechanism)."""
        discarded = self.rob.squash_from(seq)
        if not discarded and self.pc == refetch_pc:
            return
        squashed = set(discarded)
        self.alu_unit.squash(squashed)
        self.branch_unit.squash(squashed)
        self.lsu.squash(discarded)
        self.pc = refetch_pc
        self.fetch_halted = False
        self.finished = False
        self.stat_squashes.inc()
        self.stat_squashed.inc(len(squashed))
        self.stat_squash_depth.add(len(squashed))
        counter = self._stat_squash_reason.get(reason)
        if counter is None:
            counter = self._stat_squash_reason[reason] = self.sim.stats.counter(
                f"{self.name}/squash_reason/{_reason_slug(reason)}")
        counter.inc()
        self.accountant.note_squash()
        if self.trace.enabled:
            self.trace.record(self.sim.cycle, self.name, "squash",
                              count=len(squashed), from_seq=seq,
                              refetch_pc=refetch_pc, reason=reason)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finished

    def snapshot(self) -> Dict[str, object]:
        """Buffer contents for Figure 5-style traces."""
        out: Dict[str, object] = {
            "rob": [e.describe() for e in self.rob.entries()],
            "pc": self.pc,
        }
        out.update(self.lsu.snapshot())
        return out
