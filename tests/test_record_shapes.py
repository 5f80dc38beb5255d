"""A dynamic record holds only what it changes.

What an instruction *is* was worked out once, at decode, into its row
(``repro.cpu.decode.Decoded``); a reorder-buffer entry carries that row,
and a station entry and a memory op reach it through their entry.  Where
a memory op *is* in its life is which of the load/store unit's buffers
holds it.  So none of these records repeats a fact of the row or of a
buffer, and there is nothing to keep in step by hand — not on a
rollback, not when a spin sleep renumbers the window.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

import repro.cpu
from repro.coherence.directory import DirEntry, DirState
from repro.consistency.models import get_model
from repro.cpu.decode import Decoded
from repro.cpu.lsu import MemOp
from repro.cpu.rob import Operand, RobEntry
from repro.cpu.units import RsEntry
from repro.isa.assembler import assemble
from repro.system.machine import MachineConfig, Multiprocessor, run_workload
from repro.workloads import critical_section_workload


@pytest.mark.parametrize("record", [RobEntry, RsEntry, MemOp])
def test_no_slot_repeats_the_decode_row(record):
    assert not set(record.__slots__) & set(Decoded.__slots__)


def test_a_station_entry_is_numbered_by_its_entry():
    assert "seq" not in RsEntry.__slots__


def test_a_memory_op_is_the_buffer_that_holds_it():
    # no state enum: the station, the address unit, the issue stage,
    # the store buffer and ``pending`` are its state, plus ``issued``
    assert not [name for name in vars(repro.cpu) if name.endswith("State")]
    assert len(MemOp.__slots__) <= 10
    # the one number a memory op repeats is its entry's: a retired store
    # drains after its entry has left the reorder buffer's window, and a
    # spin sleep renumbers only the window, so from then on the op's
    # number moves on (the spin sleep renumbers its seq field) and the
    # entry's does not
    assert "seq" in MemOp.__slots__


def test_a_directory_entry_state_is_its_owner_and_sharers():
    assert "state" not in {f.name for f in dataclasses.fields(DirEntry)}
    assert DirEntry().state is DirState.UNOWNED
    assert DirEntry(sharers={0, 1}).state is DirState.SHARED
    assert DirEntry(owner=1).state is DirState.EXCLUSIVE
    with pytest.raises(AttributeError):
        DirEntry().state = DirState.SHARED


def test_core_and_load_store_unit_share_their_dict_keys():
    # up to 29 attributes an instance's dict shares its keys with the
    # other instances of its class (CPython 3.11); a machine is built
    # per run configuration, so one more costs every machine ~1.3 KB
    machine = Multiprocessor([assemble("halt")], MachineConfig(
        model=get_model("RC"), enable_prefetch=True,
        enable_speculation=True))
    core = machine.processors[0]
    assert len(vars(core)) <= 29
    assert len(vars(core.lsu)) <= 29
    assert len(vars(core.lsu.cache)) <= 29


def test_a_rollback_leaves_no_reference_cycle():
    # a squashed entry lets go of the station entries waiting on it, so
    # entry -> station entry -> operand -> entry is no cycle the
    # collector has to find; the run's result keeps the machine alive
    wl = critical_section_workload(4, iterations=10)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        result = run_workload(wl.programs, model=get_model("RC"),
                              prefetch=True, speculation=True,
                              initial_memory=wl.initial_memory)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, (RobEntry, RsEntry, Operand))})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert sum(result.stats.counters("cpu").get(f"cpu{cpu}/squash_events", 0)
               for cpu in range(4)) > 0
    assert not leaked
