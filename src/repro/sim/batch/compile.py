"""Static compilation of a program onto the lockstep engine's tables.

The batched engine only admits programs whose *dataflow* is statically
resolvable: straight-line code (the litmus/fuzz universe) where every
register value except load/RMW results is a compile-time constant.
For such programs the out-of-order core's rename/forwarding machinery
collapses to two facts per operand —

* its eventual **value** (precomputed here, or read at runtime from the
  producing load/RMW's slot), and
* its **readiness**, which is exactly "the producing instruction has
  completed" (``done[producer_pc]``), because completion is sticky and
  the scalar ROB resolves an operand the moment its producer's result
  is broadcast.

Programs outside the envelope (branches, ALU inputs fed by loads,
multi-producer ALU operands, >64 memory ops, ...) get a reason from
:func:`job_unsupported_reason` and fall back to the scalar kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...consistency.access_class import classify
from ...consistency.models import ConsistencyModel
from ...isa.instructions import Alu, Halt, Instruction, Load, Nop, Rmw, Store
from ...isa.program import Program
from ...obs.accounting import CAUSES, StallCause

# Instruction kinds (the engine's per-pc dispatch table).
K_ALU = 0
K_LOAD = 1
K_STORE = 2
K_RMW = 3
K_NOP = 4
K_HALT = 5
K_PAD = 6

#: index of each stall cause in the engine's accumulator columns
CAUSE_INDEX = {cause: i for i, cause in enumerate(CAUSES)}
C_BUSY = CAUSE_INDEX[StallCause.BUSY]
C_READ = CAUSE_INDEX[StallCause.READ]
C_WRITE = CAUSE_INDEX[StallCause.WRITE]
C_ACQUIRE = CAUSE_INDEX[StallCause.ACQUIRE]
C_ROB_FULL = CAUSE_INDEX[StallCause.ROB_FULL]
C_IDLE = CAUSE_INDEX[StallCause.IDLE]

#: hard caps from the uint64 bitmask representation
MAX_MEMOPS = 64
MAX_ALUS = 64

_RMW_CODE = {"ts": 0, "swap": 1, "add": 2}
RMW_OPS_BY_CODE = ("ts", "swap", "add")


@dataclass
class CompiledProgram:
    """Per-context SoA tables for one (program, model) pair."""

    nseq_len: int                 # instruction count (including Halt)
    n_mem: int
    n_alu: int
    # per-pc tables, length nseq_len
    kind: np.ndarray              # int8
    midx: np.ndarray              # int16, memop index or -1
    aidx: np.ndarray              # int16, alu index or -1
    headcause: np.ndarray         # int8, accountant cause for a memory head, -1 otherwise
    value: np.ndarray             # int64, static results (ALU), 0 elsewhere
    # per-memop tables, length n_mem
    m_pc: np.ndarray              # int16
    m_addr: np.ndarray            # int64
    m_isload: np.ndarray          # bool (pure load)
    m_isstore: np.ndarray         # bool (pure store)
    m_isrmw: np.ndarray           # bool
    m_base_dep: np.ndarray        # int16 producer pc of the base value, -1
    m_data_dep: np.ndarray        # int16 producer pc of the store/rmw operand, -1
    m_data_val: np.ndarray        # int64 static operand when m_data_dep < 0
    m_rmw_code: np.ndarray        # int8 (ts/swap/add), -1 for non-RMW
    block: np.ndarray             # uint64: earlier memops with delay_arc(e, m)
    sbblock: np.ndarray           # uint64: block restricted to store/rmw sources
    fwd: np.ndarray               # uint64: earlier store/rmw memops at the same address
    m_tag: Tuple[str, ...]        # instruction tags, for AccessRequest fidelity
    # per-alu tables, length n_alu
    a_pc: np.ndarray              # int16
    a_init_ready: np.ndarray      # uint64 scalar mask: alus ready at reset
    a_depmask: np.ndarray         # uint64: dependent alus woken by this alu's completion
    #: access classes per memop — kept on the model-independent core so
    #: specialize_model can rebuild block/sbblock for another model
    m_klass: Tuple = ()


def _program_reason(program: Program) -> Optional[str]:
    # static register walk mirroring compile_core, checks only
    regs: Dict[str, Tuple[Optional[int], Optional[int], str]] = {}
    n_mem = n_alu = 0
    for pc, instr in enumerate(program):
        if isinstance(instr, (Nop, Halt)):
            continue
        if isinstance(instr, Alu):
            if instr.latency != 1:
                return f"ALU latency {instr.latency} at pc {pc}"
            n_alu += 1
            if n_alu > MAX_ALUS:
                return f"more than {MAX_ALUS} ALU ops"
            producers = set()
            srcs = [instr.src1] + ([instr.src2] if instr.src2 is not None else [])
            for reg in srcs:
                val, prod, kind = _read(regs, reg)
                if kind in ("load", "rmw"):
                    return f"ALU source fed by a {kind} at pc {pc}"
                if prod is not None:
                    producers.add(prod)
            if len(producers) > 1:
                return f"ALU with multiple operand producers at pc {pc}"
            _write(regs, instr.dst, 0, pc, "alu")
            continue
        if isinstance(instr, (Load, Store, Rmw)):
            n_mem += 1
            if n_mem > MAX_MEMOPS:
                return f"more than {MAX_MEMOPS} memory ops"
            _, prod, kind = _read(regs, instr.base)
            if kind in ("load", "rmw"):
                return f"memory base fed by a {kind} at pc {pc}"
            if isinstance(instr, (Load, Rmw)):
                _write(regs, instr.dst, None, pc, "load" if isinstance(instr, Load) else "rmw")
            continue
        return f"unsupported instruction {type(instr).__name__} at pc {pc}"
    return None


def _read(regs, reg):
    """(static value or None, producer pc or None, producer kind)."""
    if reg == "r0":
        return 0, None, "init"
    return regs.get(reg, (0, None, "init"))


def _write(regs, reg, value, pc, kind):
    if reg != "r0":
        regs[reg] = (value, pc, kind)


def compile_core(program: Program) -> CompiledProgram:
    """The model-independent compilation: everything except the
    ``block``/``sbblock`` consistency masks (zeroed here).

    A fuzz sweep runs each program under every model; splitting the
    compile lets the per-program instruction walk happen once, with
    :func:`specialize_model` adding the (cheap) model-dependent masks
    per (program, model) pair.
    """
    n = len(program)
    kind = np.full(n, K_PAD, dtype=np.int8)
    midx = np.full(n, -1, dtype=np.int16)
    aidx = np.full(n, -1, dtype=np.int16)
    headcause = np.full(n, -1, dtype=np.int8)
    value = np.zeros(n, dtype=np.int64)

    regs: Dict[str, Tuple[Optional[int], Optional[int], str]] = {}
    mem: List[dict] = []
    alus: List[dict] = []

    for pc, instr in enumerate(program):
        if isinstance(instr, Halt):
            kind[pc] = K_HALT
            continue
        if isinstance(instr, Nop):
            kind[pc] = K_NOP
            continue
        if isinstance(instr, Alu):
            kind[pc] = K_ALU
            aidx[pc] = len(alus)
            producers = set()
            vals = []
            srcs = [instr.src1] + ([instr.src2] if instr.src2 is not None else [])
            for reg in srcs:
                val, prod, _pkind = _read(regs, reg)
                vals.append(val)
                if prod is not None:
                    producers.add(prod)
            a = vals[0]
            b = vals[1] if len(vals) > 1 else (instr.imm or 0)
            result = instr.compute(a, b)
            value[pc] = result
            alus.append({"pc": pc, "dep": producers.pop() if producers else -1})
            _write(regs, instr.dst, result, pc, "alu")
            continue
        # memory
        klass = classify(instr)
        base_val, base_prod, _bk = _read(regs, instr.base)
        m = {
            "pc": pc,
            "addr": base_val + instr.offset,
            "klass": klass,
            "isload": klass.is_load and not klass.is_store,
            "isstore": klass.is_store and not klass.is_load,
            "isrmw": klass.is_load and klass.is_store,
            "base_dep": base_prod if base_prod is not None else -1,
            "data_dep": -1,
            "data_val": 0,
            "rmw_code": -1,
            "tag": instr.describe(),
        }
        if isinstance(instr, (Store, Rmw)):
            dval, dprod, _dk = _read(regs, instr.src)
            if dprod is not None:
                m["data_dep"] = dprod
            else:
                m["data_val"] = dval or 0
            if isinstance(instr, Rmw):
                m["rmw_code"] = _RMW_CODE[instr.op]
        if isinstance(instr, Load):
            kind[pc] = K_LOAD
            headcause[pc] = C_ACQUIRE if instr.is_acquire else C_READ
            _write(regs, instr.dst, None, pc, "load")
        elif isinstance(instr, Store):
            kind[pc] = K_STORE
            headcause[pc] = C_WRITE
        else:
            kind[pc] = K_RMW
            headcause[pc] = C_ACQUIRE if instr.is_acquire else C_WRITE
            _write(regs, instr.dst, None, pc, "rmw")
        midx[pc] = len(mem)
        mem.append(m)

    n_mem, n_alu = len(mem), len(alus)
    m_pc = np.array([m["pc"] for m in mem] or [], dtype=np.int16)
    m_addr = np.array([m["addr"] for m in mem] or [], dtype=np.int64)
    m_isload = np.array([m["isload"] for m in mem] or [], dtype=bool)
    m_isstore = np.array([m["isstore"] for m in mem] or [], dtype=bool)
    m_isrmw = np.array([m["isrmw"] for m in mem] or [], dtype=bool)
    m_base_dep = np.array([m["base_dep"] for m in mem] or [], dtype=np.int16)
    m_data_dep = np.array([m["data_dep"] for m in mem] or [], dtype=np.int16)
    m_data_val = np.array([m["data_val"] for m in mem] or [], dtype=np.int64)
    m_rmw_code = np.array([m["rmw_code"] for m in mem] or [], dtype=np.int8)

    fwd_bits = [0] * n_mem
    for j, m in enumerate(mem):
        for e in range(j):
            if mem[e]["klass"].is_store and mem[e]["addr"] == m["addr"]:
                fwd_bits[j] |= 1 << e
    fwd = np.array(fwd_bits or [], dtype=np.uint64)

    a_pc = np.array([a["pc"] for a in alus] or [], dtype=np.int16)
    a_depmask = np.zeros(n_alu, dtype=np.uint64)
    init_ready = np.uint64(0)
    pc_to_aidx = {int(a["pc"]): i for i, a in enumerate(alus)}
    for i, a in enumerate(alus):
        if a["dep"] < 0:
            init_ready |= np.uint64(1) << np.uint64(i)
        else:
            a_depmask[pc_to_aidx[a["dep"]]] |= np.uint64(1) << np.uint64(i)

    zeros = np.zeros(n_mem, dtype=np.uint64)
    return CompiledProgram(
        nseq_len=n, n_mem=n_mem, n_alu=n_alu,
        kind=kind, midx=midx, aidx=aidx, headcause=headcause, value=value,
        m_pc=m_pc, m_addr=m_addr, m_isload=m_isload, m_isstore=m_isstore,
        m_isrmw=m_isrmw, m_base_dep=m_base_dep, m_data_dep=m_data_dep,
        m_data_val=m_data_val, m_rmw_code=m_rmw_code,
        block=zeros, sbblock=zeros.copy(), fwd=fwd,
        m_tag=tuple(m["tag"] for m in mem),
        a_pc=a_pc, a_init_ready=init_ready, a_depmask=a_depmask,
        m_klass=tuple(m["klass"] for m in mem),
    )


def specialize_model(core: CompiledProgram, model: ConsistencyModel,
                     arc_cache: Optional[dict] = None,
                     mask_cache: Optional[dict] = None) -> CompiledProgram:
    """Fill the model-dependent ``block``/``sbblock`` masks onto a core.

    All model-independent tables are shared with the core (the engine
    only reads them).  ``arc_cache`` optionally memoizes ``delay_arc``
    per (earlier-class, later-class) pair across calls for one model —
    the fuzz universe only has a handful of distinct access classes.
    ``mask_cache`` memoizes the finished mask arrays per access-class
    *sequence*: the masks depend only on ``m_klass`` (never on
    addresses), and a fuzz sweep's thousands of programs collapse onto
    a few hundred distinct class sequences.  Cached arrays are shared
    read-only, matching how the engine consumes them.
    """
    n_mem = core.n_mem
    klasses = core.m_klass
    if mask_cache is not None:
        cached = mask_cache.get(klasses)
        if cached is not None:
            return _with_masks(core, cached[0], cached[1])
    arc = model.delay_arc
    block_bits = [0] * n_mem
    sb_bits = [0] * n_mem
    for j in range(n_mem):
        kj = klasses[j]
        bj = sj = 0
        for e in range(j):
            ke = klasses[e]
            if arc_cache is not None:
                pair = (ke, kj)
                delayed = arc_cache.get(pair)
                if delayed is None:
                    delayed = arc_cache[pair] = arc(ke, kj)
            else:
                delayed = arc(ke, kj)
            if delayed:
                bit = 1 << e
                bj |= bit
                if ke.is_store:
                    sj |= bit
        block_bits[j] = bj
        sb_bits[j] = sj
    block = np.array(block_bits or [], dtype=np.uint64)
    sbblock = np.array(sb_bits or [], dtype=np.uint64)
    if mask_cache is not None:
        mask_cache[klasses] = (block, sbblock)
    return _with_masks(core, block, sbblock)


def _with_masks(core: CompiledProgram, block: np.ndarray,
                sbblock: np.ndarray) -> CompiledProgram:
    """Shallow-copy ``core`` with new masks.

    Equivalent to ``dataclasses.replace(core, block=..., sbblock=...)``
    but without the per-call field introspection — this runs once per
    (program, model) pair on the fuzz hot path.
    """
    cp = CompiledProgram.__new__(CompiledProgram)
    cp.__dict__.update(core.__dict__)
    cp.block = block
    cp.sbblock = sbblock
    return cp


def job_unsupported_reason(job, _memo: Optional[dict] = None) -> Optional[str]:
    """Full-job supportability: techniques, cache config, programs.

    The engine assumes the default :class:`ProcessorConfig` geometry
    (width 2, ROB 32, RS 16/16, store buffer 16, 2 ALUs) — exactly what
    ``run_workload`` uses when no explicit processor config is passed.

    ``_memo`` optionally caches the per-program static walk by program
    identity (the caller must keep the programs alive, as the
    :class:`~repro.sim.batch.runner.BatchRunner` does for one ``run``).
    """
    from ...consistency.models import get_model

    if job.prefetch:
        return "hardware prefetching enabled"
    if job.speculation:
        return "speculative loads enabled"
    cache = job.cache_config()
    if cache.protocol != "invalidate":
        return f"cache protocol {cache.protocol!r}"
    if getattr(cache, "uncached_ranges", ()):
        return "uncached address ranges configured"
    try:
        get_model(job.model_name)
    except KeyError as exc:
        return str(exc)
    for tid, program in enumerate(job.programs):
        if _memo is not None:
            key = id(program)
            if key in _memo:
                reason = _memo[key]
            else:
                reason = _memo[key] = _program_reason(program)
        else:
            reason = _program_reason(program)
        if reason is not None:
            return f"T{tid}: {reason}"
    return None
