"""BatchRunner: route job lists onto the lockstep engine.

The runner is the public face of ``repro.sim.batch``: it takes a list
of :class:`~repro.system.jobs.BatchJob`, runs everything it can on
the vectorized :class:`~repro.sim.batch.engine.BatchEngine`, and falls
back to :func:`~repro.system.jobs.run_scalar` for anything outside the
engine's envelope (techniques on, branches, dynamic addressing, an
archtrace asked for, ...) or any lane that deadlocks — the scalar rerun
reproduces the genuine :class:`~repro.sim.errors.DeadlockError` with
the identical cycle.  Results always come back in input order, one per
job, regardless of how jobs were grouped or which backend ran them.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ...consistency.models import get_model
from ...system.jobs import BatchJob, BatchResult, run_scalar
from .compile import (CompiledProgram, compile_core, job_unsupported_reason,
                      specialize_model)
from .engine import BatchEngine


class _CompileCache:
    """Per-``run`` compile memoization, keyed by program identity.

    Three layers: model-independent cores (one instruction walk per
    program object), specialized tables per (program, model), and
    ``delay_arc`` verdicts per model (the fuzz universe has only a
    handful of distinct access-class pairs).  A fuzz sweep's model x
    run-config grid collapses onto one core walk + four cheap
    specializations per program.
    """

    __slots__ = ("cores", "specialized", "arcs", "masks")

    def __init__(self) -> None:
        self.cores: Dict[int, CompiledProgram] = {}
        self.specialized: Dict[Tuple[int, str], CompiledProgram] = {}
        self.arcs: Dict[str, dict] = {}
        self.masks: Dict[str, dict] = {}

    def get(self, program, model) -> CompiledProgram:
        key = (id(program), model.name)
        cp = self.specialized.get(key)
        if cp is None:
            core = self.cores.get(id(program))
            if core is None:
                core = self.cores[id(program)] = compile_core(program)
            cp = specialize_model(core, model,
                                  self.arcs.setdefault(model.name, {}),
                                  self.masks.setdefault(model.name, {}))
            self.specialized[key] = cp
        return cp


class BatchRunner:
    """Runs heterogeneous job lists, batching what the engine supports.

    Jobs are grouped by CPU count (one engine per group — the SoA
    tables need a homogeneous context grid); models, technique-free
    machine configs, and max_cycles may vary per lane.  Compilation is
    memoized per ``(program identity, model)`` within one ``run`` call,
    which collapses the fuzz harness's model x run-config sweeps onto a
    handful of compiles.
    """

    #: lanes per engine instance.  Every vectorized phase touches the
    #: whole context grid each step, so lanes that finished early keep
    #: costing until the entire engine drains; capping the group keeps
    #: the grid small relative to the live-lane count.  Empirically flat
    #: between 128 and 512 on fuzz mixes; results are chunking-invariant
    #: (lanes never interact), which the property suite pins down.
    chunk_size: int = 512

    def __init__(self, force_scalar: bool = False,
                 chunk_size: Optional[int] = None) -> None:
        self.force_scalar = force_scalar
        if chunk_size is not None:
            self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[BatchJob]) -> List[BatchResult]:
        jobs = list(jobs)
        results: List[Optional[BatchResult]] = [None] * len(jobs)
        groups: Dict[int, List[Tuple[int, BatchJob]]] = {}
        # strong refs (jobs) keep id()-keyed memoization sound for this
        # call: model-independent cores per program, model masks per
        # (program, model), delay_arc verdicts per model
        compile_cache = _CompileCache()
        reason_cache: Dict[int, Optional[str]] = {}

        for i, job in enumerate(jobs):
            reason = None if not self.force_scalar else "forced scalar"
            if reason is None:
                reason = job_unsupported_reason(job, reason_cache)
            if reason is not None:
                results[i] = run_scalar(job, reason=reason)
            else:
                groups.setdefault(job.ncpu, []).append((i, job))

        step = max(1, self.chunk_size)
        for _ncpu, members in sorted(groups.items()):
            for lo in range(0, len(members), step):
                chunk = members[lo:lo + step]
                idxs = [i for i, _ in chunk]
                batch = [job for _, job in chunk]
                for i, res in zip(idxs,
                                  self._run_batched(batch, compile_cache)):
                    results[i] = res
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    def _run_batched(self, batch: List[BatchJob],
                     compile_cache: "_CompileCache") -> List[BatchResult]:
        compiled = []
        for job in batch:
            model = get_model(job.model_name)
            compiled.append(tuple(compile_cache.get(program, model)
                                  for program in job.programs))

        try:
            engine = BatchEngine(batch, compiled)
            engine.run()
        except Exception:
            # engine bug or unanticipated envelope escape: never lose a
            # result — rerun the whole group on the reference kernel
            return [run_scalar(job, backend="scalar-fallback",
                               reason="engine error")
                    for job in batch]

        out = []
        for lane, job in enumerate(batch):
            if engine.lane_deadlocked[lane]:
                # reproduce the genuine DeadlockError (identical cycle,
                # identical message) on the reference kernel
                out.append(run_scalar(job, backend="scalar-fallback",
                                      reason="deadlock"))
                continue
            out.append(BatchResult(
                job=job,
                backend="batched",
                cycles=int(engine.lane_cycles[lane]),
                _stats_thunk=partial(engine.materialize_stats, lane),
                _read_word=engine.fabrics[lane].read_word,
            ))
        return out
