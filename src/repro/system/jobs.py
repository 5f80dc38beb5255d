"""One simulator leg as data, and the one way product code runs it.

A :class:`BatchJob` captures the arguments of
:func:`repro.system.machine.run_workload` as plain picklable values, so
one job <=> one scalar ``run_workload`` call; :func:`run_scalar` makes
that call and wraps what came back in a :class:`BatchResult`.  Every
simulator leg of the product — the fuzz harness, the localizer and the
job server's workers — runs this way; :func:`run_rearmed` runs a
sequence of them with one machine per group of jobs that differ only in
model and technique flags.

Nothing here imports numpy.  The numpy lockstep engine takes the same
jobs and returns the same result type (it re-exports both); only its
own tests and the benchmark load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..consistency.models import get_model
from ..isa.program import Program
from ..memory.types import CacheConfig
from ..sim.stats import StatsRegistry
from ..sim.trace import TraceRecorder
from .machine import Multiprocessor, RunResult, run_machine, run_workload

#: the fields :meth:`Multiprocessor.reset` re-arms a machine for
_LEG_FIELDS = ("model_name", "prefetch", "speculation")


@dataclass
class BatchJob:
    """One independent simulation: the arguments of ``run_workload``.

    ``model_name`` is the consistency model by name (``"SC"``, ``"PC"``,
    ``"WC"``, ``"RC"``, ...) so jobs stay picklable for sweep workers.
    """

    programs: Tuple[Program, ...]
    model_name: str = "SC"
    prefetch: bool = False
    speculation: bool = False
    miss_latency: int = 100
    initial_memory: Optional[Dict[int, int]] = None
    warm_lines: Sequence[Tuple[int, int, bool]] = ()
    cache: Optional[CacheConfig] = None
    max_cycles: int = 1_000_000
    #: opaque caller cookie carried through to the result (job routing)
    key: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.programs = tuple(self.programs)

    @property
    def ncpu(self) -> int:
        return len(self.programs)

    def cache_config(self) -> CacheConfig:
        return self.cache if self.cache is not None else CacheConfig()

    def machine_shape(self) -> tuple:
        """Every compared field but the ones a re-arm changes: jobs
        with equal shapes can run one after another on one machine."""
        return tuple(getattr(self, f.name) for f in fields(self)
                     if f.compare and f.name not in _LEG_FIELDS)


@dataclass
class BatchResult:
    """Outcome of one job: mirrors what ``run_workload`` exposes.

    ``error`` carries the exception a scalar run would have raised
    (``DeadlockError`` for a hung lane); callers decide when to raise
    so batched sweeps can keep ordering semantics identical to serial
    scalar loops.
    """

    job: BatchJob
    backend: str  # "batched" | "scalar" | "scalar-fallback"
    cycles: Optional[int] = None
    error: Optional[BaseException] = None
    unsupported_reason: Optional[str] = None
    _stats: Optional[StatsRegistry] = field(
        default=None, repr=False, compare=False)
    _stats_thunk: Optional[Callable[[], StatsRegistry]] = field(
        default=None, repr=False, compare=False)
    _read_word: Optional[Callable[[int], int]] = field(
        default=None, repr=False, compare=False)

    @property
    def stats(self) -> Optional[StatsRegistry]:
        """Lane statistics, materialized on first access.

        Batched lanes keep their stats in the engine's packed
        accumulators; building the scalar-shaped ``StatsRegistry`` is
        deferred so outcome-only consumers (the fuzz harness) never pay
        for it.
        """
        if self._stats is None and self._stats_thunk is not None:
            self._stats = self._stats_thunk()
        return self._stats

    @property
    def ok(self) -> bool:
        return self.error is None

    def read_word(self, addr: int) -> int:
        if self._read_word is None:
            raise RuntimeError("no final memory available (job errored)")
        return self._read_word(addr)

    def raise_if_error(self) -> "BatchResult":
        if self.error is not None:
            raise self.error
        return self


def run_scalar(job: BatchJob, trace: Optional[TraceRecorder] = None,
               backend: str = "scalar",
               reason: Optional[str] = None) -> BatchResult:
    """Run one job on the scalar kernel.

    ``trace`` is the recorder the run records into (see
    :mod:`repro.sim.trace`); without one nothing is recorded.  An
    exception from the run is returned in ``BatchResult.error``, not
    raised.  ``backend`` and ``reason`` only label the result: the
    batch runner passes ``"scalar-fallback"`` and why the lockstep
    engine could not take the job.
    """
    try:
        rr = _build_and_run(job, trace)
    except Exception as exc:
        return BatchResult(job=job, backend=backend, error=exc,
                           unsupported_reason=reason)
    return _result(job, rr, backend, reason)


def run_rearmed(jobs: Iterable[BatchJob]) -> Iterator[BatchResult]:
    """Run ``jobs`` in order, each as :func:`run_scalar` would, on one
    machine per :meth:`~BatchJob.machine_shape`: the first job of a
    shape builds it, the others re-arm it with
    :meth:`~repro.system.machine.Multiprocessor.reset`.

    A result reads its machine, which the next job of its shape
    re-arms: use it before drawing the next one.  A machine whose run
    raised is dropped, and the next job of its shape builds a new one.
    The machines live as long as the iterator.
    """
    machines: List[Tuple[tuple, Multiprocessor]] = []
    for job in jobs:
        shape = job.machine_shape()
        found = next((i for i, (s, _m) in enumerate(machines)
                      if s == shape), None)
        try:
            if found is None:
                rr = _build_and_run(job)
                machines.append((shape, rr.machine))
            else:
                machine = machines[found][1]
                machine.reset(get_model(job.model_name), job.prefetch,
                              job.speculation)
                rr = run_machine(machine, job.initial_memory,
                                 job.warm_lines, job.max_cycles)
        except Exception as exc:
            if found is not None:
                del machines[found]
            yield BatchResult(job=job, backend="scalar", error=exc)
            continue
        yield _result(job, rr, "scalar", None)


def _build_and_run(job: BatchJob,
               trace: Optional[TraceRecorder] = None) -> RunResult:
    """Build a machine for ``job`` and run it."""
    return run_workload(
        programs=job.programs,
        model=get_model(job.model_name),
        prefetch=job.prefetch,
        speculation=job.speculation,
        miss_latency=job.miss_latency,
        initial_memory=job.initial_memory,
        warm_lines=job.warm_lines,
        cache=job.cache,
        max_cycles=job.max_cycles,
        trace=trace,
    )


def _result(job: BatchJob, rr: RunResult, backend: str,
            reason: Optional[str]) -> BatchResult:
    return BatchResult(
        job=job,
        backend=backend,
        cycles=rr.cycles,
        _stats=rr.stats,
        unsupported_reason=reason,
        _read_word=rr.machine.read_word,
    )
