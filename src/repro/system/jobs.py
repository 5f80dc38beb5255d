"""One simulator leg as data, and the one way product code runs it.

A :class:`BatchJob` captures the arguments of
:func:`repro.system.machine.run_workload` as plain picklable values, so
one job <=> one scalar ``run_workload`` call; :func:`run_scalar` makes
that call and wraps what came back in a :class:`BatchResult`.  Every
simulator leg of the product — the fuzz harness, the localizer and the
job server's workers — runs this way.

Nothing here imports numpy.  The numpy lockstep engine takes the same
jobs and returns the same result type (it re-exports both); only its
own tests and the benchmark load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..consistency.models import get_model
from ..isa.program import Program
from ..memory.types import CacheConfig
from ..sim.stats import StatsRegistry
from ..sim.trace import TraceRecorder
from .machine import run_workload


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
        rr = run_workload(
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
    except Exception as exc:
        return BatchResult(job=job, backend=backend, error=exc,
                           unsupported_reason=reason)
    return BatchResult(
        job=job,
        backend=backend,
        cycles=rr.cycles,
        _stats=rr.stats,
        unsupported_reason=reason,
        _read_word=rr.machine.read_word,
    )
