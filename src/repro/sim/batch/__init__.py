"""Batched lockstep simulation: hundreds of independent runs per clock.

Public surface:

- :class:`~repro.sim.batch.runner.BatchRunner` — run job lists on the
  struct-of-arrays engine with transparent scalar fallback.
- :class:`~repro.system.jobs.BatchJob` /
  :class:`~repro.system.jobs.BatchResult` — what goes in and what comes
  out, re-exported from the numpy-free module that defines them (and
  the scalar way to run a job), so nothing has to import this package
  to build or run a leg.
- :func:`~repro.sim.batch.compile.job_unsupported_reason` — why a job
  would fall back (None when it batches).

The scalar kernel remains the bit-exact reference; the engine is pinned
to it lane-for-lane by ``tests/test_batch_differential.py`` and the
``--backend batched`` conformance mode of ``repro.verify``.
"""

from ...system.jobs import BatchJob, BatchResult
from .compile import job_unsupported_reason
from .runner import BatchRunner

__all__ = ["BatchJob", "BatchResult", "BatchRunner", "job_unsupported_reason"]
