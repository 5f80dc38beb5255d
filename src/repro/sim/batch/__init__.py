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

No product entry point runs a leg here: the fuzz harness, the
localizer and the job server's workers run every leg through
:func:`~repro.system.jobs.run_scalar`.  The engine is kept for the
benchmark's ``batch_legs`` workload, and the scalar kernel remains its
bit-exact reference, pinned lane-for-lane by
``tests/test_batch_differential.py`` and
``tests/test_batch_properties.py``.
"""

from ...system.jobs import BatchJob, BatchResult
from .compile import job_unsupported_reason
from .runner import BatchRunner

__all__ = ["BatchJob", "BatchResult", "BatchRunner", "job_unsupported_reason"]
