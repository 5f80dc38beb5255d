"""How cache misses actually run: one job, one future.

The server awaits ``loop.run_in_executor(executor, execute_job, spec)``
for every miss, on a :class:`concurrent.futures.Executor` that
:func:`make_executor` builds once and that lives as long as the server:

* ``serial`` — one worker thread in the server process, one job at a
  time: the lowest-latency path and the default;
* ``pool`` — a ``ProcessPoolExecutor`` of ``jobs`` workers, started
  once (the first misses pay for it).

A job that raises fails its own future only; the server reports it to
the submitting client as an ``{"error": {...}}`` marker and never
caches it.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Mapping

from .protocol import ProtocolError, normalize_job, resolve_test

#: executor kinds the server and CLI know
EXECUTOR_KINDS = ("serial", "pool")


def execute_job(spec: Mapping[str, object]) -> Dict[str, object]:
    """Run one canonical job on the scalar kernel (picklable worker).

    The job and its audit map come from the verifier's own
    :func:`~repro.verify.harness.leg_jobs` — which is why a served
    result equals a local one.
    """
    from ..system.jobs import run_scalar
    from ..verify.harness import RunConfig, job_outcome, leg_jobs

    spec = normalize_job(spec)
    (job,), (audit_map,) = leg_jobs(
        resolve_test(spec["test"]),  # type: ignore[arg-type]
        [(str(spec["model"]), bool(spec["prefetch"]),
          bool(spec["speculation"]),
          RunConfig.from_spec(spec["run_config"]))])  # type: ignore[arg-type]
    res = run_scalar(job)
    return {"outcome": [[reg, val]
                        for reg, val in job_outcome(res, audit_map)],
            "cycles": int(res.cycles)}


def make_executor(kind: str, jobs: int = 1) -> Executor:
    """Build one of the two executors (see module docstring); the
    caller owns it and shuts it down."""
    if kind not in EXECUTOR_KINDS:
        raise ProtocolError(f"unknown executor {kind!r}; "
                            f"available: {EXECUTOR_KINDS}")
    if kind == "serial":
        return ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="serve-exec")
    # spawn, not fork: an embedding process has threads (ServerThread's
    # own, and a replacement pool starts while the broken one's manager
    # thread winds down), and a forked worker inherits their held locks
    return ProcessPoolExecutor(
        max_workers=max(1, jobs),
        mp_context=multiprocessing.get_context("spawn"))


__all__ = [
    "EXECUTOR_KINDS",
    "execute_job",
    "make_executor",
]
