"""Pluggable executor pool: how cache misses actually run.

Both executors are :func:`repro.sim.sweep.run_sweep` over the per-item
:func:`execute_job` worker — one job, one scalar-kernel run — so the
server inherits the sweep engine's whole contract for free: ordered
results, per-item error containment (``on_error="record"``), worker
utilization stats, and live :class:`~repro.sim.sweep.SweepProgress`
telemetry that the server streams on to subscribed clients:

* ``serial`` — in-process, one job at a time (``jobs=1``): the
  lowest-latency path for small batches and the default;
* ``pool`` — a ``ProcessPoolExecutor`` fan-out (``jobs=N``).

A failed job comes back as an ``{"error": {...}}`` marker rather than
poisoning the batch; the server reports it to the submitting client
and never caches it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..sim.sweep import SweepError, TelemetryCallback, run_sweep
from .protocol import (
    ProtocolError,
    normalize_job,
    resolve_test,
    run_config_from_spec,
)

#: executor kinds the server and CLI know
EXECUTOR_KINDS = ("serial", "pool")

#: an executor: (canonical job specs, telemetry) -> one result per spec
Executor = Callable[[Sequence[Mapping[str, object]],
                     Optional[TelemetryCallback]], List[Dict[str, object]]]


def _tm():
    from ..obs import telemetry
    return telemetry


def execute_job(spec: Mapping[str, object]) -> Dict[str, object]:
    """Run one canonical job on the scalar kernel (picklable worker).

    The job and its audit map come from the verifier's own
    :func:`~repro.verify.harness.leg_jobs` — which is why a served
    result equals a local one.
    """
    from ..system.jobs import run_scalar
    from ..verify.harness import _job_outcome, leg_jobs

    spec = normalize_job(spec)
    (job,), (audit_map,) = leg_jobs(
        resolve_test(spec["test"]),  # type: ignore[arg-type]
        [(str(spec["model"]), bool(spec["prefetch"]),
          bool(spec["speculation"]),
          run_config_from_spec(spec["run_config"]))])  # type: ignore[arg-type]
    res = run_scalar(job)
    return {"outcome": [[reg, val]
                        for reg, val in _job_outcome(res, audit_map)],
            "cycles": int(res.cycles)}


def _materialize(results: Sequence[object]) -> List[Dict[str, object]]:
    """SweepError slots -> ``{"error": ...}`` markers the server (and
    clients) understand; successful slots pass through."""
    out: List[Dict[str, object]] = []
    for slot in results:
        if isinstance(slot, SweepError):
            out.append({"error": {"type": slot.error_type,
                                  "message": slot.message}})
        else:
            out.append(slot)  # type: ignore[arg-type]
    return out


def make_executor(kind: str, jobs: int = 1) -> Executor:
    """Build one of the two executors (see module docstring)."""
    if kind not in EXECUTOR_KINDS:
        raise ProtocolError(f"unknown executor {kind!r}; "
                            f"available: {EXECUTOR_KINDS}")
    workers = 1 if kind == "serial" else max(1, jobs)

    def run(specs: Sequence[Mapping[str, object]],
            telemetry: Optional[TelemetryCallback] = None,
            ) -> List[Dict[str, object]]:
        if not specs:
            return []
        _tm().inc("serve/simulations", len(specs))
        sweep = run_sweep(execute_job, list(specs), jobs=workers,
                          telemetry=telemetry, on_error="record")
        return _materialize(sweep.results)

    return run


__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "execute_job",
    "make_executor",
]
