"""Pluggable executor pool: how cache misses actually run.

Every executor is :func:`repro.sim.sweep.run_sweep` configured a
different way, so the server inherits the sweep engine's whole
contract for free — ordered results, per-item error containment
(``on_error="record"``), worker utilization stats, and live
:class:`~repro.sim.sweep.SweepProgress` telemetry that the server
streams on to subscribed clients:

* ``serial`` — in-process, one job at a time (``jobs=1``): the
  lowest-latency path for small batches and the default;
* ``pool`` — a ``ProcessPoolExecutor`` fan-out (``jobs=N``) via the
  per-item :func:`execute_job` worker;
* ``batched`` — the whole batch handed to one
  :class:`~repro.sim.batch.runner.BatchRunner` call through the
  sweep's ``chunk_worker`` contract, so in-envelope jobs step in
  lockstep on the SoA engine while out-of-envelope jobs transparently
  fall back to the scalar kernel *inside* the runner (bit-identical
  results either way — the differential suite pins it).

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
EXECUTOR_KINDS = ("serial", "pool", "batched")

#: an executor: (canonical job specs, telemetry) -> one result per spec
Executor = Callable[[Sequence[Mapping[str, object]],
                     Optional[TelemetryCallback]], List[Dict[str, object]]]


def _tm():
    from ..obs import telemetry
    return telemetry


def _spec_job(spec: Mapping[str, object]):
    """The :class:`~repro.sim.batch.jobs.BatchJob` and audit map of one
    canonical job spec, from the verifier's own
    :func:`~repro.verify.harness.leg_jobs` — which is why a served
    result equals a local one."""
    from ..verify.harness import leg_jobs

    jobs, audit_maps = leg_jobs(
        resolve_test(spec["test"]),  # type: ignore[arg-type]
        [(str(spec["model"]), bool(spec["prefetch"]),
          bool(spec["speculation"]),
          run_config_from_spec(spec["run_config"]))])  # type: ignore[arg-type]
    return jobs[0], audit_maps[0]


def _reply(res, audit_map: Dict[str, int]) -> Dict[str, object]:
    """One finished job as the wire result (raising what the run did)."""
    from ..verify.harness import _job_outcome

    return {"outcome": [[reg, val]
                        for reg, val in _job_outcome(res, audit_map)],
            "cycles": int(res.cycles)}


def execute_job(spec: Mapping[str, object]) -> Dict[str, object]:
    """Run one canonical job on the scalar kernel (picklable worker)."""
    from ..sim.batch import BatchRunner

    job, audit_map = _spec_job(normalize_job(spec))
    return _reply(BatchRunner._run_scalar(job, backend="scalar"), audit_map)


def execute_chunk(specs: Sequence[Mapping[str, object]]) -> List[object]:
    """Chunk worker: one lockstep :class:`BatchRunner` call per batch.

    Jobs outside the batch envelope (techniques on, branches, ...) are
    routed back to the scalar kernel inside the runner itself, so every
    spec gets a result and all results are bit-identical to
    :func:`execute_job`'s.  Per-item failures come back as
    :class:`~repro.sim.sweep.SweepError` slots, which is the sweep
    engine's chunk-worker error contract.
    """
    from ..sim.batch import BatchRunner

    jobs: List[object] = []
    audit_maps: List[Dict[str, int]] = []
    slots: List[object] = [None] * len(specs)
    for i, raw in enumerate(specs):
        try:
            job, audit_map = _spec_job(normalize_job(raw))
            job.key = i
            jobs.append(job)
            audit_maps.append(audit_map)
        except Exception as exc:  # noqa: BLE001 - per-item containment
            slots[i] = SweepError(item_index=i,
                                  error_type=type(exc).__name__,
                                  message=str(exc))
    results = BatchRunner().run(jobs) if jobs else []
    for res, audit_map in zip(results, audit_maps):
        i = res.job.key
        try:
            slots[i] = _reply(res, audit_map)
        except Exception as exc:  # noqa: BLE001 - per-item containment
            slots[i] = SweepError(item_index=i,
                                  error_type=type(exc).__name__,
                                  message=str(exc))
    return slots


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


def make_executor(kind: str, jobs: int = 1,
                  chunk_size: Optional[int] = None) -> Executor:
    """Build one of the three executors (see module docstring)."""
    if kind not in EXECUTOR_KINDS:
        raise ProtocolError(f"unknown executor {kind!r}; "
                            f"available: {EXECUTOR_KINDS}")

    def run(specs: Sequence[Mapping[str, object]],
            telemetry: Optional[TelemetryCallback] = None,
            ) -> List[Dict[str, object]]:
        if not specs:
            return []
        _tm().inc("serve/simulations", len(specs))
        if kind == "batched":
            sweep = run_sweep(None, list(specs), jobs=1,
                              chunk_size=chunk_size or len(specs),
                              telemetry=telemetry, on_error="record",
                              chunk_worker=execute_chunk)
        else:
            sweep = run_sweep(execute_job, list(specs),
                              jobs=1 if kind == "serial" else max(1, jobs),
                              chunk_size=chunk_size,
                              telemetry=telemetry, on_error="record")
        return _materialize(sweep.results)

    return run


__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "execute_chunk",
    "execute_job",
    "make_executor",
]
