"""A generic parallel sweep engine (``ProcessPoolExecutor``).

A fuzzing campaign (``repro.verify``) is a pure worker function mapped
over a list of independent work items, and :func:`run_sweep` is its
runner — ``verify.cli.run_fuzz`` is the one caller in the package (the
analysis tables are a few hundred milliseconds and run serially, and
the job server hands each miss to its own executor):

* **chunked dispatch** — items are grouped into chunks so the
  per-task pickling/IPC overhead is amortized over many items;
* **deterministic seeding** — :func:`derive_seed` turns a master seed
  plus an item index into a stable 63-bit stream seed, identical
  regardless of worker count, chunk size, or platform;
* **ordered results** — ``results[i]`` always corresponds to
  ``items[i]``, whatever order chunks finish in;
* **per-worker stats** — items/chunks per worker process and wall
  time, for utilization reporting;
* **serial fallback** — ``jobs <= 1`` runs in-process with no
  multiprocessing at all (same chunking, same result order), which is
  also the path used on machines where fork is unavailable.

Workers must be module-level (picklable) callables and items must be
picklable values.  An exception inside a worker never aborts the sweep:
the failing item's result slot holds a :class:`SweepError`.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import ConfigurationError

#: worker signature: one picklable item in, one picklable result out
SweepWorker = Callable[[Any], Any]

#: elapsed times below this are treated as zero in every rate/ETA
#: division (a chunk of trivial items can complete within clock
#: resolution, and 1e-12 s elapsed must not report 10^12 items/s)
MIN_ELAPSED_SECONDS = 1e-9

#: EMA rates (items/second) below this yield ``eta=None`` rather than
#: an astronomically large ETA.  This is a *rate* epsilon, distinct
#: from :data:`MIN_ELAPSED_SECONDS` (a *time* epsilon): comparing an
#: items/sec value against a seconds threshold is a units mismatch —
#: a stalled sweep limping at 1e-8 items/s would pass a 1e-9 check
#: and report an ETA of three human lifetimes instead of "unknown"
MIN_RATE = 1e-6

#: smoothing factor for the telemetry rate EMA: high enough to follow a
#: genuine speed change within a few chunks, low enough that one slow
#: straggler chunk does not swing the ETA wildly
EMA_ALPHA = 0.3


def _tm():
    """Campaign telemetry, imported lazily: ``repro.obs`` reaches back
    into ``repro.sim`` for trace types, so a module-level import here
    would be a cycle.  The telemetry package itself is stdlib-only and
    cheap; the first call pays the import, the rest hit sys.modules."""
    from ..obs import telemetry
    return telemetry


def derive_seed(master_seed: int, index: int, stream: str = "") -> int:
    """A stable per-item seed from a master seed and an item index.

    Uses SHA-256 over the decimal renderings, so the derivation is
    identical across Python versions, platforms, and worker processes —
    the property the fuzzer's replay feature and the determinism tests
    rely on.  An optional ``stream`` label separates independent seed
    streams drawn from the same master seed.
    """
    payload = f"{master_seed}/{index}/{stream}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class SweepError:
    """Recorded in a result slot when the worker raised on that item."""

    item_index: int
    error_type: str
    message: str

    def describe(self) -> str:
        return f"item {self.item_index}: {self.error_type}: {self.message}"


@dataclass
class WorkerStats:
    """Utilization of one worker process (or the in-process runner)."""

    worker_id: str
    items: int = 0
    chunks: int = 0
    busy_seconds: float = 0.0


@dataclass
class SweepProgress:
    """One live telemetry sample, emitted each time a chunk completes.

    ``items_per_second`` is an EMA over per-chunk instantaneous rates
    (not the run-average), so the derived ``eta_seconds`` tracks the
    sweep's *current* speed; ``workers`` holds the live
    :class:`WorkerStats` objects for per-worker utilization.
    """

    done: int
    total: int
    elapsed_seconds: float
    items_per_second: float            # EMA-smoothed
    eta_seconds: Optional[float]       # None until a rate is measurable
    jobs: int
    workers: Dict[str, WorkerStats]
    #: worst chunk queue wait observed so far (seconds between the
    #: parent submitting a chunk and a worker starting it), derived
    #: from the workers' shipped chunk spans; 0.0 when telemetry is
    #: off or the sweep is serial.  A growing value means the pool is
    #: oversubscribed relative to chunk granularity.
    queue_wait_seconds: float = 0.0

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def utilization(self) -> float:
        """Aggregate busy fraction across the worker pool, in [0, 1]."""
        if self.elapsed_seconds < MIN_ELAPSED_SECONDS or self.jobs < 1:
            return 0.0
        busy = sum(w.busy_seconds for w in self.workers.values())
        return min(1.0, busy / (self.elapsed_seconds * self.jobs))

    def describe(self) -> str:
        pct = 100.0 * self.fraction
        eta = format_duration(self.eta_seconds)
        return (f"{self.done}/{self.total} ({pct:.0f}%) "
                f"{self.items_per_second:.1f}/s eta {eta} "
                f"util {self.utilization * 100:.0f}%")


#: telemetry callback: one SweepProgress per completed chunk
TelemetryCallback = Callable[[SweepProgress], None]


def compute_eta(remaining: int, rate: float) -> Optional[float]:
    """Seconds to completion from a smoothed rate, or ``None`` when the
    rate is below :data:`MIN_RATE` (too small to be meaningful)."""
    if rate < MIN_RATE:
        return None
    return remaining / rate


def format_duration(seconds: Optional[float]) -> str:
    """``None``-safe compact rendering for ETA displays (``1m23s``)."""
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressMeter:
    """Renders :class:`SweepProgress` samples as a single live line.

    The carriage-return live line only appears on a real terminal; on a
    redirected stream (CI logs, pipes) the per-chunk updates are
    suppressed and :meth:`finish` prints one clean summary line — item
    count, wall time, rate, pool utilization — instead of leaving a
    ``\\r``-riddled partial line in the log.

    Usable directly as a ``telemetry=`` callback::

        meter = ProgressMeter(label="verify")
        run_sweep(worker, items, jobs=4, telemetry=meter)
        meter.finish()
    """

    def __init__(self, label: str = "sweep",
                 stream: Optional[IO[str]] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.last: Optional[SweepProgress] = None

    def _interactive(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        try:
            return bool(isatty()) if isatty is not None else False
        except (OSError, ValueError):  # pragma: no cover - closed stream
            return False

    def __call__(self, progress: SweepProgress) -> None:
        self.last = progress
        if self._interactive():
            print(f"\r  {self.label}: {progress.describe()}",
                  end="", file=self.stream, flush=True)

    def finish(self) -> None:
        """Print the final summary line (call once after the sweep
        returns); silent when no sample ever arrived."""
        if self.last is None:
            return
        p = self.last
        prefix = "\r" if self._interactive() else ""
        summary = (f"{self.label}: {p.describe()} "
                   f"in {format_duration(p.elapsed_seconds)}")
        if p.queue_wait_seconds > 0.0:
            summary += f" (max queue wait {p.queue_wait_seconds:.2f}s)"
        print(f"{prefix}  {summary}", file=self.stream, flush=True)


@dataclass
class SweepResult:
    """Ordered results plus run-wide accounting."""

    results: List[Any]
    elapsed_seconds: float
    jobs: int
    chunk_size: int
    workers: Dict[str, WorkerStats] = field(default_factory=dict)

    @property
    def errors(self) -> List[SweepError]:
        return [r for r in self.results if isinstance(r, SweepError)]

    @property
    def items_per_second(self) -> float:
        if self.elapsed_seconds < MIN_ELAPSED_SECONDS:
            return 0.0
        return len(self.results) / self.elapsed_seconds

    def describe(self) -> str:
        lines = [
            f"sweep: {len(self.results)} item(s) in {self.elapsed_seconds:.2f}s "
            f"({self.items_per_second:.1f}/s, jobs={self.jobs}, "
            f"chunk={self.chunk_size})"
        ]
        for stats in sorted(self.workers.values(), key=lambda w: w.worker_id):
            lines.append(
                f"  {stats.worker_id}: {stats.items} item(s) in "
                f"{stats.chunks} chunk(s), {stats.busy_seconds:.2f}s busy"
            )
        if self.errors:
            lines.append(f"  {len(self.errors)} item(s) FAILED")
        return "\n".join(lines)


def _chunk_indices(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` index ranges covering ``range(total)``."""
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


def _chunk_body(worker: SweepWorker, start: int,
                items: Sequence[Any]) -> List[Any]:
    """The chunk's actual work, shared by both telemetry modes."""
    out = []
    for offset, item in enumerate(items):
        try:
            out.append(worker(item))
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            out.append(SweepError(item_index=start + offset,
                                  error_type=type(exc).__name__,
                                  message=str(exc)))
    return out


def _run_chunk(worker: SweepWorker, start: int, items: Sequence[Any],
               ctx: Optional[Dict[str, Any]] = None,
               ) -> Tuple[str, float, List[Any], Optional[Dict[str, Any]]]:
    """Executed inside a worker process: map ``worker`` over one chunk.

    ``ctx`` is the parent's telemetry context (present only when the
    parent had campaign telemetry enabled at submit time).  The chunk
    then runs inside a fresh :func:`repro.obs.telemetry.collect` scope —
    fresh so consecutive chunks in the same long-lived worker process
    never double-count — and the scope's metrics and spans come back as
    the 4th element of the return tuple for the parent to absorb.  The
    chunk span's wall-clock start minus the parent's submit stamp is the
    chunk's *queue wait*, shipped alongside.
    """
    worker_id = f"pid{os.getpid()}"
    if ctx is None:
        t0 = time.perf_counter()
        out = _chunk_body(worker, start, items)
        return worker_id, time.perf_counter() - t0, out, None

    tm = _tm()
    with tm.collect() as scope:
        queue_wait = max(
            0.0, (tm.spans.now_us() - ctx["submit_us"]) / 1e6)
        t0 = time.perf_counter()
        with tm.span("sweep/chunk", {"start": start, "items": len(items),
                                     "queue_wait_seconds": round(queue_wait, 6)}):
            out = _chunk_body(worker, start, items)
        busy = time.perf_counter() - t0
        tm.inc("sweep/chunks")
        tm.inc("sweep/items", len(items))
        tm.observe("sweep/chunk_busy_seconds", busy)
    shipment = scope.shipment()
    shipment["queue_wait_seconds"] = queue_wait
    return worker_id, busy, out, shipment


def default_chunk_size(total: int, jobs: int) -> int:
    """Aim for ~4 chunks per worker so stragglers rebalance, while
    keeping chunks non-trivial."""
    if total <= 0:
        return 1
    return max(1, total // max(1, jobs * 4))


def run_sweep(
    worker: SweepWorker,
    items: Sequence[Any],
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    telemetry: Optional[TelemetryCallback] = None,
) -> SweepResult:
    """Map ``worker`` over ``items``, optionally across processes.

    ``jobs <= 1`` (or a single item) runs serially in-process.
    ``telemetry`` receives a :class:`SweepProgress` sample (items done,
    EMA rate, ETA, per-worker utilization) in the parent process each
    time a chunk completes.  An item whose worker raised yields a
    :class:`SweepError` result slot (``SweepResult.errors`` lists them)
    instead of aborting the sweep.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if not callable(worker):
        # every item would otherwise "fail" with the same TypeError and
        # the sweep would look like it ran
        raise ConfigurationError(f"worker must be callable, got {worker!r}")
    items = list(items)
    total = len(items)
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    size = chunk_size or default_chunk_size(total, jobs)
    ranges = _chunk_indices(total, size)

    tm = _tm()
    instrumented = tm.enabled()

    t0 = time.perf_counter()
    slots: List[Any] = [None] * total
    workers: Dict[str, WorkerStats] = {}
    done = 0
    effective_jobs = 1 if (jobs == 1 or total <= 1) else jobs
    ema_rate = 0.0
    last_sample = (t0, 0)  # (wall time, items done) at the last sample
    max_queue_wait = 0.0

    def emit_telemetry() -> None:
        nonlocal ema_rate, last_sample
        assert telemetry is not None
        now = time.perf_counter()
        last_t, last_done = last_sample
        dt = now - last_t
        if dt >= MIN_ELAPSED_SECONDS:
            instantaneous = (done - last_done) / dt
            ema_rate = (instantaneous if ema_rate <= 0.0
                        else EMA_ALPHA * instantaneous
                        + (1.0 - EMA_ALPHA) * ema_rate)
            last_sample = (now, done)
        eta = compute_eta(total - done, ema_rate)
        telemetry(SweepProgress(
            done=done, total=total, elapsed_seconds=now - t0,
            items_per_second=ema_rate, eta_seconds=eta,
            jobs=effective_jobs, workers=dict(workers),
            queue_wait_seconds=max_queue_wait))

    def account(worker_id: str, busy: float, start: int, stop: int,
                chunk_results: List[Any],
                shipment: Optional[Dict[str, Any]]) -> None:
        nonlocal done, max_queue_wait
        slots[start:stop] = chunk_results
        stats = workers.setdefault(worker_id, WorkerStats(worker_id=worker_id))
        stats.items += stop - start
        stats.chunks += 1
        stats.busy_seconds += busy
        done += stop - start
        if shipment is not None:
            tm.absorb(shipment)
            queue_wait = float(shipment.get("queue_wait_seconds", 0.0))
            if queue_wait > max_queue_wait:
                max_queue_wait = queue_wait
                tm.set_gauge("sweep/queue_wait_seconds", max_queue_wait)
        if telemetry is not None:
            emit_telemetry()

    if jobs == 1 or total <= 1:
        with tm.span("sweep/run", {"items": total, "jobs": 1}):
            for start, stop in ranges:
                # span/inc/observe are no-ops while telemetry is off
                with tm.span("sweep/chunk",
                             {"start": start, "items": stop - start}):
                    _, busy, chunk_results, _ = _run_chunk(
                        worker, start, items[start:stop])
                tm.inc("sweep/chunks")
                tm.inc("sweep/items", stop - start)
                tm.observe("sweep/chunk_busy_seconds", busy)
                account("serial", busy, start, stop, chunk_results, None)
        return SweepResult(results=slots,
                           elapsed_seconds=time.perf_counter() - t0,
                           jobs=1, chunk_size=size, workers=workers)

    with tm.span("sweep/run", {"items": total, "jobs": jobs,
                               "chunks": len(ranges)}):
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = {
                pool.submit(_run_chunk, worker, start, items[start:stop],
                            ({"submit_us": tm.spans.now_us()}
                             if instrumented else None)):
                (start, stop)
                for start, stop in ranges
            }
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    start, stop = pending.pop(future)
                    worker_id, busy, chunk_results, shipment = future.result()
                    account(worker_id, busy, start, stop, chunk_results,
                            shipment)
    return SweepResult(results=slots,
                       elapsed_seconds=time.perf_counter() - t0,
                       jobs=jobs, chunk_size=size, workers=workers)
