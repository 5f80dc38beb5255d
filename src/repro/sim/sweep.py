"""A campaign is ``Executor.map`` over its items.

:func:`run_sweep` maps a pure worker over independent items for its one
caller, ``verify.cli.run_fuzz``.  Chunked dispatch and ordered results
are ``ProcessPoolExecutor.map``'s; added here are :func:`derive_seed`,
a worker exception contained in its slot as a :class:`SweepError`, a
serial path that neither pickles nor imports the pool machinery, and —
while campaign telemetry (:mod:`repro.obs.telemetry`) is on — shipping
each pool item's metrics and spans back to the parent.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import IO, Any, Callable, List, Optional, Sequence, Tuple

from .errors import ConfigurationError

#: worker signature: one picklable item in, one picklable result out
SweepWorker = Callable[[Any], Any]


def derive_seed(master_seed: int, index: int, stream: str = "") -> int:
    """A per-item seed that is the same on every Python version,
    platform and worker process (replay files store it): SHA-256 over
    the decimal renderings.  ``stream`` separates independent seed
    streams drawn from one master seed."""
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


def _rate(count: int, seconds: float) -> float:
    """Items per second; 0.0 for a run that finished within clock
    resolution (1e-12 s elapsed must not read as 10^12 items/s)."""
    return count / seconds if seconds >= 1e-9 else 0.0


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
    """A ``run_sweep(telemetry=)`` observer rendering one progress
    line: live (carriage returns) on a terminal only, on a redirected
    stream just the summary :meth:`finish` prints.  The rate on both is
    the run average, items done over time elapsed."""

    def __init__(self, label: str = "sweep",
                 stream: Optional[IO[str]] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.live = self.stream.isatty()
        self.last: Optional[Tuple[int, int, float]] = None

    def _line(self, done: int, total: int, elapsed: float) -> str:
        rate = _rate(done, elapsed)
        eta = format_duration((total - done) / rate if rate > 0.0 else None)
        return (f"  {self.label}: {done}/{total} ({100 * done / total:.0f}%) "
                f"{rate:.1f}/s eta {eta} in {format_duration(elapsed)}")

    def __call__(self, done: int, total: int, elapsed_seconds: float) -> None:
        self.last = (done, total, elapsed_seconds)
        if self.live:
            print("\r" + self._line(*self.last), end="", file=self.stream, flush=True)

    def finish(self) -> None:
        """Print the summary line; silent if no sample ever arrived."""
        if self.last is not None:
            print(("\r" if self.live else "") + self._line(*self.last),
                  file=self.stream, flush=True)


@dataclass
class SweepResult:
    """Ordered results plus run-wide accounting."""

    results: List[Any]
    elapsed_seconds: float
    jobs: int

    @property
    def errors(self) -> List[SweepError]:
        return [r for r in self.results if isinstance(r, SweepError)]

    @property
    def items_per_second(self) -> float:
        return _rate(len(self.results), self.elapsed_seconds)

    def describe(self) -> str:
        text = (f"sweep: {len(self.results)} item(s) in "
                f"{self.elapsed_seconds:.2f}s "
                f"({self.items_per_second:.1f}/s, jobs={self.jobs})")
        if self.errors:
            text += f"\n  {len(self.errors)} item(s) FAILED"
        return text


def _call(worker: SweepWorker, indexed: Tuple[int, Any]) -> Any:
    """``worker(item)`` under one ``sweep/item`` span, or the slot's
    :class:`SweepError` if it raised."""
    from ..obs import telemetry as tm
    index, item = indexed
    with tm.span("sweep/item", {"index": index}):
        try:
            result = worker(item)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            result = SweepError(item_index=index,
                                error_type=type(exc).__name__,
                                message=str(exc))
    tm.inc("sweep/items")
    return result


def _pool_call(worker: SweepWorker, ship: bool,
               indexed: Tuple[int, Any]) -> Tuple[Any, Optional[dict]]:
    """One pool item.  With campaign telemetry on (``ship``) it runs in
    a fresh ``collect()`` scope — a long-lived worker must not count an
    item twice — and what the scope recorded goes back to the parent."""
    if not ship:
        return _call(worker, indexed), None
    from ..obs import telemetry as tm
    with tm.collect() as scope:
        result = _call(worker, indexed)
    return result, scope.shipment()


def run_sweep(worker: SweepWorker, items: Sequence[Any], jobs: int = 1,
              telemetry: Optional[Callable[[int, int, float], None]] = None,
              ) -> SweepResult:
    """Map ``worker`` over ``items``, across ``jobs`` processes if > 1;
    ``results[i]`` belongs to ``items[i]``.  ``telemetry(done, total,
    elapsed_seconds)`` is called in this process per finished item."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if not callable(worker):
        # else every item "fails" with one TypeError and the sweep looks run
        raise ConfigurationError(f"worker must be callable, got {worker!r}")
    # repro.obs reaches back into repro.sim for trace types, so a
    # module-level import would be a cycle
    from ..obs import telemetry as tm

    items = list(items)
    total = len(items)
    if total <= 1:
        jobs = 1
    results: List[Any] = []
    t0 = time.perf_counter()

    def finished(result: Any) -> None:
        results.append(result)
        if telemetry is not None:
            telemetry(len(results), total, time.perf_counter() - t0)

    with tm.span("sweep/run", {"items": total, "jobs": jobs}):
        if jobs == 1:
            for indexed in enumerate(items):
                finished(_call(worker, indexed))
        else:
            from concurrent.futures import ProcessPoolExecutor
            call = partial(_pool_call, worker, tm.enabled())
            # ~4 chunks per worker: stragglers rebalance, IPC amortizes
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for result, shipment in pool.map(
                        call, enumerate(items),
                        chunksize=max(1, total // (4 * jobs))):
                    tm.absorb(shipment)
                    finished(result)
    return SweepResult(results, time.perf_counter() - t0, jobs)
