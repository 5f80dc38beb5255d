"""Campaign telemetry: an active registry and tracer, worker shipping.

``repro.obs.telemetry`` is the fleet-level observability substrate —
where the rest of ``repro.obs`` watches a single simulation, this
package watches *campaigns*: fuzz sweeps and the batch runner under
them.  Three cooperating pieces:

* the process-wide *active* :class:`~repro.sim.stats.StatsRegistry` —
  the same counter and exact-histogram type the guest machine counts
  into — behind the :func:`inc` / :func:`observe` proxies, rendered for
  Prometheus by :func:`to_prometheus` (:mod:`.prometheus`);
* :mod:`.spans` — wall-clock span tracing of the orchestration layer,
  exported as one merged Perfetto trace across all worker processes;
* :func:`collect` / :func:`absorb` — the shipping protocol: a worker
  wraps each item in ``collect()`` (fresh registry + tracer pushed as
  active, so consecutive items in the same long-lived worker process
  never double-count), serializes what the scope recorded into a
  *shipment* of plain JSON-able data, and the parent folds it in with
  ``absorb()`` (``StatsRegistry.merge_from``: counters and histogram
  samples add, so merged totals do not depend on completion order).

Everything is a no-op outside a :func:`collect` scope (the one thing
that raises the enable flag) — instrumentation sites stay in place on
hot paths at the cost of one flag check.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from ...sim.stats import StatsRegistry
from .prometheus import series_key, to_prometheus
from .spans import SPANS_SCHEMA, SpanTracer

__all__ = [
    "SPANS_SCHEMA",
    "SpanTracer",
    "absorb",
    "collect",
    "enabled",
    "inc",
    "observe",
    "registry",
    "span",
    "to_prometheus",
    "tracer",
]

_ENABLED = False
_REGISTRY = StatsRegistry()
_TRACER = SpanTracer()


def enabled() -> bool:
    """Whether a :func:`collect` scope is open in this process."""
    return _ENABLED


def registry() -> StatsRegistry:
    """The currently active process-wide registry."""
    return _REGISTRY


def tracer() -> SpanTracer:
    """The currently active process-wide tracer."""
    return _TRACER


def inc(name: str, amount: int = 1,
        labels: Optional[Mapping[str, str]] = None) -> None:
    """Increment a counter on the active registry (no-op when telemetry
    is disabled — one flag check)."""
    if _ENABLED:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        _REGISTRY.counter(series_key(name, labels)).inc(amount)


def observe(name: str, sample: int,
            labels: Optional[Mapping[str, str]] = None) -> None:
    """Add one integer sample to a histogram on the active registry."""
    if _ENABLED:
        _REGISTRY.histogram(series_key(name, labels)).add(sample)


@contextmanager
def span(name: str,
         args: Optional[Mapping[str, object]] = None
         ) -> Iterator[Dict[str, object]]:
    """Time a block on the active tracer — no-op (yielding a throwaway
    dict) when telemetry is disabled."""
    if not _ENABLED:
        yield dict(args) if args else {}
        return
    with _TRACER.span(name, args) as mutable:
        yield mutable


class CollectScope:
    """Handle yielded by :func:`collect`: the scope's fresh registry and
    tracer, plus :meth:`shipment` once the scope has closed."""

    def __init__(self, metrics: StatsRegistry, spans: SpanTracer) -> None:
        self.metrics = metrics
        self.spans = spans

    def shipment(self) -> Dict[str, object]:
        """Everything recorded inside the scope as plain JSON-able data
        for shipping back to the parent process (see :func:`absorb`)."""
        return {
            "counters": dict(self.metrics.counters()),
            "histograms": {name: hist.items() for name, hist
                           in self.metrics.histograms().items()},
            "spans": self.spans.to_state(),
        }


@contextmanager
def collect(process: Optional[str] = None) -> Iterator[CollectScope]:
    """Run a block with telemetry on, against a *fresh* registry and
    tracer.

    This is the worker-side half of the shipping protocol: ProcessPool
    workers are long-lived and process many items, so shipping the
    process-wide registry after each item would double-count earlier
    items.  ``collect()`` pushes fresh instances as the active ones,
    restores the previous ones (and the enable flag) on exit, and hands
    back a :class:`CollectScope` whose :meth:`~CollectScope.shipment`
    carries exactly what happened inside the block.

    The parent side uses it too — ``run_fuzz`` wraps each campaign so a
    second campaign in the same process starts from zero.
    """
    global _ENABLED, _REGISTRY, _TRACER
    saved = _ENABLED, _REGISTRY, _TRACER
    scope = CollectScope(StatsRegistry(), SpanTracer(process=process))
    _ENABLED, _REGISTRY, _TRACER = True, scope.metrics, scope.spans
    try:
        yield scope
    finally:
        _ENABLED, _REGISTRY, _TRACER = saved


def absorb(shipment: Optional[Mapping[str, object]]) -> None:
    """Parent-side half of the shipping protocol: fold a worker's
    shipment into the active registry and tracer."""
    if not shipment:
        return
    shipped = StatsRegistry()
    for name, value in shipment["counters"].items():  # type: ignore[attr-defined]
        shipped.counter(name).inc(value)
    for name, items in shipment["histograms"].items():  # type: ignore[attr-defined]
        for sample, weight in items:
            shipped.histogram(name).add(sample, weight)
    _REGISTRY.merge_from(shipped)
    _TRACER.absorb_state(shipment["spans"])  # type: ignore[arg-type]
