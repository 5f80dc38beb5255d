"""Process-wide campaign metrics: counters, gauges, histograms.

Where :class:`~repro.sim.stats.StatsRegistry` counts what the *guest*
machine did inside one simulation, this registry counts what the
*orchestration layer* did across a whole campaign: fuzz legs checked,
compile-memo hits, scalar fallbacks per reason, sweep chunk latencies.
It is designed around three constraints:

* **near-zero cost when disabled** — every instrumentation site goes
  through the module-level :func:`inc`/:func:`set_gauge`/:func:`observe`
  proxies, which are a single flag check when telemetry is off, so the
  fuzz harness can stay instrumented even on the bench hot path;
* **mergeable across ProcessPool workers** — a worker serializes its
  chunk-local registry with :meth:`MetricsRegistry.to_state` and the
  sweep parent folds it in with :meth:`MetricsRegistry.merge_from`
  (counters and histogram buckets add, gauges take the max), exactly
  like the guest-stats ``StatsRegistry.merge_from`` aggregation the
  breakdown matrix already uses.  Merging is associative and
  commutative, so the merged totals are independent of chunk completion
  order — ``tests/test_telemetry.py`` pins that;
* **two export formats** — a Prometheus text exposition
  (:meth:`MetricsRegistry.to_prometheus`, label escaping and cumulative
  histogram buckets per the exposition format) and a JSON snapshot
  (:meth:`MetricsRegistry.snapshot`) for ``--stats-json`` style dumps.

Metric names use ``/`` separators by repo convention
(``verify/legs``, ``batch/fallback``); the Prometheus exposition
sanitizes them (``repro_verify_legs_total``).  Labels are optional
``str -> str`` mappings with a canonical sorted order.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: bump when the snapshot layout changes incompatibly
METRICS_SCHEMA = "repro-metrics/1"

#: default histogram bucket upper bounds, in seconds (orchestration
#: latencies: worker queue waits, chunk walls, compile phases)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: canonical label representation: sorted (key, value) string pairs
LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double quote, and line feed."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def render_key(name: str, labels: LabelPairs = ()) -> str:
    """Canonical flat key for snapshots: ``name{k="v",...}``."""
    return name + _render_labels(labels)


_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, namespace: str = "repro") -> str:
    """A metric name valid for the Prometheus exposition format."""
    base = f"{namespace}_{name}" if namespace else name
    base = _NAME_SANITIZE.sub("_", base)
    if base and base[0].isdigit():
        base = "_" + base
    return base


def _fmt_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_le(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _fmt_value(float(bound))


class _Histogram:
    """Fixed-bucket histogram (Prometheus shape: le upper bounds)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        # one slot per finite bound plus the implicit +Inf bucket;
        # stored per-bucket (non-cumulative), rendered cumulative
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def merge(self, other: "_Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count


class MetricsRegistry:
    """Labelled counters, gauges, and fixed-bucket histograms.

    Not thread-safe; the orchestration layer that uses it is
    single-threaded per process (workers each get their own registry
    and ship state back for merging).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelPairs, float]] = {}
        self._gauges: Dict[str, Dict[LabelPairs, float]] = {}
        self._histograms: Dict[str, Dict[LabelPairs, _Histogram]] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, amount: float = 1,
            labels: Optional[Mapping[str, str]] = None) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        family = self._counters.setdefault(name, {})
        key = _label_key(labels)
        family[key] = family.get(key, 0) + amount

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Mapping[str, str]] = None) -> None:
        self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(self, name: str, value: float,
                labels: Optional[Mapping[str, str]] = None,
                buckets: Optional[Sequence[float]] = None) -> None:
        bounds = self._buckets.get(name)
        if bounds is None:
            bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
            self._buckets[name] = bounds
        elif buckets is not None and tuple(sorted(buckets)) != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{bounds}, got {tuple(sorted(buckets))}")
        family = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = family.get(key)
        if hist is None:
            hist = family[key] = _Histogram(bounds)
        hist.observe(value)

    # -- reading --------------------------------------------------------

    def counter_value(self, name: str,
                      labels: Optional[Mapping[str, str]] = None) -> float:
        return self._counters.get(name, {}).get(_label_key(labels), 0)

    def gauge_value(self, name: str,
                    labels: Optional[Mapping[str, str]] = None
                    ) -> Optional[float]:
        return self._gauges.get(name, {}).get(_label_key(labels))

    def __len__(self) -> int:
        return (sum(len(f) for f in self._counters.values())
                + sum(len(f) for f in self._gauges.values())
                + sum(len(f) for f in self._histograms.values()))

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly snapshot (histogram buckets cumulative)."""
        counters = {render_key(name, key): value
                    for name, family in sorted(self._counters.items())
                    for key, value in sorted(family.items())}
        gauges = {render_key(name, key): value
                  for name, family in sorted(self._gauges.items())
                  for key, value in sorted(family.items())}
        histograms: Dict[str, object] = {}
        for name, family in sorted(self._histograms.items()):
            for key, hist in sorted(family.items()):
                cumulative = hist.cumulative()
                buckets = {_fmt_le(bound): cumulative[i]
                           for i, bound in enumerate(hist.bounds)}
                buckets["+Inf"] = cumulative[-1]
                histograms[render_key(name, key)] = {
                    "count": hist.count,
                    "sum": round(hist.sum, 9),
                    "buckets": buckets,
                }
        return {
            "schema": METRICS_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_prometheus(self, namespace: str = "repro") -> str:
        """Render the registry in the Prometheus text exposition format.

        Counters get the conventional ``_total`` suffix; histogram
        buckets are cumulative with the mandatory ``+Inf`` bucket; label
        values are escaped; output order is deterministic (sorted by
        metric, then label set), so two registries holding the same
        samples expose byte-identical text regardless of insertion or
        merge order.
        """
        lines: List[str] = []
        for name, family in sorted(self._counters.items()):
            metric = prometheus_name(name, namespace) + "_total"
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(family.items()):
                lines.append(f"{metric}{_render_labels(key)} "
                             f"{_fmt_value(value)}")
        for name, family in sorted(self._gauges.items()):
            metric = prometheus_name(name, namespace)
            lines.append(f"# TYPE {metric} gauge")
            for key, value in sorted(family.items()):
                lines.append(f"{metric}{_render_labels(key)} "
                             f"{_fmt_value(value)}")
        for name, family in sorted(self._histograms.items()):
            metric = prometheus_name(name, namespace)
            lines.append(f"# TYPE {metric} histogram")
            for key, hist in sorted(family.items()):
                cumulative = hist.cumulative()
                bounds = list(hist.bounds) + [float("inf")]
                for i, bound in enumerate(bounds):
                    le = (("le", _fmt_le(bound)),)
                    lines.append(
                        f"{metric}_bucket{_render_labels(key + le)} "
                        f"{cumulative[i]}")
                lines.append(f"{metric}_sum{_render_labels(key)} "
                             f"{_fmt_value(hist.sum)}")
                lines.append(f"{metric}_count{_render_labels(key)} "
                             f"{hist.count}")
        return "\n".join(lines) + "\n" if lines else ""

    # -- merging / shipping --------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters and histogram buckets add,
        gauges take the max (worker gauges report peaks, so max is the
        associative/commutative choice)."""
        for name, family in other._counters.items():
            dest = self._counters.setdefault(name, {})
            for key, value in family.items():
                dest[key] = dest.get(key, 0) + value
        for name, family in other._gauges.items():
            dest = self._gauges.setdefault(name, {})
            for key, value in family.items():
                prev = dest.get(key)
                dest[key] = value if prev is None else max(prev, value)
        for name, family in other._histograms.items():
            bounds = other._buckets[name]
            mine = self._buckets.setdefault(name, bounds)
            if mine != bounds:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ")
            dest = self._histograms.setdefault(name, {})
            for key, hist in family.items():
                target = dest.get(key)
                if target is None:
                    target = dest[key] = _Histogram(bounds)
                target.merge(hist)

    def to_state(self) -> Dict[str, object]:
        """A picklable/JSON-able serialization for cross-process
        shipping (see :meth:`from_state`)."""
        return {
            "counters": [[name, [list(p) for p in key], value]
                         for name, family in self._counters.items()
                         for key, value in family.items()],
            "gauges": [[name, [list(p) for p in key], value]
                       for name, family in self._gauges.items()
                       for key, value in family.items()],
            "histograms": [[name, [list(p) for p in key],
                            list(hist.bounds), list(hist.counts),
                            hist.sum, hist.count]
                           for name, family in self._histograms.items()
                           for key, hist in family.items()],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "MetricsRegistry":
        reg = cls()
        for name, key, value in state.get("counters", ()):  # type: ignore[union-attr]
            reg._counters.setdefault(name, {})[
                tuple(tuple(p) for p in key)] = value
        for name, key, value in state.get("gauges", ()):  # type: ignore[union-attr]
            reg._gauges.setdefault(name, {})[
                tuple(tuple(p) for p in key)] = value
        for name, key, bounds, counts, total, count in state.get(
                "histograms", ()):  # type: ignore[union-attr]
            bounds_t = tuple(bounds)
            reg._buckets.setdefault(name, bounds_t)
            hist = _Histogram(bounds_t)
            hist.counts = list(counts)
            hist.sum = total
            hist.count = count
            reg._histograms.setdefault(name, {})[
                tuple(tuple(p) for p in key)] = hist
        return reg

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_prometheus(self, path: str, namespace: str = "repro") -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus(namespace))


# ----------------------------------------------------------------------
# The process-wide active registry and its cheap proxies
# ----------------------------------------------------------------------

_ENABLED = False
_ACTIVE = MetricsRegistry()


def enable(on: bool = True) -> None:
    """Globally switch campaign telemetry on (or off)."""
    global _ENABLED
    _ENABLED = on


def enabled() -> bool:
    return _ENABLED


def registry() -> MetricsRegistry:
    """The currently active process-wide registry."""
    return _ACTIVE


def swap_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Install ``reg`` as the active registry; returns the previous one
    (used by :func:`repro.obs.telemetry.collect` scopes)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = reg
    return prev


def inc(name: str, amount: float = 1,
        labels: Optional[Mapping[str, str]] = None) -> None:
    """Increment a counter on the active registry (no-op when
    telemetry is disabled — one flag check)."""
    if _ENABLED:
        _ACTIVE.inc(name, amount, labels)


def set_gauge(name: str, value: float,
              labels: Optional[Mapping[str, str]] = None) -> None:
    if _ENABLED:
        _ACTIVE.set_gauge(name, value, labels)


def observe(name: str, value: float,
            labels: Optional[Mapping[str, str]] = None,
            buckets: Optional[Sequence[float]] = None) -> None:
    if _ENABLED:
        _ACTIVE.observe(name, value, labels, buckets)
