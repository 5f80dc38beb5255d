"""Statistics collection: the one counter and histogram type.

Components register named counters and histograms against a shared
:class:`StatsRegistry`.  The guest machine counts into the simulator's,
a job server into its own, and a ``repro.verify`` campaign fills one
from its sweep's results.  Statistics are plain Python
numbers so reports can be rendered without any third-party dependency.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Mapping, Tuple


class Counter:
    """A monotonically increasing (or arbitrary-increment) scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """An exact histogram over integer samples (e.g. access latencies)."""

    __slots__ = ("name", "_buckets", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.total = 0
        self.min: int = 0
        self.max: int = 0

    def add(self, sample: int, weight: int = 1) -> None:
        if self.count == 0:
            self.min = self.max = sample
        else:
            self.min = min(self.min, sample)
            self.max = max(self.max, sample)
        self._buckets[sample] += weight
        self.count += weight
        self.total += sample * weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Return the ``p``-th percentile (0 <= p <= 100) of the samples."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0
        target = p / 100.0 * (self.count - 1)
        seen = 0
        for sample in sorted(self._buckets):
            seen += self._buckets[sample]
            if seen - 1 >= target:
                return sample
        return self.max

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._buckets.items())


class StatsRegistry:
    """Hierarchically named counters and histograms.

    Names use ``/`` separators by convention, e.g. ``cpu0/lsu/loads`` or
    ``cache1/misses``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counters(self, prefix: str = "") -> Mapping[str, int]:
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histograms(self) -> Mapping[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> Dict[str, object]:
        """A flat, JSON-friendly view of every statistic."""
        out: Dict[str, object] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = c.value
        for name, h in sorted(self._histograms.items()):
            out[name + "/count"] = h.count
            out[name + "/mean"] = round(h.mean, 3)
            out[name + "/min"] = h.min
            out[name + "/max"] = h.max
            out[name + "/p50"] = h.percentile(50)
            out[name + "/p95"] = h.percentile(95)
            out[name + "/p99"] = h.percentile(99)
        return out

    def merge_from(self, other: "StatsRegistry", prefix: str = "") -> None:
        """Accumulate another registry's counters and histogram samples
        into this one: both add, so merging is associative and
        commutative."""
        for name, c in other._counters.items():
            self.counter(prefix + name).inc(c.value)
        for name, h in other._histograms.items():
            dest = self.histogram(prefix + name)
            for sample, weight in h.items():
                dest.add(sample, weight)


def write_stats_json(path: str, stats: StatsRegistry, **extra: object) -> None:
    """What every ``--stats-json`` writes: the flat :meth:`snapshot`
    (plus the front-end's ``extra`` keys) as sorted, indented JSON."""
    with open(path, "w") as fh:
        json.dump({**stats.snapshot(), **extra}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_stats_table(stats: Mapping[str, object], title: str = "") -> str:
    """Render a stats mapping as an aligned two-column text table.

    Values are right-aligned in a common column; floats are rendered
    with a fixed precision so mixed int/float listings line up.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    if not stats:
        lines.append("(no statistics)")
        return "\n".join(lines)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    rendered = {key: fmt(value) for key, value in stats.items()}
    key_width = max(len(k) for k in rendered)
    value_width = max(len(v) for v in rendered.values())
    for key, value in rendered.items():
        lines.append(f"{key:<{key_width}}  {value:>{value_width}}")
    return "\n".join(lines)
