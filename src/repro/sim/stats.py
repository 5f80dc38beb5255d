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
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple


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
        self.reset()

    def reset(self) -> None:
        """Forget every sample."""
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

    Names use ``/`` separators by convention, e.g.
    ``cpu0/instructions_retired`` or ``cache1/misses``.

    A registry that a machine re-arms has two kinds of statistics: the
    ones its components register at wiring, which they hold for the
    machine's life, and the ones registered later — inside
    :meth:`transient`, or after :meth:`seal` (lazily created counters,
    profile gauges).  :meth:`reset` zeroes the first kind and drops the
    second, which leaves the registry a fresh build's.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: names registered inside :meth:`transient` before the seal
        self._transient: Set[str] = set()
        self._in_transient = False
        #: what :meth:`reset` returns to; ``None`` until :meth:`seal`
        self._wired: Optional[Tuple[Dict[str, Counter],
                                    Dict[str, Histogram]]] = None

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
            if self._in_transient:
                self._transient.add(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
            if self._in_transient:
                self._transient.add(name)
        return histogram

    @contextmanager
    def transient(self) -> Iterator[None]:
        """Statistics first registered inside the block are run state,
        not wiring: :meth:`reset` drops them (a technique unit that the
        next run may not have)."""
        self._in_transient = True
        try:
            yield
        finally:
            self._in_transient = False

    def seal(self) -> None:
        """End of wiring: what is registered now, outside
        :meth:`transient`, is what :meth:`reset` keeps."""
        self._wired = (
            {n: c for n, c in self._counters.items()
             if n not in self._transient},
            {n: h for n, h in self._histograms.items()
             if n not in self._transient},
        )

    def reset(self) -> None:
        """Zero every statistic registered at wiring and drop every
        other one (requires :meth:`seal`)."""
        if self._wired is None:
            raise RuntimeError("StatsRegistry.reset() before seal()")
        counters, histograms = self._wired
        for c in counters.values():
            c.value = 0
        for h in histograms.values():
            h.reset()
        self._counters = dict(counters)
        self._histograms = dict(histograms)

    def __len__(self) -> int:
        """How many statistics are registered."""
        return len(self._counters) + len(self._histograms)

    def under(self, *prefixes: str) -> Tuple[List[Counter], List[Histogram]]:
        """The counters and the histograms named under any of
        ``prefixes``, by name."""
        return ([c for name, c in sorted(self._counters.items())
                 if name.startswith(prefixes)],
                [h for name, h in sorted(self._histograms.items())
                 if name.startswith(prefixes)])

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
