"""Prometheus text exposition of a :class:`~repro.sim.stats.StatsRegistry`.

Names use ``/`` separators by repo convention (``verify/legs``); the
exposition sanitizes them and prefixes ``repro_``
(``repro_verify_legs_total``).  A labelled series is a statistic whose
name carries its labels in the canonical form :func:`series_key`
builds — ``batch/fallback{reason="deadlock"}``, keys sorted, values
escaped — so a registry needs no label support and merges labelled
series like any other name.
"""

from __future__ import annotations

import re
from typing import List, Mapping, Optional, Tuple

from ...sim.stats import Histogram, StatsRegistry

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def series_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """``name{k="v",...}``: label keys sorted, values escaped per the
    exposition format (backslash, double quote, line feed)."""
    if not labels:
        return name
    inner = ",".join(
        '{}="{}"'.format(key, str(value).replace("\\", "\\\\")
                         .replace('"', '\\"').replace("\n", "\\n"))
        for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def prometheus_name(name: str) -> str:
    """A metric name valid for the Prometheus exposition format."""
    return _NAME_SANITIZE.sub("_", f"repro_{name}")


def _series(stats: Mapping[str, object]) -> List[Tuple[str, str, object]]:
    """``(exposed metric name, "{labels}" or "", statistic)`` per series
    key, sorted by the first two."""
    out = []
    for key, stat in stats.items():
        name, brace, labels = key.partition("{")
        out.append((prometheus_name(name), brace + labels, stat))
    return sorted(out, key=lambda series: series[:2])


def _bounds(hist: Histogram) -> List[int]:
    """The ``le`` ladder of one histogram: 1-2-5 per decade, from the
    first bound that holds a sample to the first that holds them all."""
    bounds: List[int] = []
    decade = 1
    while True:
        for step in (1, 2, 5):
            if step * decade >= hist.min:
                bounds.append(step * decade)
            if step * decade >= hist.max:
                return bounds
        decade *= 10


def to_prometheus(stats: StatsRegistry) -> str:
    """Counters get the conventional ``_total`` suffix; an exact
    histogram is exposed as cumulative ``le`` buckets computed here,
    with the mandatory ``+Inf`` bucket, ``_sum`` and ``_count``.  The
    order is sorted by metric, then label set, so two registries holding
    the same samples expose byte-identical text however they were
    filled or merged."""
    lines: List[str] = []
    declared = None
    for metric, labels, value in _series(stats.counters()):
        if metric != declared:
            declared = metric
            lines.append(f"# TYPE {metric}_total counter")
        lines.append(f"{metric}_total{labels} {value}")
    declared = None
    for metric, labels, hist in _series(stats.histograms()):
        if metric != declared:
            declared = metric
            lines.append(f"# TYPE {metric} histogram")
        # the bucket label joins the series' own: {a="1",le="5"}
        opening = labels[:-1] + "," if labels else "{"
        samples, held = hist.items()[::-1], 0  # smallest sample last
        for bound in _bounds(hist):
            while samples and samples[-1][0] <= bound:
                held += samples.pop()[1]
            lines.append(f'{metric}_bucket{opening}le="{bound}"}} {held}')
        lines.append(f'{metric}_bucket{opening}le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum{labels} {hist.total}")
        lines.append(f"{metric}_count{labels} {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""
