"""Spin sleep: what a core keeps about the steady spin it is in.

A core polling a flag or a barrier nobody changes mispredicts the same
branch every few cycles — the predictor takes the path that assumes the
synchronization succeeds (``cpu/branch.py``) — and between two such
rollbacks its ticks repeat exactly.  :meth:`Processor.next_wake
<repro.cpu.processor.Processor.next_wake>` finds such a period and lets
the core sleep through whole periods of it.  Here are what it watches
with (:class:`SpinWatch`, :class:`Point`), and what a period does to
the core's numbers and statistics (:class:`Period`, read from
:class:`Books`), so that the periods it slept through can be applied in
one go.  Its period key numbers things as
:class:`~repro.sim.state.Numbering` says.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..sim.stats import Counter, Histogram, StatsRegistry

#: one reading of a core's books: every counter's value, and every
#: histogram's samples as ``{sample: weight}``
Reading = Tuple[Tuple[int, ...], Tuple[Dict[int, int], ...]]


class Books:
    """The statistics one core writes: every counter and histogram
    under its prefixes (its own, its units', its cache's)."""

    __slots__ = ("stats", "prefixes", "counters", "histograms", "size")

    def __init__(self, stats: StatsRegistry, prefixes: Sequence[str]) -> None:
        self.stats = stats
        self.prefixes = tuple(prefixes)
        #: the statistics, and the registry's size when they were taken
        #: (at the first reading, and anew whenever it has grown since)
        self.counters: List[Counter] = []
        self.histograms: List[Histogram] = []
        self.size = -1

    def read(self) -> Reading:
        """Every value now."""
        if len(self.stats) != self.size:
            self.size = len(self.stats)
            self.counters, self.histograms = self.stats.under(*self.prefixes)
        return (tuple(counter.value for counter in self.counters),
                tuple(dict(histogram.items())
                      for histogram in self.histograms))


#: what some cycles of a period add: ``(counter, amount)`` and
#: ``(histogram, sample, weight)``
Delta = Tuple[Tuple[Tuple[Counter, int], ...],
              Tuple[Tuple[Histogram, int, int], ...]]


def _delta(books: Books, start: Reading, end: Reading) -> Delta:
    counts, samples = start
    counts_end, samples_end = end
    return (
        tuple((counter, after - before) for counter, before, after
              in zip(books.counters, counts, counts_end) if after != before),
        tuple((histogram, sample, weight - before.get(sample, 0))
              for histogram, before, after
              in zip(books.histograms, samples, samples_end)
              for sample, weight in after.items()
              if weight != before.get(sample, 0)),
    )


class Period:
    """One period of a spin, as the core recorded it: how far it moves
    the core's numbering and clocks on, and what each of its cycles
    adds to the books."""

    __slots__ = ("cycles", "seqs", "reqs", "ticks", "stamps", "merged",
                 "_phases")

    def __init__(self, books: Books, readings: List[Reading], start: Point,
                 end: Point, stamps: Dict[int, int],
                 merged: Dict[int, list]) -> None:
        #: its length; ``readings`` holds the books after each of its
        #: ticks, and before the first
        self.cycles = len(readings) - 1
        #: instructions decoded, cache requests made and LRU stamps used
        #: in one period
        self.seqs = end.seq - start.seq
        self.reqs = end.req - start.req
        self.ticks = end.clock - start.clock
        #: the cache lines it touches, each with its last LRU stamp
        #: counted from the period's start
        self.stamps = stamps
        #: the requests it merges into each outstanding miss, by line,
        #: all of them stale by its end
        self.merged = merged
        #: what the first ``i + 1`` of its cycles add to the books
        self._phases = [_delta(books, readings[0], reading)
                        for reading in readings[1:]]

    def after(self, point: Point, periods: int) -> Point:
        """Where ``periods`` of it leave the numbers of ``point``."""
        return point._replace(
            cycle=point.cycle + periods * self.cycles,
            seq=point.seq + periods * self.seqs,
            req=point.req + periods * self.reqs,
            clock=point.clock + periods * self.ticks,
            waiting={line: waiting + periods * len(self.merged.get(line, ()))
                     for line, waiting in point.waiting.items()})

    def count(self, periods: int, cycles: int = 0) -> None:
        """Add ``periods`` whole periods, then the first ``cycles`` of
        one more, to the books."""
        for phase, times in ((self.cycles, periods), (cycles, 1)):
            if not phase or not times:
                continue
            counts, samples = self._phases[phase - 1]
            for counter, amount in counts:
                counter.inc(amount * times)
            for histogram, sample, weight in samples:
                histogram.add(sample, weight * times)


class Point(NamedTuple):
    """A keyed point: where the core's numbers and totals stood."""

    cycle: int
    seq: int
    req: int
    #: the LRU clock, the messages the cache has sent and received, and
    #: the requests waiting on each of its misses
    clock: int
    messages: int
    waiting: Dict[int, int]


class SpinWatch:
    """What a core knows about the spin it may be in."""

    __slots__ = ("books", "armed", "at", "shape", "key", "readings", "size",
                 "period", "found", "asleep", "start", "wake")

    def __init__(self, books: Books) -> None:
        self.books = books
        #: a branch mispredicted since the last keyed point
        self.armed = False
        #: the last keyed point
        self.at: Optional[Point] = None
        #: (pc, cycles, seqs) of the period that ended there
        self.shape: Optional[Tuple[int, int, int]] = None
        #: the core's period key there, once the shape repeated
        self.key: Optional[tuple] = None
        #: the books after that point's tick and every one since, and
        #: the registry's size when the first was read
        self.readings: Optional[List[Reading]] = None
        self.size = 0
        #: the period that follows a state with that key, once recorded;
        #: whether the last keyed point had that key, ready to sleep
        self.period: Optional[Period] = None
        self.found = False
        #: asleep through whole periods: since which cycle, until which
        self.asleep = False
        self.start = 0
        self.wake = 0
