"""Load generator for the simulation job server.

Two standard load shapes, both driving the real wire protocol:

* **closed-loop** — ``clients`` threads, each with its own connection,
  each submitting its next job only after the previous one completes.
  Throughput is latency-bound; this is the shape the ``serve_cold``
  and ``serve_warm`` workloads of ``bench/e2e`` use because it is
  deterministic and noise-tolerant.
* **open-loop** — jobs *arrive* on a fixed schedule (``rate`` jobs/s)
  regardless of completions, the shape real traffic has.  Latency is
  measured from the **scheduled arrival**, not the actual send, so
  queueing delay when the server falls behind is charged to the
  server — the standard coordinated-omission correction.

The job mix is deterministic (a seeded cross-product of litmus tests ×
models × technique settings), so two loadgen runs against the same
build submit byte-identical requests — which is also what makes the
warm-cache bench meaningful.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .client import ServeClient, ServeClientError
from .protocol import (
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    make_job,
)

#: the default litmus/model/technique pools the mix is drawn from
MIX_TESTS = ("SB", "MP", "LB", "coherence", "SB+sync", "MP+sync",
             "IRIW", "WRC")
MIX_MODELS = ("SC", "PC", "WC", "RC")
MIX_TECHNIQUES = ((False, False), (True, False), (False, True), (True, True))

#: sweep-style run config for every mix job: the second thread starts
#: 200 cycles late, like the race-hunting sweeps that dominate real
#: traffic.  The skew lengthens the simulated run, not the host's work:
#: a core sleeps through the run of adds it compiles to (the chain
#: sleep of ``Processor.next_wake``), so a miss costs building the
#: programs and the machine plus the test's own few hundred cycles
MIX_RUN_CONFIG = {"skew": (0, 200)}


def build_job_mix(count: int,
                  seed: int = 0,
                  tests: Sequence[str] = MIX_TESTS,
                  models: Sequence[str] = MIX_MODELS,
                  techniques: Sequence[Tuple[bool, bool]] = MIX_TECHNIQUES,
                  unique: bool = False) -> List[Dict[str, object]]:
    """A deterministic, shuffled job mix of ``count`` canonical jobs.

    The full cross-product of ``tests × models × techniques`` is
    shuffled with ``seed`` and cycled to length — so any ``count``
    beyond the product size deliberately contains duplicates, which is
    what exercises coalescing and the cache.  With ``unique=True`` the
    skew knob of the run config is varied per job instead, making every
    job a distinct cache key (cold-cache benchmarks).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(seed)
    product = [(t, m, pf, sp)
               for t in tests for m in models for pf, sp in techniques]
    rng.shuffle(product)
    jobs: List[Dict[str, object]] = []
    for i, (test, model, prefetch, speculation) in enumerate(
            itertools.islice(itertools.cycle(product), count)):
        run_config: Dict[str, object] = dict(MIX_RUN_CONFIG)
        if unique:
            # vary a result-determining knob so every job is a
            # distinct cache key even past the cross-product size
            # (201 + i never collides with the shared [0, 200] window)
            run_config["skew"] = [0, 201 + i]
        jobs.append(make_job(test={"name": test}, model=model,
                             prefetch=prefetch, speculation=speculation,
                             run_config=run_config))
    return jobs


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class LoadgenReport:
    """One load-generator run, summarized."""

    mode: str
    jobs: int
    completed: int
    errors: int
    cache_hits: int
    coalesced: int
    wall_seconds: float
    #: closed-loop: client thread count; open-loop: offered rate (jobs/s)
    concurrency: float
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        if not self.latencies:
            return {}
        return {name: percentile(self.latencies, q)
                for name, q in (("p50", 50), ("p90", 90), ("p99", 99),
                                ("max", 100))}

    def to_dict(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "mode": self.mode,
            "jobs": self.jobs,
            "completed": self.completed,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_per_second": round(self.throughput, 3),
            "concurrency": self.concurrency,
        }
        summary["latency_seconds"] = {
            name: round(value, 6)
            for name, value in self.latency_percentiles().items()}
        return summary


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------

def run_closed_loop(host: str, port: int,
                    jobs: Sequence[Mapping[str, object]],
                    clients: int = 1) -> LoadgenReport:
    """``clients`` threads, one connection each, one job in flight per
    thread; jobs are dealt round-robin."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    clients = min(clients, max(1, len(jobs)))
    lanes: List[List[Mapping[str, object]]] = [[] for _ in range(clients)]
    for i, job in enumerate(jobs):
        lanes[i % clients].append(job)
    report = LoadgenReport(mode="closed", jobs=len(jobs), completed=0,
                           errors=0, cache_hits=0, coalesced=0,
                           wall_seconds=0.0, concurrency=clients)
    lock = threading.Lock()
    failures: List[BaseException] = []

    def lane_main(lane: List[Mapping[str, object]]) -> None:
        try:
            with ServeClient(host, port) as client:
                for job in lane:
                    t0 = time.perf_counter()
                    result = client.submit(job)
                    dt = time.perf_counter() - t0
                    with lock:
                        report.latencies.append(dt)
                        if result.ok:
                            report.completed += 1
                        else:
                            report.errors += 1
                        if result.cached:
                            report.cache_hits += 1
                        if result.coalesced:
                            report.coalesced += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            with lock:
                failures.append(exc)

    threads = [threading.Thread(target=lane_main, args=(lane,), daemon=True)
               for lane in lanes if lane]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - t0
    if failures:
        raise ServeClientError(f"{len(failures)} loadgen lane(s) failed; "
                               f"first: {failures[0]}") from failures[0]
    return report


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------

async def _open_loop(host: str, port: int,
                     jobs: Sequence[Mapping[str, object]],
                     rate: float) -> LoadgenReport:
    reader, writer = await asyncio.open_connection(host, port)
    report = LoadgenReport(mode="open", jobs=len(jobs), completed=0,
                           errors=0, cache_hits=0, coalesced=0,
                           wall_seconds=0.0, concurrency=rate)
    # scheduled arrival offsets: fixed inter-arrival time 1/rate
    arrivals = [i / rate for i in range(len(jobs))]
    scheduled: Dict[object, float] = {}
    outstanding = len(jobs)
    start = time.perf_counter()

    async def submit_on_schedule() -> None:
        for i, job in enumerate(jobs):
            delay = start + arrivals[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            scheduled[i] = start + arrivals[i]
            writer.write(encode_message(
                {"op": "submit", "id": i, "job": dict(job)}))
            await writer.drain()

    submitter = asyncio.ensure_future(submit_on_schedule())
    try:
        while outstanding:
            line = await reader.readline()
            if not line:
                raise ServeClientError("server closed the connection")
            if len(line) > MAX_FRAME_BYTES:
                raise ServeClientError("oversized frame")
            message = decode_message(line)
            if message.get("event") != "result":
                if message.get("event") == "accepted":
                    continue
                if not message.get("ok", True):
                    report.errors += 1
                    outstanding -= 1
                continue
            now = time.perf_counter()
            # latency from the *scheduled* arrival, not the send:
            # coordinated-omission-corrected
            report.latencies.append(now - scheduled[message.get("id")])
            if message.get("ok"):
                report.completed += 1
            else:
                report.errors += 1
            if message.get("cached"):
                report.cache_hits += 1
            if message.get("coalesced"):
                report.coalesced += 1
            outstanding -= 1
    finally:
        submitter.cancel()
        try:
            await submitter
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass
    report.wall_seconds = time.perf_counter() - start
    return report


def run_open_loop(host: str, port: int,
                  jobs: Sequence[Mapping[str, object]],
                  rate: float) -> LoadgenReport:
    """Submit ``jobs`` at a fixed arrival ``rate`` (jobs per second)."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    return asyncio.run(_open_loop(host, port, jobs, rate))


__all__ = [
    "MIX_MODELS",
    "MIX_RUN_CONFIG",
    "MIX_TECHNIQUES",
    "MIX_TESTS",
    "LoadgenReport",
    "build_job_mix",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
]
