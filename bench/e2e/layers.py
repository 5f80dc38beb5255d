"""Which calls the traced pass wraps, and how the per-layer metrics of
``BENCHMARK.json`` are read off the spans and the public counters.

Layer names are the repo's module names.  A ``*_s`` metric is summed
span *self* time (see :mod:`tracing`), except the kernel-internal ones
(``cpu.tick_s``, ``sim.events_s``, ``sim.kernel.ff_s``, ``.hooks_s``),
which no call boundary separates: those come from the kernel's own
``HostProfiler`` gauges, switched on for the traced pass only.
"""

from __future__ import annotations

import importlib
from collections import Counter
from typing import Dict

from repro.consistency.litmus import LitmusTest
from repro.obs.accounting import CAUSES
from repro.serve.client import ServeClient
from repro.serve.loadgen import percentile
from repro.serve.store import ResultStore
from repro.sim.batch import BatchRunner
from repro.system.machine import Multiprocessor

from tracing import Tracer
from workloads import Pass

#: (module, function, span name) for every wrapped module-level function
FUNCTIONS = (
    ("repro.verify.generator", "generate_litmus", "verify.generator"),
    ("repro.analysis.axiomatic", "axiomatic_outcomes", "analysis.axiomatic"),
    ("repro.verify.harness", "check_seed", "verify.harness"),
    ("repro.sim.sweep", "run_sweep", "sim.sweep"),
    ("repro.serve.protocol", "normalize_job", "serve.protocol.normalize"),
    ("repro.obs.ledger", "request_hash", "serve.protocol.normalize"),
    ("repro.serve.executors", "execute_job", "serve.executors.execute"),
    ("repro.obs.ledger", "append_jsonl", "obs.ledger.append"),
)

#: span names on the server side of a served job; the rest of a
#: client-observed latency is framing, asyncio, queueing, thread hops
SERVER_SIDE = ("serve.protocol.normalize", "serve.store.get",
               "serve.store.put", "serve.executors.execute",
               "obs.ledger.append", "sim.sweep", "isa.program",
               "system.build", "system.warm", "sim.kernel")

#: counters summed over every simulator run of the traced pass.  Keyed
#: by the ``RunResult.stats`` counter name minus its first component
#: (``cache0/hits`` -> ``hits``): the per-CPU and per-cache instances of
#: one counter add up.  Names without a dot are intermediate sums.
RUN_COUNTERS = {
    "instructions_retired": "sim.kernel.guest_instr",
    "hits": "memory.cache.hits",
    "misses": "memory.cache.misses",
    "mshr_merges": "memory.cache.mshr_merges",
    "invals_sent": "coherence.dir.invals_sent",
    "recalls_sent": "coherence.dir.recalls_sent",
    "messages": "coherence.net.messages",
    "prefetches_issued": "cpu.lsu.prefetches_issued",
    "prefetches_late": "prefetches_useful",
    "prefetches_useful_hit": "prefetches_useful",
    "slb/inserted": "core.speculation.slb_inserted",
    "slb/squashes": "core.speculation.squashes",
    "instructions_squashed": "cpu.instr_squashed",
    "profile/cycles": "sim.kernel.guest_cycles",
    "profile/ticks": "sim.kernel.ticks",
    "profile/fastforward/cycles": "sim.kernel.ff_cycles",
    "profile/fastforward/spans": "sim.kernel.ff_spans",
    "profile/tick_ns/Processor": "tick_ns",
    "profile/events_ns": "events_ns",
    "profile/fastforward/ns": "ff_ns",
    "profile/hooks_ns": "hooks_ns",
}
#: cycle blame, summed over the SC runs with both techniques on only
ACCOUNTING = {f"cycles/{cause.value}": f"obs.accounting.{cause.value}_cycles"
              for cause in CAUSES}


def install(tracer: Tracer) -> Counter:
    """Wrap every layer boundary; returns the counter bag the wrappers
    fill while the pass runs.  Undo with ``tracer.restore()``."""
    counts: Counter = Counter()

    def profile_on(_args: tuple, kwargs: dict) -> None:
        kwargs["profile"] = True

    def harvest(args: tuple, _cycles: object) -> None:
        machine = args[0]
        config = machine.config
        blamed = (config.model.name == "SC" and config.enable_prefetch
                  and config.enable_speculation)
        for name, value in machine.sim.stats.counters().items():
            tail = name.partition("/")[2]
            metric = RUN_COUNTERS.get(tail)
            if metric is None and blamed:
                metric = ACCOUNTING.get(tail)
            if metric is not None:
                counts[metric] += value

    def count_outcomes(_args: tuple, outcomes: object) -> None:
        counts["consistency.litmus.outcomes"] += len(outcomes)  # type: ignore[arg-type]

    for module, function, span in FUNCTIONS:
        op = None
        if function == "check_seed":
            op = lambda args, _kwargs: f"item{args[0][0]}"  # noqa: E731
        tracer.wrap(importlib.import_module(module), function, span, op=op)
    tracer.wrap(LitmusTest, "outcomes", "consistency.litmus",
                after=count_outcomes)
    tracer.wrap(LitmusTest, "to_programs", "isa.program")
    tracer.wrap(Multiprocessor, "__init__", "system.build", before=profile_on)
    tracer.wrap(Multiprocessor, "init_memory", "system.warm")
    tracer.wrap(Multiprocessor, "warm", "system.warm")
    tracer.wrap(Multiprocessor, "run", "sim.kernel", after=harvest)
    tracer.wrap(BatchRunner, "run", "sim.batch")
    tracer.wrap(ResultStore, "get", "serve.store.get",
                op=lambda args, _kwargs: args[1][:12])
    tracer.wrap(ResultStore, "put", "serve.store.put",
                op=lambda args, _kwargs: args[1][:12])
    tracer.wrap(ServeClient, "submit", "serve.client.submit")
    return counts


def per_layer(tracer: Tracer, counts: Counter, traced: Pass,
              untraced: Pass) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one workload.

    ``traced`` is the pass the spans and counters came from;
    ``untraced`` the same pass run just before without a tracer, which
    supplies the numbers tracing would distort (client latencies) and
    the base of ``trace.overhead_frac``.
    """
    spans = tracer.by_name()

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    client_s = spans.get("serve.client.submit", {}).get("total_s", 0.0)
    latencies = untraced.latencies_ms
    results = traced.results
    metrics = {
        "verify.generator.busy_s": self_s("verify.generator"),
        "verify.generator.calls": calls("verify.generator"),
        "consistency.litmus.busy_s": self_s("consistency.litmus"),
        "consistency.litmus.calls": calls("consistency.litmus"),
        "consistency.litmus.outcomes": counts["consistency.litmus.outcomes"],
        "analysis.axiomatic.busy_s": self_s("analysis.axiomatic"),
        "analysis.axiomatic.calls": calls("analysis.axiomatic"),
        "isa.program.busy_s": self_s("isa.program"),
        "isa.program.calls": calls("isa.program"),
        "system.build.busy_s": self_s("system.build"),
        "system.build.calls": calls("system.build"),
        "system.warm.busy_s": self_s("system.warm"),
        "sim.kernel.busy_s": self_s("sim.kernel"),
        "sim.kernel.calls": calls("sim.kernel"),
        "cpu.tick_s": counts["tick_ns"] / 1e9,
        "sim.events_s": counts["events_ns"] / 1e9,
        "sim.kernel.ff_s": counts["ff_ns"] / 1e9,
        "sim.kernel.hooks_s": counts["hooks_ns"] / 1e9,
        "verify.harness.busy_s": spans.get("verify.harness", {}).get(
            "total_s", 0.0),
        "sim.sweep.self_s": self_s("sim.sweep"),
        "cpu.lsu.prefetch_useful_frac": ratio(
            counts["prefetches_useful"], counts["cpu.lsu.prefetches_issued"]),
        "core.speculation.squash_frac": ratio(
            counts["core.speculation.squashes"],
            counts["core.speculation.slb_inserted"]),
        "sim.batch.busy_s": self_s("sim.batch"),
        "sim.batch.lanes": results.get("lanes", 0),
        "sim.batch.fallback_frac": results.get("fallback_frac", 0.0),
        "sim.batch.guest_cycles": results.get("guest_cycles", 0),
        "sim.batch.us_per_lane": ratio(self_s("sim.batch") * 1e6,
                                       results.get("lanes", 0)),
        "serve.protocol.normalize_s": self_s("serve.protocol.normalize"),
        "serve.store.get_s": self_s("serve.store.get"),
        "serve.store.put_s": self_s("serve.store.put"),
        "serve.executors.execute_s": self_s("serve.executors.execute"),
        "obs.ledger.append_s": self_s("obs.ledger.append"),
        "serve.wire_s": client_s - sum(
            self_s(name) for name in SERVER_SIDE) if client_s else 0.0,
        "serve.server.cache_hits": results.get("cache_hits", 0),
        "serve.server.misses": results.get("cache_misses", 0),
        "serve.server.coalesced": results.get("coalesced", 0),
        "serve.server.executed": results.get("executed", 0),
        "serve.server.hit_frac": ratio(
            results.get("cache_hits", 0),
            results.get("cache_hits", 0) + results.get("cache_misses", 0)),
        "serve.store.objects": results.get("objects", 0),
        "op_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "op_p90_ms": percentile(latencies, 90) if latencies else 0.0,
        "sc_rc_gap": results.get("sc_rc_gap", 0.0),
        "sc_speedup": results.get("sc_speedup", 0.0),
        "paper_err_frac": results.get("paper_err_frac", 0.0),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }
    for metric in list(RUN_COUNTERS.values()) + list(ACCOUNTING.values()):
        if "." in metric:
            metrics[metric] = counts[metric]
    return metrics
