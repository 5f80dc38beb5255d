"""Observability: cycle accounting, effectiveness metrics, trace export.

The paper's results are *normalized execution-time breakdowns*; this
package reproduces that accounting on the detailed simulator and adds
the modern tooling around it — per-cause cycle blame
(:mod:`~repro.obs.accounting`), prefetch/speculation effectiveness
counters (:mod:`~repro.obs.effectiveness`), Chrome/Perfetto timeline export
(:mod:`~repro.obs.perfetto`), the canonical architectural event
stream (:mod:`~repro.obs.archtrace`) and its
first-divergence differ (:mod:`~repro.obs.diff`).
``python -m repro.obs`` is the CLI.

A campaign's metrics are a :class:`~repro.sim.stats.StatsRegistry`
that ``repro.verify`` fills from its sweep's results, exposed for
Prometheus by :mod:`repro.obs.prometheus`; its span trace is
:func:`~repro.obs.perfetto.export_span_trace` over the sweep's
per-item stamps.  :mod:`repro.obs.ledger` is the content-addressed run
ledger.  All three are stdlib-only and imported lazily by the
orchestration layers.

Import discipline: this package is imported by the processor core, so
only modules that depend on nothing above ``repro.sim`` are pulled in
here.  The heavyweight report layer (:mod:`repro.obs.report`, which
needs workloads and the sweep engine) must be imported explicitly by
entry points.
"""

from .accounting import (
    CAUSES,
    PAPER_CAUSES,
    CycleAccountant,
    CycleBreakdown,
    StallCause,
    breakdown_from_stats,
    machine_breakdown,
    per_cpu_breakdowns,
)
from .effectiveness import (
    PrefetchEffectiveness,
    SpeculationEffectiveness,
    prefetch_effectiveness,
    speculation_effectiveness,
)
from .archtrace import (
    ARCHTRACE_VERSION,
    ArchEvent,
    ArchTrace,
    derive_arch_event,
)
from .diff import DivergenceReport, diff_archtraces
from .ledger import (
    LEDGER_SCHEMA,
    append_record,
    ledger_stats,
    make_record,
    read_ledger,
    request_hash,
)
from .perfetto import (
    export_chrome_trace,
    to_trace_events,
    trace_warnings,
    validate_trace_events,
    validate_trace_file,
)

__all__ = [
    "ARCHTRACE_VERSION",
    "ArchEvent",
    "ArchTrace",
    "CAUSES",
    "PAPER_CAUSES",
    "CycleAccountant",
    "CycleBreakdown",
    "DivergenceReport",
    "LEDGER_SCHEMA",
    "PrefetchEffectiveness",
    "SpeculationEffectiveness",
    "StallCause",
    "append_record",
    "breakdown_from_stats",
    "derive_arch_event",
    "diff_archtraces",
    "export_chrome_trace",
    "ledger_stats",
    "machine_breakdown",
    "make_record",
    "per_cpu_breakdowns",
    "prefetch_effectiveness",
    "read_ledger",
    "request_hash",
    "speculation_effectiveness",
    "to_trace_events",
    "trace_warnings",
    "validate_trace_events",
    "validate_trace_file",
]
