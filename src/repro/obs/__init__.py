"""Observability: cycle accounting, trace export, the run ledger.

The paper's results are *normalized execution-time breakdowns*; this
package reproduces that accounting on the detailed simulator and adds
the modern tooling around it — per-cause cycle blame
(:mod:`~repro.obs.accounting`), Chrome/Perfetto timeline export
(:mod:`~repro.obs.perfetto`), the canonical architectural event
stream (:mod:`~repro.obs.archtrace`) and its first-divergence differ
(:mod:`~repro.obs.diff`).  ``python -m repro.obs`` is the CLI.  The
run report that reads a run's counters into one record per CPU —
activity, cycle blame, prefetch and speculative-load outcomes — is
:mod:`repro.analysis.summary`.

A campaign's metrics are a :class:`~repro.sim.stats.StatsRegistry`
that ``repro.verify`` fills from its sweep's results, exposed for
Prometheus by :mod:`repro.obs.prometheus`; its span trace is
:func:`~repro.obs.perfetto.export_span_trace` over the sweep's
per-item stamps.  :mod:`repro.obs.ledger` is the content-addressed run
ledger.  All three are stdlib-only and imported lazily by the
orchestration layers.

Import discipline: this package is imported by the processor core, so
its modules import nothing from the layers built on the core —
``repro.system``, ``repro.workloads``, ``repro.analysis`` — except
:mod:`repro.obs.cli`, an entry point
(``tests/test_import_hygiene.py``).
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
    "read_ledger",
    "request_hash",
    "to_trace_events",
    "trace_warnings",
    "validate_trace_events",
    "validate_trace_file",
]
