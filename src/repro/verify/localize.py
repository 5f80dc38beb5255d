"""First-divergence localization for verify failures.

When the fuzzer finds a :class:`~repro.verify.harness.Divergence`,
knowing *that* a leg diverged is the start of triage, not the end.
This module re-runs the failing leg on the scalar kernel with the
canonical architectural event stream enabled (:mod:`repro.obs.archtrace`):

* with a fault injected (the ``--fault`` self-test and any future
  in-process fault), the reference is a *clean* run — a fault is
  active only inside :func:`~repro.verify.harness.injected_fault`, so
  the localizer runs the leg once outside that scope and once inside
  it, and diffs the two (``scalar-vs-scalar``) to pin the **first
  divergent architectural event**;
* with no fault there is no clean run to compare against: the failing
  leg's archtrace (``scalar.archtrace.jsonl``) is written for triage
  with ``python -m repro.obs diff``, and no comparison is attached.

Both runs are diffed in memory.  The archtraces are written only when
an ``out_dir`` is given (``verify --localize`` gives
``<corpus>.localize/item<N>/``), so CI can upload the streams next to
the :class:`DivergenceReport`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..consistency.litmus import LitmusTest
from ..obs.accounting import per_cpu_breakdowns
from ..obs.archtrace import ArchTrace
from ..obs.diff import DivergenceReport, diff_archtraces
from ..sim.trace import TraceRecorder
from ..system.jobs import run_scalar
from .harness import (
    DEFAULT_RUN_CONFIGS,
    Divergence,
    HarnessConfig,
    Leg,
    RunConfig,
    injected_fault,
    leg_jobs,
)


@dataclass
class LocalizationResult:
    """Everything triage needs about one localized failing leg."""

    test_name: str
    model: str
    prefetch: bool
    speculation: bool
    config_name: str
    fault: Optional[str] = None
    #: comparison name (e.g. "scalar-vs-scalar") -> report
    reports: Dict[str, DivergenceReport] = field(default_factory=dict)
    #: comparison name -> (path_a, path_b) of the serialized archtraces
    artifacts: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "test_name": self.test_name,
            "model": self.model,
            "prefetch": self.prefetch,
            "speculation": self.speculation,
            "config_name": self.config_name,
            "fault": self.fault,
            "reports": {name: rep.to_dict()
                        for name, rep in self.reports.items()},
            "artifacts": {name: list(paths)
                          for name, paths in self.artifacts.items()},
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "LocalizationResult":
        # keys this class no longer has (older corpora tag the engine
        # that ran the references) are dropped; reports load as recorded
        names = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in obj.items() if key in names}
        kwargs["reports"] = {
            name: DivergenceReport.from_dict(rep)
            for name, rep in (obj.get("reports") or {}).items()}
        kwargs["artifacts"] = {
            name: tuple(paths)
            for name, paths in (obj.get("artifacts") or {}).items()}
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        leg = (f"{self.model} prefetch={self.prefetch} "
               f"speculation={self.speculation} config={self.config_name}")
        lines = [f"localized leg: {self.test_name} [{leg}]"
                 + (f" fault={self.fault}" if self.fault else "")]
        for name, rep in self.reports.items():
            lines.append(f"-- {name} --")
            lines.append(rep.describe())
        return "\n".join(lines)


def _resolve_run_config(config: HarnessConfig,
                        config_name: str) -> RunConfig:
    for rc in config.run_configs or DEFAULT_RUN_CONFIGS:
        if rc.name == config_name:
            return rc
    raise KeyError(f"unknown run config {config_name!r}")


def _trace_leg(test: LitmusTest, leg: Leg, label: str) -> ArchTrace:
    """One recorded scalar run of the leg, as its archtrace."""
    (job,), _audit = leg_jobs(test, [leg])
    trace = TraceRecorder()
    result = run_scalar(job, trace=trace).raise_if_error()
    return ArchTrace.from_events(
        trace.events, cycles=result.cycles,
        final_memory={addr: result.read_word(addr)
                      for addr in sorted(job.initial_memory or {})},
        breakdowns=per_cpu_breakdowns(result.stats, job.ncpu),
        label=label)


def localize_divergence(test: LitmusTest, divergence: Divergence,
                        config: HarnessConfig = HarnessConfig(),
                        test_name: str = "",
                        out_dir: Optional[str] = None,
                        context: int = 5) -> LocalizationResult:
    """Re-run ``divergence``'s leg with an archtrace and, under a fault,
    diff it against a clean run (see the module docstring)."""
    leg = (divergence.model, divergence.prefetch, divergence.speculation,
           _resolve_run_config(config, divergence.config_name))
    loc = LocalizationResult(
        test_name=test_name or divergence.test_name,
        model=divergence.model,
        prefetch=divergence.prefetch,
        speculation=divergence.speculation,
        config_name=divergence.config_name,
        fault=config.fault,
    )

    def run(stem: str) -> ArchTrace:
        return _trace_leg(test, leg, label=f"{loc.test_name} {stem}")

    def write(archtrace: ArchTrace, stem: str) -> str:
        assert out_dir is not None
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{stem}.archtrace.jsonl")
        archtrace.write_jsonl(path)
        return path

    if not config.fault:
        if out_dir is not None:
            write(run("scalar"), "scalar")
        return loc
    clean = run("clean-scalar")
    with injected_fault(config.fault):
        faulted = run("faulted-scalar")
    name = "scalar-vs-scalar"
    loc.reports[name] = diff_archtraces(
        clean, faulted, label_a="clean-scalar", label_b="faulted-scalar",
        context=context)
    if out_dir is not None:
        loc.artifacts[name] = (write(clean, "clean-scalar"),
                               write(faulted, "faulted-scalar"))
    return loc


def localize_failure(test: LitmusTest, divergences: List[Divergence],
                     config: HarnessConfig = HarnessConfig(),
                     test_name: str = "",
                     out_dir: Optional[str] = None) -> Optional[LocalizationResult]:
    """Localize the first divergence of a failing check (or None when
    the failure carried no Divergence, e.g. pure oracle disagreement)."""
    if not divergences:
        return None
    return localize_divergence(test, divergences[0], config=config,
                               test_name=test_name, out_dir=out_dir)
