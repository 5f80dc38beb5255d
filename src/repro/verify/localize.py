"""First-divergence localization for verify failures.

When the fuzzer finds a :class:`~repro.verify.harness.Divergence` (or a
backend-parity failure), knowing *that* a leg diverged is the start of
triage, not the end.  This module re-runs the failing leg with the
canonical architectural event stream enabled (:mod:`repro.obs.archtrace`)
and diffs it against reference runs to pin the **first divergent
architectural event**:

* with a fault injected (the ``--fault`` self-test and any future
  in-process fault), the references are *clean* runs — a fault is
  active only inside :func:`~repro.verify.harness.injected_fault`, so
  the localizer runs a clean scalar and a clean batched reference,
  then the subject inside that scope, and diffs the faulted subject
  against both (``scalar-vs-scalar`` and ``scalar-vs-batched``);
* with no fault, the failure is either a genuine model bug or a
  backend-parity break, and the localizer runs the leg on both
  backends and diffs them (``scalar-vs-batched``).

Honesty note: fault legs run with ``speculation=True``, which is
outside the batched engine's envelope — the "batched" reference is then
transparently routed to the scalar kernel and its archtrace header
says so (``backend: scalar``, ``fallback_reason: ...``), exactly the
tagging the runner applies to any unsupported job.

Every archtrace is also written to ``out_dir`` (when given) so CI can
upload the paired streams next to the :class:`DivergenceReport`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..consistency.litmus import LitmusTest
from ..obs.diff import DivergenceReport, diff_archtraces
from .harness import (
    DEFAULT_RUN_CONFIGS,
    Divergence,
    HarnessConfig,
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
    backend: str
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
            "backend": self.backend,
            "fault": self.fault,
            "reports": {name: rep.to_dict()
                        for name, rep in self.reports.items()},
            "artifacts": {name: list(paths)
                          for name, paths in self.artifacts.items()},
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "LocalizationResult":
        kwargs = dict(obj)
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


def _run_leg(test: LitmusTest, model: str, prefetch: bool,
             speculation: bool, run_config: RunConfig,
             force_scalar: bool):
    """One archtrace-enabled run of the leg; returns the BatchResult."""
    from ..sim.batch import BatchRunner

    jobs, _audit = leg_jobs(
        test, [(model, prefetch, speculation, run_config)])
    jobs[0].archtrace = True
    result = BatchRunner(force_scalar=force_scalar).run(jobs)[0]
    result.raise_if_error()
    return result


def localize_divergence(test: LitmusTest, divergence: Divergence,
                        config: HarnessConfig = HarnessConfig(),
                        test_name: str = "",
                        out_dir: Optional[str] = None,
                        context: int = 5) -> LocalizationResult:
    """Re-run ``divergence``'s leg with archtraces and diff it against
    reference runs (see module docstring for the comparison matrix)."""
    run_config = _resolve_run_config(config, divergence.config_name)
    leg = (divergence.model, divergence.prefetch, divergence.speculation,
           run_config)
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="repro-localize-")
    os.makedirs(out_dir, exist_ok=True)

    loc = LocalizationResult(
        test_name=test_name or divergence.test_name,
        model=divergence.model,
        prefetch=divergence.prefetch,
        speculation=divergence.speculation,
        config_name=divergence.config_name,
        backend=config.backend,
        fault=config.fault,
    )

    def write(result, stem: str) -> str:
        path = os.path.join(out_dir, f"{stem}.archtrace.jsonl")
        result.write_archtrace(path, label=f"{loc.test_name} {stem}")
        return path

    if config.fault:
        ref_scalar = _run_leg(test, *leg[:3], run_config, force_scalar=True)
        ref_batched = _run_leg(test, *leg[:3], run_config,
                               force_scalar=False)
        with injected_fault(config.fault):
            subject = _run_leg(test, *leg[:3], run_config,
                               force_scalar=True)
        p_subject = write(subject, "faulted-scalar")
        p_ref_s = write(ref_scalar, "clean-scalar")
        p_ref_b = write(ref_batched, "clean-batched")
        pairs = [("scalar-vs-scalar", p_ref_s, p_subject),
                 ("scalar-vs-batched", p_ref_b, p_subject)]
    else:
        subject_scalar = _run_leg(test, *leg[:3], run_config,
                                  force_scalar=True)
        subject_batched = _run_leg(test, *leg[:3], run_config,
                                   force_scalar=False)
        p_s = write(subject_scalar, "scalar")
        p_b = write(subject_batched, "batched")
        pairs = [("scalar-vs-batched", p_s, p_b)]

    for name, path_a, path_b in pairs:
        loc.reports[name] = diff_archtraces(
            path_a, path_b,
            label_a=os.path.basename(path_a).replace(".archtrace.jsonl", ""),
            label_b=os.path.basename(path_b).replace(".archtrace.jsonl", ""),
            context=context)
        loc.artifacts[name] = (path_a, path_b)
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
