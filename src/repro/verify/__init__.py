"""Differential conformance verification (``python -m repro.verify``).

The fuzzer ties the repo's *three* semantics together: random litmus
tests from :mod:`.generator`, the reference outcome sets from
exhaustive enumeration, the declarative outcome sets from the
axiomatic checker (:mod:`repro.analysis.axiomatic`), and the observed
outcomes from the detailed simulator — checked against each other
across models, techniques, and machine configurations by
:mod:`.harness` (``HarnessConfig.oracle`` selects the legs), with
failures minimized (:mod:`.minimize`) and recorded for replay
(:mod:`.corpus`).
"""

from .corpus import (
    Corpus,
    CorpusEntry,
    disagreement_to_dict,
    divergence_to_dict,
    litmus_from_dict,
    litmus_to_dict,
    replay_corpus,
)
from .generator import DEFAULT_ADDR_POOL, GeneratorConfig, generate_litmus
from .harness import (
    DEFAULT_RUN_CONFIGS,
    FAULTS,
    MODEL_NAMES,
    ORACLE_MODES,
    TECHNIQUE_COMBOS,
    CheckResult,
    Divergence,
    HarnessConfig,
    OracleDisagreement,
    RunConfig,
    check_named,
    check_seed,
    check_test,
    divergence_reproduces,
    injected_fault,
    leg_jobs,
    observed_outcome,
)
from .minimize import MinimizationResult, minimize

__all__ = [
    "Corpus",
    "CorpusEntry",
    "CheckResult",
    "DEFAULT_ADDR_POOL",
    "DEFAULT_RUN_CONFIGS",
    "Divergence",
    "FAULTS",
    "GeneratorConfig",
    "HarnessConfig",
    "MODEL_NAMES",
    "MinimizationResult",
    "ORACLE_MODES",
    "OracleDisagreement",
    "RunConfig",
    "TECHNIQUE_COMBOS",
    "check_named",
    "check_seed",
    "check_test",
    "disagreement_to_dict",
    "divergence_reproduces",
    "divergence_to_dict",
    "generate_litmus",
    "injected_fault",
    "leg_jobs",
    "litmus_from_dict",
    "litmus_to_dict",
    "minimize",
    "observed_outcome",
    "replay_corpus",
]
