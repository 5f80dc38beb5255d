"""Axiomatic (declarative) memory-model checker — the static oracle.

The paper's four models are defined operationally twice over: by the
detailed simulator and by the interleaving-based litmus enumerator.
This package gives each model a third, *independent* definition in the
herd7 style — candidate executions as relational structures (po, rf,
co, derived fr) accepted iff the model's acyclicity axiom holds — and
exposes :func:`axiomatic_outcomes`, which returns the same
``FrozenSet[Outcome]`` shape as :meth:`LitmusTest.outcomes` so the two
can be compared set-for-set by the differential harness
(``python -m repro.verify --oracle all``).

Run ``python -m repro.analysis.axiomatic`` for the named-suite
crosscheck, per-model axiom tables, and worked witness derivations.
"""

from .axioms import ATOMICITY_AXIOM, AxiomSet, axioms_for, render_axiom_table
from .checker import (
    OracleComparison,
    accepting_witness,
    axiomatic_outcomes,
    candidate_executions,
    clear_caches,
    compare_with_enumerator,
)
from .relations import (
    CandidateExecution,
    Event,
    acyclic,
    build_events,
    ppo_masks,
)

__all__ = [
    "ATOMICITY_AXIOM",
    "AxiomSet",
    "CandidateExecution",
    "Event",
    "OracleComparison",
    "accepting_witness",
    "acyclic",
    "axiomatic_outcomes",
    "axioms_for",
    "build_events",
    "candidate_executions",
    "clear_caches",
    "compare_with_enumerator",
    "ppo_masks",
    "render_axiom_table",
]
