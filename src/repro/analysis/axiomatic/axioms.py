"""Per-model axioms: the declarative face of the model zoo.

Each consistency model is characterized by one acyclicity axiom over a
candidate execution's relations.  Writing ``com = rf ∪ co ∪ fr``:

    accept(execution)  iff  acyclic( ppo(model) ∪ com )

where ``ppo(model)`` — the *preserved program order* — is derived
mechanically from the model's operational delay-arc relation over
:class:`~repro.consistency.access_class.AccessClass` pairs, always
augmented with same-address program order (local data dependences).
For SC, ppo is all of po and the axiom is the classical

    acyclic(po ∪ rf ∪ co ∪ fr)

characterization of sequential consistency; the weaker models keep the
same communication relations and simply preserve fewer po edges.  RMW
atomicity is structural: an atomic read-modify-write is one event whose
read half observes its immediate coherence predecessor, which is the
``fr ; co`` exclusion (no foreign store between the value read and the
value written).

Because ``ppo`` is *derived* from ``delay_arc``, any model registered
with :mod:`repro.consistency.models` — including RCsc, DRF0, and
future TSO/PSO-style delay-arc variants — is checkable here with no
axiomatic-side changes, and its axiom set below is rendered from the
same relation over Figure 1's access classes, so the prose cannot
drift from the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...consistency.access_class import FIGURE1_CLASSES
from ...consistency.models import ConsistencyModel

ATOMICITY_AXIOM = ("rmw-atomicity: an RMW reads its immediate co-predecessor "
                   "(empty fr;co into the RMW's write)")


@dataclass(frozen=True)
class AxiomSet:
    """The declarative specification of one consistency model."""

    model: str
    #: which program-order edges the model preserves
    ppo_rule: str
    #: the acceptance condition over the candidate execution
    axiom: str
    notes: str = ""

    def render(self) -> str:
        lines = [f"{self.model}:",
                 f"  ppo   = {self.ppo_rule}",
                 f"  axiom = {self.axiom}",
                 f"          {ATOMICITY_AXIOM}"]
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def ppo_rule(model: ConsistencyModel) -> str:
    """``model``'s preserved program order in words: all of po, or the
    pairs of Figure 1's access classes it keeps (or, when that list is
    shorter, drops), plus same-address po."""
    kept, dropped = [], []
    for name_a, a in FIGURE1_CLASSES:
        for name_b, b in FIGURE1_CLASSES:
            pair = f"{name_a}→{name_b}"
            (kept if model.preserves(a, b, same_address=False)
             else dropped).append(pair)
    if not dropped:
        return "po"
    if len(kept) <= len(dropped):
        return f"po ∩ {{{', '.join(kept)}}}, plus same-address po"
    return f"po \\ {{{', '.join(dropped)}}}, plus same-address po"


def axioms_for(model: ConsistencyModel) -> AxiomSet:
    """The axiom set of ``model``, rendered from its delay arcs."""
    rule = ppo_rule(model)
    ppo = "po" if rule == "po" else "ppo"
    return AxiomSet(model=model.name, ppo_rule=rule,
                    axiom=f"acyclic({ppo} ∪ rf ∪ co ∪ fr)",
                    notes=model.description)


def render_axiom_table(models) -> str:
    """The axiom summary the CLI and docs print."""
    return "\n\n".join(axioms_for(m).render() for m in models)
