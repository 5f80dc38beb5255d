"""Consistency models as declarative delay-arc rules (paper, Figure 1).

Each model answers one question — :meth:`ConsistencyModel.delay_arc`:
given two accesses ``a`` before ``b`` in program order, must ``a`` be
*performed* before ``b`` is allowed to perform?

Everything else derives from that relation:

* the conventional (delay-based) hardware implementation issues access
  ``b`` only when no earlier, not-yet-performed access ``a`` has
  ``delay_arc(a, b)``;
* the prefetcher targets exactly the accesses such an implementation
  delays;
* the speculative-load buffer encodes the relation in its ``acq`` and
  ``store tag`` fields (see :mod:`repro.core.speculation`);
* the litmus checker enumerates interleavings consistent with it.

Models provided: SC, PC, WCsc, RCpc (the paper's "RC"), and RCsc.
Local (same-address) and uniprocessor data/control dependences are
always enforced regardless of model — the Figure 1 caption's "as long
as local data and control dependences are observed".
"""

from __future__ import annotations

from typing import Dict, List

from .access_class import PLAIN_LOAD, PLAIN_STORE, AccessClass


class ConsistencyModel:
    """Base class; subclasses override :meth:`delay_arc`."""

    name: str = "base"
    description: str = ""

    def delay_arc(self, a: AccessClass, b: AccessClass) -> bool:
        """Must ``a`` (earlier in program order) perform before ``b``?"""
        raise NotImplementedError

    def preserves(self, a: AccessClass, b: AccessClass,
                  same_address: bool) -> bool:
        """Preserved program order, the one statement of it: does the
        model keep ``a`` (same thread, earlier) before ``b``?  Yes for
        the same address (local dependences are observed; the caller
        says what that is) and wherever the model draws a delay arc."""
        return same_address or self.delay_arc(a, b)

    # ------------------------------------------------------------------
    # Derived queries used by the hardware models
    # ------------------------------------------------------------------
    def may_perform(self, pending: List[AccessClass], b: AccessClass) -> bool:
        """May ``b`` perform while the earlier ``pending`` accesses are
        still outstanding?  (The conventional implementation's test.)"""
        return not any(self.delay_arc(a, b) for a in pending)

    def load_blocks_later_accesses(self, load: AccessClass) -> bool:
        """Does any later access wait on this load's completion?

        This is the speculative-load buffer's ``acq`` bit: under SC every
        load is treated as an acquire; under RC only true acquires are.
        """
        return (self.delay_arc(load, PLAIN_LOAD)
                or self.delay_arc(load, PLAIN_STORE))

    def load_waits_for_store(self, store: AccessClass, load: AccessClass) -> bool:
        """Must the (earlier) ``store`` perform before ``load`` performs?

        This is the speculative-load buffer's ``store tag`` field: under
        SC a load waits for the previous store; under RC it does not.
        """
        return self.delay_arc(store, load)

    def __repr__(self) -> str:
        return f"<ConsistencyModel {self.name}>"


class SequentialConsistency(ConsistencyModel):
    """Lamport's SC: all shared accesses perform in program order."""

    name = "SC"
    description = "sequential consistency: program order between all accesses"

    def delay_arc(self, a: AccessClass, b: AccessClass) -> bool:
        return True


class ProcessorConsistency(ConsistencyModel):
    """Goodman's PC: reads may bypass earlier writes; all else in order."""

    name = "PC"
    description = "processor consistency: loads may bypass earlier stores"

    def delay_arc(self, a: AccessClass, b: AccessClass) -> bool:
        # The only relaxed pair is write -> read.  An RMW is both, so an
        # RMW in either position keeps the arc (its read/write half
        # still forces the ordering).
        pure_store_then_pure_load = (a.is_store and not a.is_load
                                     and b.is_load and not b.is_store)
        return not pure_store_then_pure_load


class WeakConsistency(ConsistencyModel):
    """Dubois et al.'s WC (WCsc): ordering enforced only around syncs.

    WC does not distinguish acquires from releases: every synchronization
    access is a full fence in both directions.
    """

    name = "WC"
    description = "weak consistency: fences at synchronization accesses"

    def delay_arc(self, a: AccessClass, b: AccessClass) -> bool:
        return a.is_sync or b.is_sync


class DataRaceFree0(WeakConsistency):
    """Adve & Hill's DRF0 (paper, Section 2).

    DRF0 guarantees SC for data-race-free programs but, unlike RC,
    "does not distinguish between acquire and release accesses": every
    synchronization access is a full two-way fence.  At this
    operational abstraction its delay arcs therefore coincide with
    weak consistency's — which is why the paper says it is "similar to
    release consistency" and declines to discuss it further; we keep it
    as a distinct named model so experiments can report it explicitly,
    and inherit WC's relation rather than restate it.
    """

    name = "DRF0"
    description = "data-race-free-0: undifferentiated synchronization fences"


class ReleaseConsistency(ConsistencyModel):
    """Gharachorloo et al.'s RCpc — the paper's "RC".

    * everything after an *acquire* waits for the acquire;
    * a *release* waits for everything before it;
    * special (sync) accesses obey processor consistency among
      themselves, which the two rules above already imply except for
      release -> acquire, which RCpc leaves unordered.
    """

    name = "RC"
    description = "release consistency (RCpc): acquire/release fences only"

    def delay_arc(self, a: AccessClass, b: AccessClass) -> bool:
        return a.acquire or b.release


class ReleaseConsistencySC(ReleaseConsistency):
    """RCsc: like RCpc but sync accesses are sequentially consistent
    among themselves (release -> acquire is also enforced)."""

    name = "RCsc"
    description = "release consistency (RCsc): syncs SC among themselves"

    def delay_arc(self, a: AccessClass, b: AccessClass) -> bool:
        return a.acquire or b.release or (a.is_sync and b.is_sync)


#: Singleton instances, in strictness order.
SC = SequentialConsistency()
PC = ProcessorConsistency()
WC = WeakConsistency()
DRF0 = DataRaceFree0()
RC = ReleaseConsistency()
RCSC = ReleaseConsistencySC()

_MODELS: Dict[str, ConsistencyModel] = {
    m.name.upper(): m for m in (SC, PC, WC, DRF0, RC, RCSC)
}

ALL_MODELS = (SC, PC, WC, RC)  # the four the paper discusses


def get_model(name: str) -> ConsistencyModel:
    """Look up a model by name (case-insensitive)."""
    key = name.upper()
    if key not in _MODELS:
        raise KeyError(f"unknown consistency model {name!r}; "
                       f"available: {sorted(m.name for m in _MODELS.values())}")
    return _MODELS[key]

