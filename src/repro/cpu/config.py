"""Processor configuration."""

from __future__ import annotations

from dataclasses import dataclass

from ..consistency.models import SC, ConsistencyModel
from ..sim.errors import ConfigurationError


@dataclass
class ProcessorConfig:
    """Sizing and feature knobs for one dynamically-scheduled core.

    The defaults model a processor in the spirit of Johnson's design
    (Figure 3): modest superscalar width, a reorder buffer providing
    register renaming / precise interrupts, reservation stations per
    functional unit, and the load/store unit of Figure 4.

    ``enable_prefetch`` and ``enable_speculation`` are the paper's two
    techniques; both default off (the *conventional* implementation).
    """

    model: ConsistencyModel = SC
    width: int = 2                  # fetch/decode and retire width per cycle
    rob_size: int = 32
    alu_rs_size: int = 16
    ls_rs_size: int = 16
    store_buffer_size: int = 16
    slb_size: int = 16              # speculative-load buffer entries
    alu_count: int = 2
    enable_prefetch: bool = False
    enable_speculation: bool = False
    #: run the Section 6 extension: monitor accesses that perform
    #: outside their SC window and report potential SC violations
    #: (detection only; no correction)
    enable_sc_detection: bool = False
    prefetches_per_cycle: int = 1

    def __post_init__(self) -> None:
        for name in ("width", "rob_size", "alu_rs_size", "ls_rs_size",
                     "store_buffer_size", "slb_size", "alu_count",
                     "prefetches_per_cycle"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"ProcessorConfig.{name} must be >= 1")
