"""The paper's contribution: prefetch, speculative loads, analytic timing."""

from .prefetch import HardwarePrefetcher
from .sc_detection import PotentialViolation, ScViolationDetector
from .speculation import (
    Correction,
    CorrectionKind,
    SlbEntry,
    SpeculativeLoadBuffer,
)
from .timing import (
    AccessSpec,
    AccessTiming,
    AnalyticalTimingModel,
    ScheduleResult,
    TimingConfig,
)

__all__ = [
    "AccessSpec",
    "AccessTiming",
    "AnalyticalTimingModel",
    "Correction",
    "CorrectionKind",
    "HardwarePrefetcher",
    "PotentialViolation",
    "ScViolationDetector",
    "ScheduleResult",
    "SlbEntry",
    "SpeculativeLoadBuffer",
    "TimingConfig",
]
