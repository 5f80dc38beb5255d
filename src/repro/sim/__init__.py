"""Simulation kernel: deterministic clock, events, components, stats, traces."""

from .errors import (
    AssemblerError,
    ConfigurationError,
    DeadlockError,
    IsaError,
    ProtocolError,
    SimulationError,
)
from .events import EventQueue
from .kernel import WAKE_NEVER, Component, Simulator
from .profiler import HostHeartbeat, HostProfiler
from .stats import Counter, Histogram, StatsRegistry, format_stats_table
from .sweep import (
    ProgressMeter,
    SweepError,
    SweepResult,
    derive_seed,
    format_duration,
    run_sweep,
)
from .trace import TraceEvent, TraceRecorder, read_jsonl

__all__ = [
    "AssemblerError",
    "Component",
    "ConfigurationError",
    "Counter",
    "DeadlockError",
    "EventQueue",
    "Histogram",
    "HostHeartbeat",
    "HostProfiler",
    "IsaError",
    "ProgressMeter",
    "ProtocolError",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "SweepError",
    "SweepResult",
    "TraceEvent",
    "TraceRecorder",
    "WAKE_NEVER",
    "derive_seed",
    "format_duration",
    "format_stats_table",
    "read_jsonl",
    "run_sweep",
]
