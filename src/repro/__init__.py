"""repro — a reproduction of Gharachorloo, Gupta & Hennessy (ICPP 1991),
"Two Techniques to Enhance the Performance of Memory Consistency Models".

The package implements the paper's two techniques — hardware-controlled
non-binding **prefetch** and **speculative execution for loads** — on
top of a full software model of the hardware the paper assumes: a
dynamically scheduled processor with a reorder buffer, reservation
stations and branch prediction, lockup-free coherent caches over a
DASH-style directory protocol, and the SC/PC/WC/RC consistency models.

Quick start::

    from repro import run_workload, SC, RC
    from repro.isa import ProgramBuilder

    program = (ProgramBuilder()
               .lock_optimistic(addr=16, tag="lock")
               .store_imm(1, addr=32, tag="write A")
               .unlock(addr=16, tag="unlock")
               .build())
    base = run_workload([program], model=SC)
    fast = run_workload([program], model=SC, prefetch=True, speculation=True)
    print(base.cycles, "->", fast.cycles)

Layer map (see DESIGN.md for the full inventory):

==================  ====================================================
``repro.sim``       deterministic cycle/event simulation kernel
``repro.isa``       instruction set, programs, assembler
``repro.memory``    lockup-free caches, interconnect
``repro.coherence`` directory protocol (invalidate + update variants)
``repro.cpu``       out-of-order core (ROB, RS, branch pred., LSU)
``repro.consistency`` SC/PC/WC/RC delay-arc rules + litmus checker
``repro.core``      the paper's contribution: prefetcher, speculative-
                    load buffer, and the analytical timing model
``repro.system``    multiprocessor assembly and run drivers
``repro.workloads`` paper examples, Figure 5 scenario, synthetic loads
``repro.baselines`` Section 6's competing schemes
``repro.analysis``  experiment runners and text tables
==================  ====================================================
"""

from .consistency import ALL_MODELS, PC, RC, RCSC, SC, WC, get_model
from .core import (
    AccessSpec,
    AnalyticalTimingModel,
    SpeculativeLoadBuffer,
    TimingConfig,
)
from .cpu import Processor, ProcessorConfig
from .isa import Program, ProgramBuilder, assemble
from .memory import CacheConfig, LatencyConfig
from .sim import Simulator, StatsRegistry, TraceRecorder
from .system import MachineConfig, Multiprocessor, RunResult, run_workload
from .workloads import run_figure5

__version__ = "1.0.0"

__all__ = [
    "ALL_MODELS",
    "AccessSpec",
    "AnalyticalTimingModel",
    "CacheConfig",
    "LatencyConfig",
    "MachineConfig",
    "Multiprocessor",
    "PC",
    "Processor",
    "ProcessorConfig",
    "Program",
    "ProgramBuilder",
    "RC",
    "RCSC",
    "RunResult",
    "SC",
    "Simulator",
    "SpeculativeLoadBuffer",
    "StatsRegistry",
    "TimingConfig",
    "TraceRecorder",
    "WC",
    "assemble",
    "get_model",
    "run_figure5",
    "run_workload",
    "__version__",
]
