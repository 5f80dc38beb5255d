"""The full multiprocessor: N out-of-order cores over the memory fabric.

This is the top-level entry point of the detailed simulator.  A
:class:`Multiprocessor` takes one program per CPU, a machine
configuration (consistency model, techniques, latencies, cache
geometry), and runs to completion.

A convenience one-shot, :func:`run_workload`, covers the common
experiment pattern: build, warm, run, return a :class:`RunResult`.

A machine's life cycle is wire -> reset -> warm -> run, and then, for
another run of the same programs, reset -> warm -> run again:
:meth:`Multiprocessor.reset` re-arms it, under another consistency model
and technique flags if asked, in exactly the state a new build would
have.  :func:`run_machine` is the warm -> run tail every run goes
through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..consistency.models import ConsistencyModel, SC
from ..cpu.config import ProcessorConfig
from ..cpu.processor import Processor
from ..isa.program import Program
from ..memory.types import CacheConfig, LatencyConfig
from ..obs.accounting import CycleBreakdown, machine_breakdown, per_cpu_breakdowns
from ..sim.errors import ConfigurationError
from ..sim.kernel import Simulator
from ..sim.state import reset
from ..sim.profiler import HostProfiler
from ..sim.stats import StatsRegistry
from ..sim.trace import TraceRecorder
from .agent import ScriptedAgent
from .fabric import MemoryFabric


@dataclass
class MachineConfig:
    """Everything needed to build a multiprocessor."""

    model: ConsistencyModel = SC
    enable_prefetch: bool = False
    enable_speculation: bool = False
    cache: CacheConfig = field(default_factory=CacheConfig)
    latencies: LatencyConfig = field(default_factory=lambda: LatencyConfig.from_miss_latency(100))
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)

    def processor_config(self) -> ProcessorConfig:
        return replace(
            self.processor,
            model=self.model,
            enable_prefetch=self.enable_prefetch,
            enable_speculation=self.enable_speculation,
        )


@dataclass
class RunResult:
    cycles: int
    stats: StatsRegistry
    machine: "Multiprocessor"

    def counter(self, name: str) -> int:
        """A registered counter's value: reading one never registers it,
        and a name no component registered raises a ``KeyError``."""
        counters = self.stats.counters(name)
        if name not in counters:
            raise KeyError(f"no counter {name!r} is registered")
        return counters[name]

    def breakdowns(self) -> List[CycleBreakdown]:
        """Per-CPU cycle-cause breakdowns (each sums to ``cycles``)."""
        return per_cpu_breakdowns(self.stats, len(self.machine.processors))

    def breakdown(self) -> CycleBreakdown:
        """All CPUs' cycle causes summed."""
        return machine_breakdown(self.stats, len(self.machine.processors))


class Multiprocessor:
    def __init__(
        self,
        programs: Sequence[Program],
        config: Optional[MachineConfig] = None,
        trace: Optional[TraceRecorder] = None,
        extra_agents: int = 0,
        profile: Union[bool, HostProfiler] = False,
        fast_forward: bool = True,
    ) -> None:
        if not programs:
            raise ConfigurationError("need at least one program")
        self.config = config or MachineConfig()
        self.trace = trace or TraceRecorder(enabled=False)
        self.sim = Simulator(profile=profile, fast_forward=fast_forward)
        self.fabric = MemoryFabric(
            self.sim,
            num_cpus=len(programs),
            cache_config=self.config.cache,
            latencies=self.config.latencies,
            trace=self.trace,
        )
        pconfig = self.config.processor_config()
        self.processors: List[Processor] = []
        for cpu_id, program in enumerate(programs):
            proc = Processor(cpu_id, self.sim, program,
                             self.fabric.caches[cpu_id], pconfig,
                             trace=self.trace)
            self.sim.register(proc)
            self.processors.append(proc)
        self.agents: List[ScriptedAgent] = [
            ScriptedAgent(f"agent{i}", self.sim, self.fabric.net,
                          line_size=self.config.cache.line_size)
            for i in range(extra_agents)
        ]
        # every component reset itself when it was built: sealing the
        # statistics is all that is left of a fresh machine's state
        self.sim.stats.seal()

    def reset(self, model: ConsistencyModel, prefetch: bool,
              speculation: bool) -> None:
        """Re-arm the machine for another run of the same programs.

        Afterwards it is exactly what ``Multiprocessor(programs,
        config)`` with these three fields of ``config`` replaced would
        be right after construction: clock at 0, every buffer, cache and
        the directory empty, memory zero, every wired statistic zero and
        every other one gone (so the technique units and their counters
        follow the flags).  The trace recorder and the profiler stay
        attached; the profiler counts from zero again.
        """
        self.config = replace(self.config, model=model,
                              enable_prefetch=prefetch,
                              enable_speculation=speculation)
        self.sim.reset()
        self.sim.stats.reset()
        self.fabric.reset()
        pconfig = self.config.processor_config()
        for proc in self.processors:
            proc.config = pconfig
            reset(proc)
        for agent in self.agents:
            agent.reset()

    # ------------------------------------------------------------------
    def init_memory(self, values: Dict[int, int]) -> None:
        self.fabric.init_memory(values)

    def warm(self, cpu: int, addr: int, exclusive: bool = False) -> None:
        self.fabric.warm(cpu, addr, exclusive=exclusive)

    def read_word(self, addr: int) -> int:
        return self.fabric.read_word(addr)

    def reg(self, cpu: int, name: str) -> int:
        return self.processors[cpu].regfile.read(name)

    # ------------------------------------------------------------------
    def done(self) -> bool:
        # asked once per kernel step: plain loops, no generators
        for proc in self.processors:
            if not proc.finished:
                return False
        for proc in self.processors:
            if not proc.lsu.is_empty():
                return False
        return self.fabric.is_quiescent()

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Run until every program finishes and all memory traffic drains."""
        return self.sim.run(until=self.done, max_cycles=max_cycles,
                            deadlock_check=False)


def run_workload(
    programs: Sequence[Program],
    model: ConsistencyModel = SC,
    prefetch: bool = False,
    speculation: bool = False,
    miss_latency: int = 100,
    initial_memory: Optional[Dict[int, int]] = None,
    warm_lines: Sequence[Tuple[int, int, bool]] = (),
    cache: Optional[CacheConfig] = None,
    processor: Optional[ProcessorConfig] = None,
    trace: Optional[TraceRecorder] = None,
    max_cycles: int = 1_000_000,
    extra_agents: int = 0,
    profile: Union[bool, HostProfiler] = False,
    fast_forward: bool = True,
) -> RunResult:
    """Build a machine, warm it, run it, and return the result.

    ``profile`` enables the kernel's host-side self-profiler (pass
    ``True`` or a configured :class:`~repro.sim.profiler.HostProfiler`);
    the run then carries ``host/profile/*`` gauges in its stats.

    ``fast_forward=False`` forces the kernel onto the naive
    step-every-cycle path (results are bit-identical either way; the
    differential kernel test pins this).
    """
    config = MachineConfig(
        model=model,
        enable_prefetch=prefetch,
        enable_speculation=speculation,
        latencies=LatencyConfig.from_miss_latency(miss_latency),
        cache=cache or CacheConfig(),
        processor=processor or ProcessorConfig(),
    )
    machine = Multiprocessor(programs, config, trace=trace,
                             extra_agents=extra_agents, profile=profile,
                             fast_forward=fast_forward)
    return run_machine(machine, initial_memory, warm_lines, max_cycles)


def run_machine(
    machine: Multiprocessor,
    initial_memory: Optional[Dict[int, int]] = None,
    warm_lines: Sequence[Tuple[int, int, bool]] = (),
    max_cycles: int = 1_000_000,
) -> RunResult:
    """Initialize memory, warm the caches and run a machine that was
    just built or re-armed; the result reads the machine, so it holds
    until the machine's next :meth:`~Multiprocessor.reset`."""
    if initial_memory:
        machine.init_memory(initial_memory)
    for cpu, addr, exclusive in warm_lines:
        machine.warm(cpu, addr, exclusive=exclusive)
    cycles = machine.run(max_cycles=max_cycles)
    return RunResult(cycles=cycles, stats=machine.sim.stats, machine=machine)
