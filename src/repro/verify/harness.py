"""Differential conformance checking: a three-way oracle.

The paper's central claim is that prefetching and speculative loads
are *invisible* to the consistency model.  The harness checks exactly
that, mechanically, against **three independent semantics**:

1. the *interleaving enumerator* (:meth:`LitmusTest.outcomes`):
   exhaustive linearization under the model's delay arcs, Section 2's
   write-atomicity assumption;
2. the *axiomatic checker* (:mod:`repro.analysis.axiomatic`):
   herd-style candidate executions accepted by per-model acyclicity
   axioms — no simulation, no interleaving, just relations;
3. the *detailed simulator*: what the machine actually does.

The first two must produce **identical** outcome sets for every
(test, model); every outcome the simulator produces — under any
technique combination, cache geometry, or thread-start skew — must be
a member of both.  ``HarnessConfig.oracle`` selects the legs: ``sim``
(simulator vs enumerator, the historical check), ``axiomatic``
(enumerator vs axioms, purely static and therefore cheap enough for
huge fuzz slices), or ``all`` (the default three-way).

``check_seed`` is the sweep-engine worker: a picklable item in, a
picklable :class:`CheckResult` out, so fuzzing parallelizes across
processes.  ``check_named`` is its sibling for the named litmus suite.
A small **fault registry** can deliberately break the speculative-load
buffer while one check's simulator legs run (:func:`injected_fault`);
the fuzzer finding those mutations proves the harness has teeth.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..consistency.litmus import LitmusTest, Outcome
from ..consistency.models import get_model
from ..memory.types import CacheConfig
from ..sim.errors import ConfigurationError
from ..system.jobs import BatchJob, BatchResult, run_scalar

#: the four models the paper discusses, by name (names pickle smaller
#: and more robustly than model instances)
MODEL_NAMES: Tuple[str, ...] = ("SC", "PC", "WC", "RC")

#: which oracle legs the harness runs — see the module docstring
ORACLE_MODES: Tuple[str, ...] = ("sim", "axiomatic", "all")

#: (prefetch, speculation) combinations the harness drives
TECHNIQUE_COMBOS: Tuple[Tuple[bool, bool], ...] = (
    (False, False),
    (True, False),
    (False, True),
    (True, True),
)


@dataclass(frozen=True)
class RunConfig:
    """One machine/environment configuration for a litmus run."""

    name: str
    miss_latency: int = 40
    #: per-thread start-time skews (indexed modulo thread count)
    skew: Tuple[int, ...] = (0,)
    #: pre-install every shared litmus line SHARED in every cache, so
    #: loads hit (and perform early) while stores still pay the
    #: ownership latency — the widest reordering window
    warm_shared: bool = True
    line_size: int = 4
    max_cycles: int = 400_000


#: default configuration axis: contention windows of different shapes,
#: plus a false-sharing geometry (footnote 2: litmus locations x/y/data
#: share one 32-word line, so conservative line-granular detection fires)
DEFAULT_RUN_CONFIGS: Tuple[RunConfig, ...] = (
    RunConfig(name="warm-tight", miss_latency=40, skew=(0, 0), warm_shared=True),
    RunConfig(name="warm-skewed", miss_latency=40, skew=(0, 40, 7, 23),
              warm_shared=True),
    RunConfig(name="cold-skewed", miss_latency=20, skew=(13, 0, 29, 5),
              warm_shared=False),
    RunConfig(name="false-sharing", miss_latency=40, skew=(0, 11, 3, 17),
              warm_shared=True, line_size=32),
)


@dataclass
class HarnessConfig:
    """What the differential harness sweeps per test."""

    models: Tuple[str, ...] = MODEL_NAMES
    techniques: Tuple[Tuple[bool, bool], ...] = TECHNIQUE_COMBOS
    run_configs: Tuple[RunConfig, ...] = DEFAULT_RUN_CONFIGS
    #: name of a registered fault to inject while the simulator legs
    #: run (self-test only; see :func:`injected_fault`)
    fault: Optional[str] = None
    #: which oracle legs to run: "sim", "axiomatic", or "all"
    oracle: str = "all"
    #: ``"host:port"`` of a running ``repro.serve`` job server; when
    #: set, the simulator legs are submitted there (and answered from
    #: its content-addressed cache) instead of running in-process
    server: Optional[str] = None


#: one simulator leg: (model name, prefetch, speculation, run config)
Leg = Tuple[str, bool, bool, RunConfig]


@dataclass(frozen=True)
class Divergence:
    """One observed outcome outside an oracle's permitted set.

    ``oracle`` names the reference set the outcome fell outside:
    ``"enumerator"`` (also outside the axiomatic set when both legs
    agree) or ``"axiomatic"`` (inside the enumerator's set but outside
    the axiomatic one — only possible while the static oracles
    themselves disagree).
    """

    test_name: str
    model: str
    prefetch: bool
    speculation: bool
    config_name: str
    observed: Outcome
    permitted_count: int
    oracle: str = "enumerator"

    def describe(self) -> str:
        tech = (f"prefetch={'on' if self.prefetch else 'off'} "
                f"speculation={'on' if self.speculation else 'off'}")
        obs = ", ".join(f"{reg}={val}" for reg, val in self.observed)
        return (f"{self.test_name} under {self.model} [{tech}, "
                f"{self.config_name}]: observed ({obs}) is outside the "
                f"{self.permitted_count} permitted outcome(s) "
                f"of the {self.oracle} oracle")


@dataclass(frozen=True)
class OracleDisagreement:
    """The two static oracles disagree on one (test, model).

    ``missing`` outcomes are permitted by the interleaving enumerator
    but rejected by the axioms; ``extra`` outcomes are admitted by the
    axioms but never reached by the enumerator.  Either is a bug in
    one of the two implementations — the sets are provably equal.
    """

    test_name: str
    model: str
    missing: Tuple[Outcome, ...]
    extra: Tuple[Outcome, ...]

    def describe(self) -> str:
        def fmt(outcomes: Tuple[Outcome, ...]) -> str:
            return "; ".join(
                "(" + ", ".join(f"{r}={v}" for r, v in o) + ")"
                for o in outcomes) or "none"
        return (f"{self.test_name} under {self.model}: axiomatic and "
                f"enumerated outcome sets differ — missing {fmt(self.missing)}"
                f" / extra {fmt(self.extra)}")


@dataclass
class CheckResult:
    """Everything one fuzz item produced (picklable)."""

    index: int
    seed: int
    test_name: str
    num_runs: int = 0
    #: distinct ordering relations the enumerator solved (models that
    #: order the test alike share one)
    orderings: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    oracle_disagreements: List[OracleDisagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.oracle_disagreements


# ----------------------------------------------------------------------
# Fault injection (the fuzzer's self-test)
# ----------------------------------------------------------------------

def _fault_slb_deaf() -> Callable[[], None]:
    """The speculative-load buffer ignores every coherence snoop.

    Speculative loads then retire stale values: the exact bug class
    Section 4.2's detection mechanism exists to prevent.
    """
    from ..core.speculation import SpeculativeLoadBuffer

    original = SpeculativeLoadBuffer.on_snoop
    SpeculativeLoadBuffer.on_snoop = (  # type: ignore[method-assign]
        lambda self, kind, line_addr: [])

    def undo() -> None:
        SpeculativeLoadBuffer.on_snoop = original  # type: ignore[method-assign]
    return undo


def _fault_slb_forgets_acquires() -> Callable[[], None]:
    """SLB entries never carry the ``acq`` bit, so loads retire before
    the ordering constraint they stand for is satisfied."""
    from ..core.speculation import SlbEntry

    original_init = SlbEntry.__init__

    def init(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        original_init(self, *args, **kwargs)
        self.acq = False

    SlbEntry.__init__ = init  # type: ignore[method-assign]

    def undo() -> None:
        SlbEntry.__init__ = original_init  # type: ignore[method-assign]
    return undo


#: each fault applies a monkeypatch and returns an undo callable
FAULTS = {
    "slb-deaf": _fault_slb_deaf,
    "slb-forgets-acquires": _fault_slb_forgets_acquires,
}


@contextmanager
def injected_fault(name: Optional[str]) -> Iterator[None]:
    """Apply the registered fault ``name`` for the duration of the
    block and undo it on exit (``None`` injects nothing), so a fault
    never outlives the check that asked for it."""
    if name is None:
        yield
        return
    if name not in FAULTS:
        raise ConfigurationError(
            f"unknown fault {name!r}; available: {sorted(FAULTS)}")
    undo = FAULTS[name]()
    try:
        yield
    finally:
        undo()


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------

def observed_outcome(test: LitmusTest, model_name: str, prefetch: bool,
                     speculation: bool, run_config: RunConfig) -> Outcome:
    """Run the detailed machine once and read back the final registers."""
    return _observed_outcomes(
        test, [(model_name, prefetch, speculation, run_config)])[0]


def check_test(test: LitmusTest, config: HarnessConfig = HarnessConfig(),
               index: int = 0, seed: int = 0) -> CheckResult:
    """Differentially check one litmus test across the whole config axis.

    Depending on ``config.oracle`` this runs the static
    axiomatic-vs-enumerator crosscheck (``"axiomatic"``/``"all"``) and
    the simulator sweep (``"sim"``/``"all"``).  Pure-axiomatic mode
    never touches the simulator, so it fuzzes orders of magnitude more
    tests per second.
    """
    _validate(config)
    out = CheckResult(index=index, seed=seed, test_name=test.name)
    reference, axiomatic = _static_oracles(test, config, out)
    legs = _sim_legs(config) if config.oracle in ("sim", "all") else []
    if legs:
        if config.server is not None:
            outcomes = _server_outcomes(test, legs, config.server)
        else:
            with injected_fault(config.fault):
                outcomes = _observed_outcomes(test, legs)
        _classify_outcomes(test, out, legs, outcomes, reference, axiomatic)
    return out


def _validate(config: HarnessConfig) -> None:
    if config.oracle not in ORACLE_MODES:
        raise ConfigurationError(
            f"unknown oracle mode {config.oracle!r}; "
            f"available: {ORACLE_MODES}")
    if config.server is not None and config.fault is not None:
        # faults are in-process monkeypatches; a remote server never
        # sees them, so the combination would silently test nothing
        raise ConfigurationError(
            "fault injection is incompatible with --server: faults "
            "monkeypatch this process, not the job server")


def _static_oracles(
        test: LitmusTest, config: HarnessConfig, out: CheckResult,
) -> Tuple[Dict[str, FrozenSet[Outcome]], Dict[str, FrozenSet[Outcome]]]:
    """Run the static legs: enumerator always, axioms when selected.

    Returns the per-model permitted sets, records how many distinct
    orderings were solved and appends any :class:`OracleDisagreement`
    onto ``out``.
    """
    # a model is its delay arcs (Figure 1): models that order this test
    # alike pose the enumerator one problem, solved once per call
    solved: Dict[Tuple[int, ...], FrozenSet[Outcome]] = {}
    reference: Dict[str, FrozenSet[Outcome]] = {}
    for model_name in config.models:
        model = get_model(model_name)
        relation = test.ordering(model)
        if relation not in solved:
            solved[relation] = test.outcomes(model)
        reference[model_name] = solved[relation]
    out.orderings = len(solved)

    axiomatic: Dict[str, FrozenSet[Outcome]] = {}
    if config.oracle in ("axiomatic", "all"):
        from ..analysis.axiomatic import axiomatic_outcomes

        for model_name in config.models:
            axiomatic[model_name] = axiomatic_outcomes(
                test, get_model(model_name))
            if axiomatic[model_name] != reference[model_name]:
                out.oracle_disagreements.append(OracleDisagreement(
                    test_name=test.name,
                    model=model_name,
                    missing=tuple(sorted(
                        reference[model_name] - axiomatic[model_name])),
                    extra=tuple(sorted(
                        axiomatic[model_name] - reference[model_name])),
                ))
    return reference, axiomatic


def _sim_legs(config: HarnessConfig) -> List[Leg]:
    """The simulator sweep's (model, prefetch, speculation, config) axis."""
    return [(model_name, prefetch, speculation, run_config)
            for model_name in config.models
            for prefetch, speculation in config.techniques
            for run_config in config.run_configs]


def _classify_outcomes(test: LitmusTest, out: CheckResult,
                       legs: Sequence[Leg],
                       outcomes: Sequence[Outcome],
                       reference: Dict[str, FrozenSet[Outcome]],
                       axiomatic: Dict[str, FrozenSet[Outcome]]) -> None:
    """Check each observed outcome against the oracle sets."""
    for (model_name, prefetch, speculation, run_config), observed in zip(
            legs, outcomes):
        permitted = reference[model_name]
        ax_permitted = axiomatic.get(model_name)
        out.num_runs += 1
        if observed not in permitted:
            out.divergences.append(Divergence(
                test_name=test.name,
                model=model_name,
                prefetch=prefetch,
                speculation=speculation,
                config_name=run_config.name,
                observed=observed,
                permitted_count=len(permitted),
                oracle="enumerator",
            ))
        elif ax_permitted is not None and observed not in ax_permitted:
            # only reachable while the static oracles disagree:
            # the simulator sided with the enumerator
            out.divergences.append(Divergence(
                test_name=test.name,
                model=model_name,
                prefetch=prefetch,
                speculation=speculation,
                config_name=run_config.name,
                observed=observed,
                permitted_count=len(ax_permitted),
                oracle="axiomatic",
            ))


def _observed_outcomes(test: LitmusTest,
                       legs: Sequence[Leg]) -> List[Outcome]:
    """Observed outcome per leg, in leg order: each of :func:`leg_jobs`
    runs on the scalar kernel, one after another, so a leg that
    deadlocks raises its :class:`~repro.sim.errors.DeadlockError`
    before the legs after it run."""
    jobs, audit_maps = leg_jobs(test, legs)
    return [_job_outcome(run_scalar(job), audit_map)
            for job, audit_map in zip(jobs, audit_maps)]


def leg_jobs(test: LitmusTest, legs: Sequence[Leg],
             ) -> Tuple[List[BatchJob], List[Dict[str, int]]]:
    """One :class:`~repro.system.jobs.BatchJob` — the arguments of
    ``run_workload`` — plus its audit map per leg.

    This is the only place programs, start skew, warm lines, initial
    memory and cache geometry are derived from a :class:`RunConfig`;
    the fuzzer, the localizer and the job server's executors all run
    what it returns.
    """
    addresses = test.addresses()
    nthreads = len(test.threads)
    initial_memory = {addr: 0 for addr in addresses.values()}
    programs_by_skew: Dict[Tuple[int, ...], tuple] = {}
    jobs: List[BatchJob] = []
    audit_maps: List[Dict[str, int]] = []
    for model_name, prefetch, speculation, run_config in legs:
        skew = tuple(run_config.skew[t % len(run_config.skew)]
                     for t in range(nthreads))
        cached = programs_by_skew.get(skew)
        if cached is None:
            # program objects are shared across models/techniques so the
            # runner's per-program compile memoization can kick in
            cached = programs_by_skew[skew] = test.to_programs(delays=skew)
        programs, audit_map = cached
        warm: Tuple[Tuple[int, int, bool], ...] = ()
        if run_config.warm_shared:
            warm = tuple((cpu, addr, False)
                         for cpu in range(nthreads)
                         for addr in addresses.values())
        jobs.append(BatchJob(
            programs=programs,
            model_name=model_name,
            prefetch=prefetch,
            speculation=speculation,
            miss_latency=run_config.miss_latency,
            initial_memory=initial_memory,
            warm_lines=warm,
            cache=CacheConfig(line_size=run_config.line_size),
            max_cycles=run_config.max_cycles,
        ))
        audit_maps.append(audit_map)
    return jobs, audit_maps


def _server_outcomes(test: LitmusTest, legs: Sequence[Leg],
                     server: str) -> List[Outcome]:
    """Observed outcome per leg, submitted to a ``repro.serve`` server.

    Each leg becomes one protocol job carrying the test inline (the
    corpus serialization), so the server needs no shared filesystem.
    The server's executors run the same :func:`leg_jobs` and
    determinism is pinned, so these outcomes are bit-identical to
    in-process runs — repeated legs (the fuzzer
    resubmitting a seed, overlapping sweeps) come back from the
    content-addressed cache without touching a simulator.  The client
    connection is cached per (process, endpoint): sweep worker
    processes each dial their own.
    """
    from ..serve.client import parse_endpoint, shared_client
    from .corpus import litmus_to_dict

    host, port = parse_endpoint(server)
    client = shared_client(host, port)
    litmus = litmus_to_dict(test)
    jobs = [{
        "test": {"litmus": litmus},
        "model": model_name,
        "prefetch": prefetch,
        "speculation": speculation,
        # every field but the display-only name
        "run_config": {key: value
                       for key, value in asdict(run_config).items()
                       if key != "name"},
    } for model_name, prefetch, speculation, run_config in legs]
    outcomes: List[Outcome] = []
    for result in client.submit_many(jobs):
        if not result.ok:
            raise RuntimeError(f"server-side leg failed: {result.error}")
        outcomes.append(result.outcome())
    return outcomes


def _job_outcome(res: BatchResult, audit_map: Dict[str, int]) -> Outcome:
    """Read one job's final registers (raising what a scalar run would)."""
    res.raise_if_error()
    return tuple(sorted(
        (reg, res.read_word(slot)) for reg, slot in audit_map.items()))


def divergence_reproduces(test: LitmusTest,
                          config: HarnessConfig = HarnessConfig()) -> bool:
    """Does *any* divergence show up for this test?  (Minimizer oracle.)"""
    return not check_test(test, config).ok


# ----------------------------------------------------------------------
# Sweep-engine worker
# ----------------------------------------------------------------------

def _harness_config(options: Mapping[str, object]) -> HarnessConfig:
    """The :class:`HarnessConfig` a sweep item's options dict asks for."""
    return HarnessConfig(
        fault=options.get("fault"),  # type: ignore[arg-type]
        oracle=str(options.get("oracle", "all")),
        server=options.get("server"),  # type: ignore[arg-type]
    )


def check_seed(item: Tuple[int, int, Dict[str, object]]) -> CheckResult:
    """Fuzz one derived seed: generate, then differentially check.

    ``item`` is ``(index, derived_seed, options)`` where ``options``
    may carry ``"generator"`` (a :class:`GeneratorConfig` dict) and
    ``"fault"`` (a registered fault name).  Everything is plain data so
    the sweep engine can ship items to worker processes.
    """
    from .generator import GeneratorConfig, generate_litmus

    index, seed, options = item
    test = generate_litmus(seed, GeneratorConfig.from_dict(
        dict(options.get("generator", {}))))  # type: ignore[arg-type]
    return check_test(test, _harness_config(options), index=index, seed=seed)


def check_named(item: Tuple[int, str, Dict[str, object]]) -> CheckResult:
    """Check one *named* suite test: ``(index, test_name, options)``.

    The sweep-engine sibling of :func:`check_seed` for
    ``python -m repro.verify --suite`` — same options dict, but the
    test comes from :data:`STANDARD_TESTS` instead of the generator.
    """
    from ..consistency.litmus import STANDARD_TESTS

    index, name, options = item
    if name not in STANDARD_TESTS:
        raise ConfigurationError(
            f"unknown litmus test {name!r}; available: "
            f"{sorted(STANDARD_TESTS)}")
    return check_test(STANDARD_TESTS[name](), _harness_config(options),
                      index=index, seed=0)
