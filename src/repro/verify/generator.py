"""Seeded random litmus-program generation.

A generated test is a :class:`~repro.consistency.litmus.LitmusTest` —
2–4 threads of loads, stores, atomic RMWs, and fences over a small
shared-address pool, with per-model-relevant synchronization
annotations (acquire loads/RMWs, release stores/RMWs) sprinkled in.
The litmus form gives the *reference* outcome set (exhaustive
enumeration under each model); :meth:`LitmusTest.to_programs` gives
the executable form the detailed simulator runs.

Generation is a pure function of the seed: the same
``(seed, GeneratorConfig)`` always yields the same test, which is what
makes corpus replay and cross-process fuzzing deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..consistency.litmus import LitmusOp, LitmusTest
from ..sim.errors import ConfigurationError

#: symbolic locations drawn from LitmusTest.ADDR_MAP
DEFAULT_ADDR_POOL: Tuple[str, ...] = ("x", "y", "data", "flag")


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape knobs for random litmus tests.

    The default caps keep exhaustive outcome enumeration affordable
    (``LitmusTest`` itself rejects more than
    ``LitmusTest.MAX_ACCESSES``, and so does ``max_total_ops``) while
    still covering 2–4 CPUs and every op kind.
    """

    min_cpus: int = 2
    max_cpus: int = 4
    min_ops_per_thread: int = 1
    max_ops_per_thread: int = 4
    max_total_ops: int = 9
    addr_pool: Tuple[str, ...] = DEFAULT_ADDR_POOL
    #: number of distinct shared locations a single test draws from
    max_addrs: int = 3
    #: op-kind weights: (load, store, rmw, fence)
    op_weights: Tuple[float, float, float, float] = (4.0, 4.0, 1.0, 1.0)
    #: probability that a load/RMW is an acquire, a store/RMW a release
    sync_probability: float = 0.25
    max_value: int = 3

    def __post_init__(self) -> None:
        # a config can arrive as JSON: refuse what the generator would
        # only trip over later (2.5 as a count, "0.5" as a probability)
        for name in ("min_cpus", "max_cpus", "min_ops_per_thread",
                     "max_ops_per_thread", "max_total_ops", "max_addrs",
                     "max_value"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}")
        weights = self.op_weights
        if (len(weights) != 4 or not all(map(_is_number, weights))
                or min(weights) < 0 or not sum(weights) > 0):
            raise ConfigurationError(
                f"op_weights must be 4 non-negative numbers (load, store, "
                f"rmw, fence) with a positive sum, got {list(weights)!r}")
        if (not _is_number(self.sync_probability)
                or not 0 <= self.sync_probability <= 1):
            raise ConfigurationError(
                f"sync_probability must be a number in [0, 1], "
                f"got {self.sync_probability!r}")
        if not 2 <= self.min_cpus <= self.max_cpus:
            raise ConfigurationError("need 2 <= min_cpus <= max_cpus")
        if self.min_ops_per_thread > self.max_ops_per_thread:
            raise ConfigurationError(
                "need min_ops_per_thread <= max_ops_per_thread")
        if self.max_cpus * self.min_ops_per_thread > self.max_total_ops:
            raise ConfigurationError("max_total_ops too small for max_cpus")
        if self.max_total_ops > LitmusTest.MAX_ACCESSES:
            raise ConfigurationError(
                f"max_total_ops must be at most {LitmusTest.MAX_ACCESSES}, "
                f"the most accesses a LitmusTest enumerates")
        for name in ("max_addrs", "max_value"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if not self.addr_pool:
            raise ConfigurationError("addr_pool must not be empty")

    def to_dict(self) -> Dict[str, object]:
        return {
            "min_cpus": self.min_cpus,
            "max_cpus": self.max_cpus,
            "min_ops_per_thread": self.min_ops_per_thread,
            "max_ops_per_thread": self.max_ops_per_thread,
            "max_total_ops": self.max_total_ops,
            "addr_pool": list(self.addr_pool),
            "max_addrs": self.max_addrs,
            "op_weights": list(self.op_weights),
            "sync_probability": self.sync_probability,
            "max_value": self.max_value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GeneratorConfig":
        kwargs = dict(data)
        for key in ("addr_pool", "op_weights"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ConfigurationError(
                        f"{key} must be a list, got {kwargs[key]!r}")
                kwargs[key] = tuple(kwargs[key])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


def _is_number(value: object) -> bool:
    """A finite int or float that is not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _draw_op(rng: random.Random, config: GeneratorConfig,
             addrs: Sequence[str], reg_name: str) -> LitmusOp:
    kind = rng.choices(("R", "W", "U", "F"), weights=config.op_weights)[0]
    if kind == "F":
        return LitmusOp(op="F")
    addr = rng.choice(list(addrs))
    sync = rng.random() < config.sync_probability
    if kind == "R":
        return LitmusOp(op="R", addr=addr, reg=reg_name, acquire=sync)
    value = rng.randint(1, config.max_value)
    if kind == "W":
        return LitmusOp(op="W", addr=addr, value=value, release=sync)
    # RMW: an acquire, a release, or plain — never silently both
    flavor = rng.choice(("plain", "acquire", "release"))
    return LitmusOp(op="U", addr=addr, reg=reg_name, value=value,
                    acquire=sync and flavor == "acquire",
                    release=sync and flavor == "release")


def _is_interesting(threads: Sequence[Sequence[LitmusOp]]) -> bool:
    """At least two threads touch a common address, one of them writing —
    otherwise the test cannot distinguish any two models."""
    touched: Dict[str, set] = {}
    written: Dict[str, set] = {}
    for tid, ops in enumerate(threads):
        for op in ops:
            if op.op == "F":
                continue
            touched.setdefault(op.addr, set()).add(tid)
            if op.writes:
                written.setdefault(op.addr, set()).add(tid)
    for addr, toucher_tids in touched.items():
        if len(toucher_tids) >= 2 and written.get(addr):
            return True
    return False


def generate_litmus(seed: int, config: GeneratorConfig = GeneratorConfig(),
                    name: str = "") -> LitmusTest:
    """The random litmus test for ``seed`` (pure, deterministic)."""
    rng = random.Random(seed)
    for attempt in range(64):
        num_cpus = rng.randint(config.min_cpus, config.max_cpus)
        addrs = rng.sample(list(config.addr_pool),
                           min(config.max_addrs, len(config.addr_pool),
                               1 + rng.randint(0, config.max_addrs - 1)))
        budget = config.max_total_ops - num_cpus * config.min_ops_per_thread
        threads: List[List[LitmusOp]] = []
        reg_serial = 0
        for tid in range(num_cpus):
            extra = rng.randint(
                0, min(config.max_ops_per_thread - config.min_ops_per_thread,
                       budget))
            budget -= extra
            ops: List[LitmusOp] = []
            for _ in range(config.min_ops_per_thread + extra):
                reg_serial += 1
                ops.append(_draw_op(rng, config, addrs,
                                    f"t{tid}r{reg_serial}"))
            threads.append(ops)
        if _is_interesting(threads):
            return LitmusTest(name=name or f"fuzz-{seed}", threads=threads)
    # With sane configs 64 attempts essentially never all miss; fall
    # back to a canonical store-buffering shape so callers always get
    # a usable test for any seed.
    return LitmusTest(
        name=name or f"fuzz-{seed}",
        threads=[
            [LitmusOp(op="W", addr=config.addr_pool[0], value=1),
             LitmusOp(op="R", addr=config.addr_pool[-1], reg="t0r1")],
            [LitmusOp(op="W", addr=config.addr_pool[-1], value=1),
             LitmusOp(op="R", addr=config.addr_pool[0], reg="t1r2")],
        ],
    )
