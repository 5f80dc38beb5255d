"""Job specifications and the newline-delimited JSON wire protocol.

One *job* is one simulation request — exactly the arguments of a
single ``run_workload`` call, expressed as plain JSON so it can cross
a socket, land in a ledger, and key a content-addressed cache:

* a **test**: a named standard litmus test (``{"name": "sb"}``), a
  generator seed (``{"seed": 7, "generator": {...}}``), or an inline
  litmus dict (``{"litmus": {...}}`` in the corpus serialization);
* a **model** (``"SC"``/``"PC"``/``"WC"``/``"RC"``) and the two
  technique flags (``prefetch``, ``speculation``);
* a **run_config**: the machine/environment knobs of
  :class:`repro.verify.harness.RunConfig` (miss latency, per-thread
  skews, warm-shared lines, line size, cycle budget).

:func:`normalize_job` fills every default and validates, producing the
**canonical job**: a fully-determined plain dict whose
:func:`repro.obs.ledger.request_hash` is the cache key.  Everything
result-determining is in the canonical form; nothing about execution
shape (executor choice, worker count) is, so a job served by
a pool worker hashes — and must answer — identically to one served by
an in-process run.  Determinism is pinned by the
differential suites, which is what makes results cacheable forever.

Wire format: one JSON object per line (``\\n``-delimited, UTF-8), in
both directions.  Client ops: ``submit``, ``stats``, ``metrics``,
``ping``, ``shutdown``.  Server events: ``accepted`` then exactly one
``result`` per submit, plus one-shot responses.  See
``docs/serving.md`` for the full message catalogue.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..consistency.litmus import STANDARD_TESTS, LitmusTest
from ..consistency.models import get_model
from ..obs.ledger import request_hash
from ..sim.errors import ConfigurationError
from ..verify.corpus import litmus_from_dict, litmus_to_dict
from ..verify.generator import GeneratorConfig, generate_litmus
from ..verify.harness import RunConfig

#: bump when the canonical job layout changes incompatibly (the schema
#: string is hashed with the job, so old cache entries can never alias
#: new-format requests)
JOB_SCHEMA = "repro-serve-job/1"

#: wire protocol version, exchanged in ping/pong
PROTOCOL_VERSION = "repro-serve/1"

#: client -> server operations
CLIENT_OPS = ("submit", "stats", "metrics", "ping", "shutdown")


class ProtocolError(ValueError):
    """A malformed message or job specification."""


# ----------------------------------------------------------------------
# Job canonicalization
# ----------------------------------------------------------------------

_JOB_KEYS = frozenset({"schema", "test", "model", "prefetch", "speculation",
                       "run_config"})
_RUN_CONFIG_KEYS = frozenset({"miss_latency", "skew", "warm_shared",
                              "line_size", "max_cycles", "name"})
_RUN_CONFIG_DEFAULTS = RunConfig(name="serve")


def _flag(raw: Mapping[str, object], key: str, default: bool,
          where: str = "") -> bool:
    """``raw[key]`` (or ``default``), which must be a JSON boolean: a
    string or a number is a typo, not a flag."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{where}{key} must be true or false, "
                            f"got {value!r}")
    return value


def _integer(value: object, name: str) -> int:
    """``value``, which must be a JSON integer (not a boolean, a float
    or a numeric string) and is then called ``name`` in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


def _canonical_run_config(raw: Mapping[str, object]) -> Dict[str, object]:
    defaults = _RUN_CONFIG_DEFAULTS
    unknown = set(raw) - _RUN_CONFIG_KEYS
    if unknown:
        raise ProtocolError(f"unknown run_config key(s): {sorted(unknown)}")
    skew_raw = raw.get("skew", defaults.skew)
    if not isinstance(skew_raw, (list, tuple)):
        raise ProtocolError(f"run_config.skew must be a list of integers, "
                            f"got {skew_raw!r}")
    skew = [_integer(s, f"run_config.skew[{i}]")
            for i, s in enumerate(skew_raw)]

    def integer(key: str) -> int:
        return _integer(raw.get(key, getattr(defaults, key)),
                        f"run_config.{key}")

    miss_latency = integer("miss_latency")
    line_size = integer("line_size")
    max_cycles = integer("max_cycles")
    warm_shared = _flag(raw, "warm_shared", defaults.warm_shared,
                        "run_config.")
    try:
        RunConfig(name="serve", miss_latency=miss_latency,
                  skew=tuple(skew), warm_shared=warm_shared,
                  line_size=line_size, max_cycles=max_cycles)
    except ConfigurationError as exc:
        raise ProtocolError(f"bad run_config: {exc}") from None
    if max_cycles > MAX_JOB_CYCLES:
        raise ProtocolError(
            f"run_config.max_cycles must be <= {MAX_JOB_CYCLES}")
    if max(skew) > max_cycles:
        # a skew of d cycles compiles to d dependent instructions, so
        # that thread cannot finish within max_cycles
        raise ProtocolError("run_config.skew entries must be <= max_cycles")
    config: Dict[str, object] = {
        "miss_latency": miss_latency,
        "skew": skew,
        "warm_shared": warm_shared,
        "line_size": line_size,
        "max_cycles": max_cycles,
    }
    # "name" is a display label, not result-determining: excluded from
    # the canonical form so it can never split the cache
    return config


def _canonical_test(raw: Mapping[str, object]) -> Dict[str, object]:
    keys = set(raw) & {"name", "seed", "litmus"}
    if len(keys) != 1:
        raise ProtocolError(
            "test must have exactly one of 'name' (standard suite), "
            f"'seed' (generator), or 'litmus' (inline); got {sorted(raw)}")
    if "name" in keys:
        name = str(raw["name"])
        if name not in STANDARD_TESTS:
            raise ProtocolError(f"unknown litmus test {name!r}; available: "
                                f"{sorted(STANDARD_TESTS)}")
        return {"name": name}
    if "seed" in keys:
        seed = _integer(raw["seed"], "test.seed")
        try:
            gen = GeneratorConfig.from_dict(
                dict(raw.get("generator", {})))  # type: ignore[arg-type]
        except (TypeError, ConfigurationError) as exc:
            raise ProtocolError(f"bad generator config: {exc}") from None
        _known_addresses(gen.addr_pool, "test.generator.addr_pool")
        return {"seed": seed, "generator": gen.to_dict()}
    try:
        test = litmus_from_dict(dict(raw["litmus"]))  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ProtocolError(f"bad inline litmus test: {exc}") from None
    _known_addresses([op.addr for thread in test.threads for op in thread
                      if op.op != "F"] + list(test.initial),
                     "test.litmus address")
    return {"litmus": litmus_to_dict(test)}


def _known_addresses(addrs: Iterable[str], name: str) -> None:
    """Refuse a location the simulator has no address for."""
    unknown = sorted(set(addrs) - set(LitmusTest.ADDR_MAP))
    if unknown:
        raise ProtocolError(f"{name} {unknown[0]!r} is not one of "
                            f"{sorted(LitmusTest.ADDR_MAP)}")


def normalize_job(job: Mapping[str, object]) -> Dict[str, object]:
    """Validate a job and return its **canonical** form.

    The canonical job is fully defaulted and key-sorted-at-hash-time;
    two logically identical requests always canonicalize to the same
    dict, so :func:`job_hash` is a stable content address.
    """
    if not isinstance(job, Mapping):
        raise ProtocolError(f"job must be an object, "
                            f"got {type(job).__name__}")
    unknown = set(job) - _JOB_KEYS
    if unknown:
        raise ProtocolError(f"unknown job key(s): {sorted(unknown)}")
    schema = job.get("schema", JOB_SCHEMA)
    if schema != JOB_SCHEMA:
        raise ProtocolError(f"job schema must be {JOB_SCHEMA!r}, "
                            f"got {schema!r}")
    test_raw = job.get("test")
    if not isinstance(test_raw, Mapping):
        raise ProtocolError("job.test must be an object")
    model = str(job.get("model", "SC"))
    try:
        get_model(model)
    except (KeyError, ConfigurationError, ValueError):
        raise ProtocolError(f"unknown model {model!r}") from None
    run_config_raw = job.get("run_config", {})
    if not isinstance(run_config_raw, Mapping):
        raise ProtocolError("job.run_config must be an object")
    return {
        "schema": JOB_SCHEMA,
        "test": _canonical_test(test_raw),
        "model": model,
        "prefetch": _flag(job, "prefetch", False),
        "speculation": _flag(job, "speculation", False),
        "run_config": _canonical_run_config(run_config_raw),
    }


def job_hash(job: Mapping[str, object]) -> str:
    """The content-addressed cache key: SHA-256 of the canonical job."""
    return request_hash(normalize_job(job))


def resolve_test(spec: Mapping[str, object]):
    """Materialize the canonical test spec as a :class:`LitmusTest`."""
    if "name" in spec:
        return STANDARD_TESTS[str(spec["name"])]()
    if "seed" in spec:
        return generate_litmus(
            int(spec["seed"]),  # type: ignore[call-overload]
            GeneratorConfig.from_dict(dict(spec.get("generator", {}))))  # type: ignore[arg-type]
    return litmus_from_dict(dict(spec["litmus"]))  # type: ignore[arg-type]


def run_config_from_spec(spec: Mapping[str, object]):
    """The canonical run_config dict as a harness :class:`RunConfig`."""
    # the canonical dict holds every field but the display-only name
    return RunConfig(**{**spec, "name": "serve",
                        "skew": tuple(spec["skew"])})  # type: ignore[arg-type]


def make_job(test: Mapping[str, object],
             model: str = "SC",
             prefetch: bool = False,
             speculation: bool = False,
             run_config: Optional[Mapping[str, object]] = None,
             ) -> Dict[str, object]:
    """Convenience constructor returning a canonical job."""
    return normalize_job({
        "test": test,
        "model": model,
        "prefetch": prefetch,
        "speculation": speculation,
        "run_config": run_config or {},
    })


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def outcome_pairs(result: Mapping[str, object]) -> Tuple[Tuple[str, int], ...]:
    """The result's outcome in the harness's canonical tuple shape."""
    return tuple(sorted((str(reg), int(val))  # type: ignore[call-overload]
                        for reg, val in result["outcome"]))  # type: ignore[union-attr]


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------

#: refuse absurd frames before json-parsing them (a stray binary
#: connection must not balloon memory)
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: what a longer frame is answered with, whoever measures it
FRAME_TOO_LONG = f"frame exceeds {MAX_FRAME_BYTES} bytes"

#: refuse jobs with a larger cycle budget: a skew may be as large as the
#: budget and compiles to one program address per cycle, so without a
#: bound a ~100-byte job could make the executor build a program of any
#: length
MAX_JOB_CYCLES = 4_000_000


_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def encode_message(message: Mapping[str, object]) -> bytes:
    """One message -> one NDJSON line (UTF-8, trailing newline)."""
    line = _encode(message)
    if "\n" in line:  # pragma: no cover - json never emits raw newlines
        raise ProtocolError("encoded message must be newline-free")
    return line.encode() + b"\n"


def decode_message(line: bytes) -> Dict[str, object]:
    """One NDJSON line -> one message dict."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(FRAME_TOO_LONG)
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be an object, got {type(message).__name__}")
    return message


__all__ = [
    "CLIENT_OPS",
    "FRAME_TOO_LONG",
    "JOB_SCHEMA",
    "MAX_FRAME_BYTES",
    "MAX_JOB_CYCLES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "job_hash",
    "make_job",
    "normalize_job",
    "outcome_pairs",
    "resolve_test",
    "run_config_from_spec",
]
