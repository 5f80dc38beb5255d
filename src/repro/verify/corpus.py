"""JSON corpus of fuzzing failures — serialization and replay.

Every divergence the fuzzer finds is recorded with enough information
to reproduce it without the generator: the master seed and item index
(for provenance), the full generated test, the minimized test, and the
divergences themselves.  ``python -m repro.verify --replay corpus.json``
re-checks every entry, so a fixed bug can be pinned as a regression.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..consistency.litmus import LitmusOp, LitmusTest
from ..sim.errors import ConfigurationError
from .harness import Divergence, OracleDisagreement

#: bumped when the on-disk schema changes incompatibly; version-1
#: corpora (no oracle fields) and version-2 corpora (no localization)
#: still load — the new fields default
CORPUS_VERSION = 3


def litmus_to_dict(test: LitmusTest) -> Dict[str, object]:
    """Plain-data form of a litmus test (inverse of :func:`litmus_from_dict`)."""
    return {
        "name": test.name,
        "threads": [
            [{"op": op.op, "addr": op.addr, "reg": op.reg,
              "value": op.value, "acquire": op.acquire,
              "release": op.release}
             for op in thread]
            for thread in test.threads
        ],
        "initial": dict(test.initial),
    }


def litmus_from_dict(data: Dict[str, object]) -> LitmusTest:
    threads = [
        [LitmusOp(**op) for op in thread]  # type: ignore[arg-type]
        for thread in data["threads"]  # type: ignore[union-attr]
    ]
    initial = dict(data.get("initial", {}))  # type: ignore[call-overload]
    for addr, value in initial.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"litmus initial[{addr!r}] must be an integer, got {value!r}")
    return LitmusTest(name=str(data.get("name", "corpus")), threads=threads,
                      initial={str(k): v for k, v in initial.items()})


@dataclass
class CorpusEntry:
    """One recorded failure, replayable without the generator."""

    master_seed: int
    index: int
    derived_seed: int
    test: Dict[str, object]
    divergences: List[Dict[str, object]]
    minimized: Optional[Dict[str, object]] = None
    fault: Optional[str] = None
    oracle: str = "all"
    oracle_disagreements: List[Dict[str, object]] = field(default_factory=list)
    #: serialized LocalizationResult (verify --localize): archtrace
    #: diff reports pinning the first divergent architectural event
    localization: Optional[Dict[str, object]] = None

    def litmus(self) -> LitmusTest:
        return litmus_from_dict(self.test)

    def minimized_litmus(self) -> LitmusTest:
        return litmus_from_dict(self.minimized or self.test)


def divergence_to_dict(div: Divergence) -> Dict[str, object]:
    data = asdict(div)
    data["observed"] = [list(pair) for pair in div.observed]
    return data


def disagreement_to_dict(dis: OracleDisagreement) -> Dict[str, object]:
    data = asdict(dis)
    data["missing"] = [[list(pair) for pair in o] for o in dis.missing]
    data["extra"] = [[list(pair) for pair in o] for o in dis.extra]
    return data


@dataclass
class Corpus:
    """A versioned collection of :class:`CorpusEntry` records."""

    entries: List[CorpusEntry] = field(default_factory=list)
    version: int = CORPUS_VERSION

    def add(self, entry: CorpusEntry) -> None:
        self.entries.append(entry)

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "version": self.version,
            "entries": [asdict(entry) for entry in self.entries],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Corpus":
        """Read a corpus :meth:`save` wrote; ``ValueError`` names what
        makes any other JSON not a corpus."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: not a corpus: the payload is a "
                             f"{type(payload).__name__}, not an object")
        raw_entries = payload.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ValueError(f"{path}: not a corpus: 'entries' is not a list")
        return cls(entries=[_load_entry(path, index, raw)
                            for index, raw in enumerate(raw_entries)],
                   version=payload.get("version", 0))


def _load_entry(path: Union[str, Path], index: int,
                raw: object) -> CorpusEntry:
    where = f"{path}: entry {index}"
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: not an object")
    try:
        entry = CorpusEntry(**raw)    # unknown or missing keys: TypeError
        entry.litmus()
        entry.minimized_litmus()
    except (AttributeError, ConfigurationError, KeyError, TypeError,
            ValueError) as exc:
        raise ValueError(f"{where}: not a corpus entry: {exc!r}") from None
    return entry


def replay_corpus(corpus: Corpus,
                  minimized: bool = True) -> Sequence["CorpusEntry"]:
    """Re-check every corpus entry; returns the entries that still fail.

    ``minimized`` picks which recorded form to replay.  Faults recorded
    with an entry are re-applied, so a corpus captured against a fault
    injection replays faithfully.
    """
    from .harness import HarnessConfig, divergence_reproduces

    still_failing: List[CorpusEntry] = []
    for entry in corpus.entries:
        test = entry.minimized_litmus() if minimized else entry.litmus()
        config = HarnessConfig(fault=entry.fault, oracle=entry.oracle)
        if divergence_reproduces(test, config):
            still_failing.append(entry)
    return still_failing
