"""The flags and argument checks the ``python -m repro.*`` front-ends share.

Each shared flag (``--ledger`` / ``--no-ledger``, ``--model``,
``--stats-json``) is registered here, and each argument check is a
``type=`` that asks the code owning the rule, so a misuse is a usage
error at parse time: one ``error:`` line on stderr, exit 2, nothing run.
Every front-end exits 0 when all is well, 1 on a found failure (a failed
claim or job, a race, a divergence) and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from .consistency.models import ConsistencyModel, get_model
from .isa.assembler import assemble
from .isa.program import Program
from .isa.registers import check_register
from .memory.types import LatencyConfig
from .sim.errors import ConfigurationError, IsaError


@contextlib.contextmanager
def _usage_error(error: type) -> Iterator[None]:
    try:
        yield
    except error as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def output_path(path: str) -> str:
    """A file written when the run is over, creatable before it starts."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(parent, os.W_OK):
        reason = f"{parent} is not writable"
    else:
        return path
    raise argparse.ArgumentTypeError(f"cannot write {path}: {reason}")


def program_file(path: str) -> Tuple[str, Program]:
    """An assembly file: its text and the program it assembles to."""
    try:
        with open(path) as fh:
            text = fh.read()
        return text, assemble(text)
    except (OSError, IsaError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read program {path}: {exc}") from None


def model_argument(name: str) -> ConsistencyModel:
    with _usage_error(KeyError):
        return get_model(name)


def _model_name(name: str) -> str:
    model_argument(name)
    return name


def register(name: str) -> str:
    with _usage_error(IsaError):
        return check_register(name)


def miss_latency(text: str) -> int:
    value = int(text)
    with _usage_error(ConfigurationError):
        LatencyConfig.from_miss_latency(value)
    return value


def at_least(lowest: int) -> Callable[[str], int]:
    """A count: an integer no smaller than ``lowest``."""
    def count(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value
    count.__name__ = "int"      # argparse's "invalid int value" message
    return count


def positive(text: str) -> float:
    """A rate: a number above zero."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


class _Repeatable(argparse.Action):
    """``nargs="+"`` that extends the list on each use, replacing the
    default on the first."""

    def __call__(self, parser: argparse.ArgumentParser,
                 namespace: argparse.Namespace, values: Any,
                 option_string: Optional[str] = None) -> None:
        current = getattr(namespace, self.dest)
        if current is not self.default:
            values = current + values
        setattr(namespace, self.dest, values)


def add_ledger(parser: argparse.ArgumentParser,
               appends: bool = True) -> None:
    """``--ledger FILE``, and ``--no-ledger`` where the command appends."""
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="run-ledger JSONL path (default: "
                             "$REPRO_LEDGER or .repro/ledger.jsonl)")
    if appends:
        parser.add_argument("--no-ledger", action="store_true",
                            help="do not append to the run ledger")


def append_ledger(args: argparse.Namespace, **record: Any,
                  ) -> Optional[Tuple[Dict[str, Any], str]]:
    """Append ``make_record(**record)`` to ``args.ledger`` unless
    ``args.no_ledger``; returns the record and the path it went to."""
    if args.no_ledger:
        return None
    from .obs import ledger
    made = ledger.make_record(**record)
    return made, ledger.append_record(made, args.ledger)


def add_model(parser: argparse.ArgumentParser, many: bool = False,
              default: Any = "SC", as_typed: bool = False) -> None:
    """``--model NAME``, any case; ``many`` takes several names and
    repeats, ``as_typed`` keeps the names as given, not the models."""
    if not many:
        parser.add_argument("--model", default=default, metavar="NAME",
                            type=model_argument,
                            help="consistency model: SC, PC, WC, RC, RCsc, "
                                 "DRF0 (default %(default)s)")
        return
    names = " ".join(getattr(m, "name", m) for m in default)
    parser.add_argument("--model", action=_Repeatable, nargs="+",
                        default=default, metavar="NAME",
                        type=_model_name if as_typed else model_argument,
                        help=f"consistency models (repeatable; default "
                             f"{names})")


def add_stats_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats-json", metavar="FILE", type=output_path,
                        help="write the statistics snapshot as JSON")
