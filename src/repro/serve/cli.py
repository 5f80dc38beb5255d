"""Simulation-service command line (``python -m repro.serve``).

Subcommands::

    serve     start the job server (runs until a shutdown op)
    submit    submit a job set and print a JSON summary (CI-parseable)
    replay    re-submit every job from a captured request log
    loadgen   drive a synthetic open- or closed-loop load and report
              latency percentiles
    stats     query a running server's counters
    metrics   dump a running server's Prometheus exposition
    shutdown  stop a running server

Examples::

    python -m repro.serve serve --store .repro/serve --port 7719
    python -m repro.serve submit --port 7719 --mix 24
    python -m repro.serve submit --port 7719 --test SB --test MP \\
        --model SC --model WC --techniques all
    python -m repro.serve replay .repro/serve/requests.jsonl --port 7719
    python -m repro.serve loadgen --port 7719 --mode closed --count 64 \\
        --clients 4
    python -m repro.serve stats --port 7719
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List, Optional, Sequence

from ..cli_options import add_ledger, add_model, at_least, positive
from .client import ServeClient, ServeClientError, connect_with_retry
from .loadgen import build_job_mix, run_closed_loop, run_open_loop
from .protocol import ProtocolError, make_job
from .server import ServeServer
from .store import ResultStore

DEFAULT_PORT = 7719

_TECHNIQUE_SETS = {
    "off": [(False, False)],
    "prefetch": [(True, False)],
    "speculation": [(False, True)],
    "both": [(True, True)],
    "all": [(False, False), (True, False), (False, True), (True, True)],
}


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server host (default: %(default)s)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="server port (default: %(default)s)")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    server = ServeServer(
        store=ResultStore(args.store),
        executor_kind="pool" if args.jobs > 1 else "serial",
        executor_jobs=args.jobs,
        host=args.host,
        port=args.port,
        ledger_path=args.ledger,
        ledger=not args.no_ledger,
        request_log=not args.no_request_log,
    )

    async def main() -> None:
        await server.start()
        # parseable by scripts that need the bound port (--port 0)
        print(f"serving on {server.host}:{server.port} "
              f"(executor={server.executor_kind}, store={args.store})",
              flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    print("server stopped", flush=True)
    return 0


# ----------------------------------------------------------------------
# job-set helpers (submit / replay)
# ----------------------------------------------------------------------

def _jobs_from_args(args: argparse.Namespace) -> List[Dict[str, object]]:
    if args.jobs_file is not None:
        return args.jobs_file
    if args.mix is not None:
        return build_job_mix(args.mix, seed=args.mix_seed)
    tests = args.test or ["SB"]
    jobs = []
    for test in tests:
        for model in args.model:
            for prefetch, speculation in _TECHNIQUE_SETS[args.techniques]:
                jobs.append(make_job(test={"name": test}, model=model,
                                     prefetch=prefetch,
                                     speculation=speculation))
    return jobs


def _jobs_file(path: str) -> List[Dict[str, object]]:
    """argparse ``type=``: a JSON array of jobs, or JSONL with one job
    (or one request-log record carrying a ``job`` field) per line."""
    try:
        with open(path) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("["):
            raw = json.loads(text)
        else:
            raw = []
            for line in text.splitlines():
                if line.strip():
                    raw.append(json.loads(line))
    except (OSError, ValueError) as exc:    # missing file / not JSON
        raise argparse.ArgumentTypeError(f"cannot read jobs: {exc}") from None
    jobs = []
    for entry in raw:
        if isinstance(entry, dict) and "job" in entry:
            entry = entry["job"]  # request-log record
        jobs.append(entry)
    return jobs


def _submit_all(args: argparse.Namespace,
                jobs: List[Dict[str, object]]) -> int:
    if not jobs:
        print(json.dumps({"jobs": 0, "completed": 0, "errors": 0,
                          "cache_hits": 0, "coalesced": 0, "hit_rate": 0.0}))
        return 0
    with connect_with_retry(args.host, args.port,
                            deadline_seconds=args.connect_timeout) as client:
        results = client.submit_many(jobs)
        stats = client.stats() if args.stats else None
    completed = sum(1 for r in results if r.ok)
    errors = len(results) - completed
    hits = sum(1 for r in results if r.cached)
    coalesced = sum(1 for r in results if r.coalesced)
    summary: Dict[str, object] = {
        "jobs": len(results),
        "completed": completed,
        "errors": errors,
        "cache_hits": hits,
        "coalesced": coalesced,
        "hit_rate": round(hits / len(results), 4),
    }
    if stats is not None:
        summary["server"] = stats
    print(json.dumps(summary, indent=2 if args.stats else None,
                     sort_keys=True))
    for result in results:
        if not result.ok:
            print(f"error: {result.error}", file=sys.stderr)
    return 0 if errors == 0 else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    return _submit_all(args, _jobs_from_args(args))


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------

def _cmd_loadgen(args: argparse.Namespace) -> int:
    jobs = build_job_mix(args.count, seed=args.mix_seed, unique=args.unique)
    if args.mode == "closed":
        report = run_closed_loop(args.host, args.port, jobs,
                                 clients=args.clients)
    else:
        report = run_open_loop(args.host, args.port, jobs, rate=args.rate)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.errors == 0 else 1


# ----------------------------------------------------------------------
# one-shot ops
# ----------------------------------------------------------------------

def _cmd_stats(args: argparse.Namespace) -> int:
    with ServeClient(args.host, args.port) as client:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with ServeClient(args.host, args.port) as client:
        sys.stdout.write(client.metrics())
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    with ServeClient(args.host, args.port) as client:
        client.shutdown()
    print("shutdown requested")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="simulation-as-a-service job server and clients")
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="start the job server")
    _add_endpoint(p_serve)
    p_serve.add_argument("--store", default=".repro/serve",
                         help="result-store root (default: %(default)s)")
    p_serve.add_argument("--jobs", type=at_least(1), default=1,
                         help="cache-miss workers: 1 runs misses in the "
                              "server process, N > 1 in a pool of N "
                              "processes (default: %(default)s)")
    add_ledger(p_serve)
    p_serve.add_argument("--no-request-log", action="store_true",
                         help="do not keep <store>/requests.jsonl")
    p_serve.set_defaults(func=_cmd_serve)

    for name, helptext in (
            ("submit", "submit jobs, print a JSON summary"),
            ("replay", "re-submit a captured request log")):
        p = sub.add_parser(name, help=helptext)
        _add_endpoint(p)
        if name == "replay":
            # a replay is a submit whose jobs come from a file
            p.add_argument("jobs_file", metavar="log", type=_jobs_file,
                           help="request log (requests.jsonl)")
        else:
            p.add_argument("--test", action="append",
                           help="litmus test name (repeatable; default SB)")
            add_model(p, many=True, default=["SC"], as_typed=True)
            p.add_argument("--techniques", choices=sorted(_TECHNIQUE_SETS),
                           default="off",
                           help="technique sweep per test x model "
                                "(default: %(default)s)")
            p.add_argument("--mix", type=at_least(0), default=None,
                           help="submit a deterministic N-job mix instead")
            p.add_argument("--mix-seed", type=int, default=0,
                           help="mix shuffle seed (default: %(default)s)")
            p.add_argument("--jobs-file", type=_jobs_file, default=None,
                           help="JSON array or JSONL file of jobs")
        p.add_argument("--stats", action="store_true",
                       help="include server stats in the summary")
        p.add_argument("--connect-timeout", type=float, default=30.0,
                       help="seconds to wait for the server "
                            "(default: %(default)s)")
        p.set_defaults(func=_cmd_submit)

    p_load = sub.add_parser("loadgen", help="synthetic load benchmark")
    _add_endpoint(p_load)
    p_load.add_argument("--mode", choices=("closed", "open"),
                        default="closed")
    p_load.add_argument("--count", type=at_least(0), default=64,
                        help="jobs to submit (default: %(default)s)")
    p_load.add_argument("--clients", type=at_least(1), default=4,
                        help="closed-loop client threads "
                             "(default: %(default)s)")
    p_load.add_argument("--rate", type=positive, default=50.0,
                        help="open-loop arrival rate, jobs/s "
                             "(default: %(default)s)")
    p_load.add_argument("--unique", action="store_true",
                        help="make every job a distinct cache key")
    p_load.add_argument("--mix-seed", type=int, default=0)
    p_load.set_defaults(func=_cmd_loadgen)

    for name, func, helptext in (
            ("stats", _cmd_stats, "print a running server's counters"),
            ("metrics", _cmd_metrics, "print Prometheus exposition"),
            ("shutdown", _cmd_shutdown, "stop a running server")):
        p = sub.add_parser(name, help=helptext)
        _add_endpoint(p)
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ServeClientError, ProtocolError) as exc:
        # nothing listening, a dropped connection, a reply that is not
        # the protocol: an unusable endpoint, not a failed job (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = ["DEFAULT_PORT", "build_parser", "main"]
