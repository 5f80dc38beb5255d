"""Observability command line (``python -m repro.obs``).

Subcommands::

    breakdown      run a paper example across models x techniques and print
                   the stall-breakdown matrix (Figures 3-7 presentation)
    convert        turn a JSONL trace dump into a Chrome/Perfetto JSON file
    validate       structurally check a trace_event JSON file (CI gate)
    diff           compare two archtrace JSONL streams and report the
                   first divergent architectural event
    ledger         query the content-addressed run ledger
                   (list | show | stats | trajectory)

Examples::

    python -m repro.obs breakdown example2 --stats-json stats.json
    python -m repro.obs convert run.jsonl run.trace.json
    python -m repro.obs validate run.trace.json
    python -m repro.obs diff a.archtrace.jsonl b.archtrace.jsonl
    python -m repro.obs ledger stats
    python -m repro.obs ledger trajectory --kind fuzz
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..cli_options import (add_ledger, add_model, add_stats_json,
                           append_ledger, at_least, miss_latency,
                           output_path)
from ..consistency.models import ALL_MODELS
from ..sim.trace import read_jsonl
from ..workloads.paper_examples import PAPER_EXAMPLES
from .ledger import KNOWN_KINDS
from .perfetto import (
    export_chrome_trace,
    trace_file_warnings,
    validate_trace_file,
)


def _cmd_breakdown(args: argparse.Namespace) -> int:
    # the simulator and the experiment tables load for this command only
    import time

    from ..analysis.experiments import TECHNIQUES, stall_breakdown_table
    from ..sim.stats import StatsRegistry, write_stats_json

    models = tuple(args.model)
    merged: Optional[StatsRegistry] = StatsRegistry() if args.stats_json else None
    t0 = time.perf_counter()
    table = stall_breakdown_table(
        args.example,
        models=models,
        miss_latency=args.miss_latency,
        normalize=args.normalize,
        merged=merged,
    )
    wall = time.perf_counter() - t0
    print(table.render())
    if args.stats_json and merged is not None:
        write_stats_json(args.stats_json, merged)
        print(f"merged statistics written to {args.stats_json}")
    num_cells = len(models) * len(TECHNIQUES)
    append_ledger(
        args,
        kind="breakdown",
        request={
            "example": args.example,
            "models": [m.name for m in models],
            "miss_latency": args.miss_latency,
            "normalize": args.normalize,
        },
        outcome={"cells": num_cells},
        wall_seconds=wall,
        items=num_cells,
        artifacts={"stats_json": args.stats_json} if args.stats_json else None,
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    try:
        events = read_jsonl(args.jsonl)
    except (OSError, ValueError) as exc:    # missing file / not a trace
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    obj = export_chrome_trace(events, args.output)
    print(f"{args.output}: {len(obj['traceEvents'])} trace event(s) "
          f"from {len(events)} recorded event(s)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        errors = validate_trace_file(path)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for err in errors[:args.max_errors]:
                print(f"  {err}")
            if len(errors) > args.max_errors:
                print(f"  ... and {len(errors) - args.max_errors} more")
            continue
        warnings = trace_file_warnings(path)
        for warning in warnings:
            print(f"{path}: WARNING: {warning}")
        if not warnings:
            print(f"{path}: ok")
        else:
            print(f"{path}: ok (with warnings)")
    return status


def _cmd_diff(args: argparse.Namespace) -> int:
    from .diff import diff_main

    return diff_main(args.trace_a, args.trace_b, context=args.context,
                     as_json=args.json)


def _cmd_ledger(args: argparse.Namespace) -> int:
    from . import ledger as ledger_mod

    records, skipped = ledger_mod.read_ledger(args.ledger)
    if skipped:
        print(f"WARNING: skipped {skipped} invalid ledger line(s)",
              file=sys.stderr)
    if args.kind:
        records = [r for r in records if r.get("kind") == args.kind]

    if args.ledger_command == "list":
        print(ledger_mod.render_list(records, limit=args.limit))
        return 0
    if args.ledger_command == "show":
        matches = ledger_mod.find_records(records, args.hash)
        if not matches:
            print(f"no ledger record matches request hash {args.hash!r}",
                  file=sys.stderr)
            return 1
        for record in matches:
            print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.ledger_command == "stats":
        stats = ledger_mod.ledger_stats(records)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(ledger_mod.render_stats(stats))
        return 0
    if args.ledger_command == "trajectory":
        kind = args.kind or "fuzz"
        points = ledger_mod.ledger_trajectory(records, kind=kind)
        if args.json:
            print(json.dumps(points, indent=2, sort_keys=True))
        else:
            print(ledger_mod.render_trajectory(points, kind))
        return 0
    raise AssertionError(f"unhandled ledger command "
                         f"{args.ledger_command!r}")  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Cycle accounting and trace-export utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("breakdown",
                       help="stall-breakdown matrix for a paper example")
    p.add_argument("example", nargs="?", default="example2",
                   choices=sorted(PAPER_EXAMPLES))
    add_model(p, many=True, default=ALL_MODELS)
    p.add_argument("--miss-latency", type=miss_latency, default=100)
    p.add_argument("--raw", dest="normalize", action="store_false",
                   help="print raw cycle counts instead of normalized %%")
    add_stats_json(p)
    add_ledger(p)
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("convert",
                       help="JSONL trace -> Chrome/Perfetto trace_event JSON")
    p.add_argument("jsonl", help="input JSONL trace (see --trace-jsonl)")
    p.add_argument("output", type=output_path,
                   help="output trace_event JSON file")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("validate",
                       help="structurally check trace_event JSON files")
    p.add_argument("files", nargs="+", help="trace_event JSON files")
    p.add_argument("--max-errors", type=int, default=20)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("diff",
                       help="first-divergence diff of two archtrace "
                            "JSONL streams (exit 1 when they diverge)")
    p.add_argument("trace_a", help="reference archtrace (--archtrace output)")
    p.add_argument("trace_b", help="subject archtrace")
    p.add_argument("--context", type=at_least(0), default=5,
                   help="events of context around the divergence "
                        "(default 5)")
    p.add_argument("--json", action="store_true",
                   help="emit the DivergenceReport as JSON instead of text")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("ledger",
                       help="query the content-addressed run ledger")
    lsub = p.add_subparsers(dest="ledger_command", required=True)

    lp = lsub.add_parser("list", help="one line per record, newest last")
    add_ledger(lp, appends=False)
    lp.add_argument("--kind", choices=KNOWN_KINDS,
                    help="only records of this kind")
    lp.add_argument("--limit", type=int, default=20,
                    help="newest N records (0 = all; default 20)")
    lp.set_defaults(func=_cmd_ledger)

    lp = lsub.add_parser("show",
                         help="dump records matching a request-hash prefix")
    lp.add_argument("hash", help="request_sha256 prefix")
    add_ledger(lp, appends=False)
    lp.set_defaults(func=_cmd_ledger, kind=None)

    lp = lsub.add_parser("stats",
                         help="per-kind totals and the dedupe-hit rate a "
                              "content-addressed result cache would see")
    add_ledger(lp, appends=False)
    lp.add_argument("--kind", choices=KNOWN_KINDS,
                    help="restrict to one record kind")
    lp.add_argument("--json", action="store_true",
                    help="emit the stats object as JSON")
    lp.set_defaults(func=_cmd_ledger)

    lp = lsub.add_parser("trajectory",
                         help="throughput trend of one record kind, "
                              "oldest first (default: fuzz)")
    add_ledger(lp, appends=False)
    lp.add_argument("--kind", choices=KNOWN_KINDS, default="fuzz")
    lp.add_argument("--json", action="store_true",
                    help="emit the trajectory points as JSON")
    lp.set_defaults(func=_cmd_ledger)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
