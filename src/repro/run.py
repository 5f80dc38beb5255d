"""Run assembly programs on the simulator (``python -m repro.run``).

Takes one or more assembly files (one per processor), a consistency
model, and technique flags; runs the multiprocessor to completion and
prints cycles, per-CPU registers, and memory/statistics summaries.
``--example`` substitutes one of the paper's built-in kernels (with
their warm-cache / initial-memory environment) for the assembly files.

Example::

    python -m repro.run producer.s consumer.s --model RC \
        --prefetch --speculation --miss-latency 100 \
        --init 0x80=0 --watch 0x40 --stats

Observability outputs::

    python -m repro.run --example example2 --model SC --breakdown
    python -m repro.run prog.s --stats-json stats.json \
        --perfetto run.trace.json --trace-jsonl run.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cli_options import (add_ledger, add_model, add_stats_json,
                          append_ledger, miss_latency, output_path,
                          program_file, register)
from .sim.errors import SimulationError
from .sim.stats import write_stats_json
from .sim.trace import TraceRecorder
from .system import run_workload


def address(text: str) -> int:
    return int(text, 0)


def init_pair(text: str) -> Tuple[int, int]:
    addr_text, _, value_text = text.partition("=")
    try:
        return int(addr_text, 0), int(value_text, 0)
    except ValueError:      # a bad number, or no "=" at all
        raise argparse.ArgumentTypeError(
            f"expects ADDR=VALUE, got {text!r}") from None


def _write_trace_views(args: argparse.Namespace, trace: TraceRecorder,
                       label: str, cycles: Optional[int],
                       final_memory: Optional[Dict[int, int]] = None,
                       breakdowns: Sequence[Any] = ()) -> None:
    """Write ``--perfetto`` and ``--archtrace`` from the one recorder
    (the ``--trace-jsonl`` stream is already on disk) and report each."""
    dropped = f" ({trace.dropped} dropped)" if trace.dropped else ""
    if args.perfetto:
        from .obs.perfetto import export_chrome_trace
        obj = export_chrome_trace(trace, args.perfetto,
                                  breakdowns=breakdowns)
        print(f"perfetto trace written to {args.perfetto} "
              f"({len(obj['traceEvents'])} event(s){dropped})")
    if args.trace_jsonl:
        print(f"jsonl trace written to {args.trace_jsonl} "
              f"({len(trace.events) + trace.dropped} event(s))")
    if args.archtrace:
        from .obs.archtrace import ArchTrace
        archtrace = ArchTrace.from_events(
            trace.events, cycles=cycles, final_memory=final_memory,
            breakdowns=breakdowns, dropped=trace.dropped)
        count = archtrace.write_jsonl(args.archtrace, label=label)
        print(f"archtrace written to {args.archtrace} "
              f"({count} event(s){dropped})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run",
        description="Run assembly programs on the multiprocessor simulator.",
    )
    parser.add_argument("programs", nargs="*", type=program_file,
                        help="assembly files, one per processor")
    parser.add_argument("--example",
                        choices=("example1", "example2", "figure5"),
                        help="run a built-in paper kernel (with its "
                             "warm-cache/memory environment) instead of "
                             "assembly files")
    add_model(parser)
    parser.add_argument("--prefetch", action="store_true",
                        help="enable hardware non-binding prefetch")
    parser.add_argument("--speculation", action="store_true",
                        help="enable speculative loads")
    parser.add_argument("--miss-latency", type=miss_latency, default=100)
    parser.add_argument("--max-cycles", type=int, default=1_000_000)
    parser.add_argument("--init", action="append", default=[],
                        type=init_pair, metavar="ADDR=VALUE",
                        help="initial memory word")
    parser.add_argument("--watch", action="append", default=[],
                        type=address, metavar="ADDR",
                        help="print this word afterwards")
    parser.add_argument("--regs", action="append", default=[], type=register,
                        metavar="REG", help="registers to print (default r1-r8)")
    parser.add_argument("--stats", action="store_true",
                        help="dump the full statistics registry")
    parser.add_argument("--summary", action="store_true",
                        help="print the per-CPU digest (IPC, stalls, ...)")
    parser.add_argument("--trace", action="store_true",
                        help="print the event trace")
    parser.add_argument("--analyze", action="store_true",
                        help="run the static race analyzer before simulating")
    parser.add_argument("--sanitize", action="store_true",
                        help="check trace invariants after the run "
                             "(exits non-zero on a violation)")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the per-CPU cycle-cause breakdown "
                             "and technique-effectiveness counters")
    parser.add_argument("--profile", action="store_true",
                        help="host-side self-profiler: per-component "
                             "wall-time shares, simulated cycles/sec and "
                             "KIPS (host/profile/* in --stats/--stats-json)")
    parser.add_argument("--progress", action="store_true",
                        help="live heartbeat on stderr while the "
                             "simulation runs (implies profiling)")
    parser.add_argument("--progress-every", type=int, default=25_000,
                        metavar="CYCLES",
                        help="heartbeat interval in simulated cycles "
                             "(default 25000)")
    add_stats_json(parser)
    parser.add_argument("--perfetto", metavar="FILE", type=output_path,
                        help="export the trace as Chrome/Perfetto "
                             "trace_event JSON (implies tracing)")
    parser.add_argument("--trace-jsonl", metavar="FILE", type=output_path,
                        help="stream every trace event to FILE as JSONL "
                             "(implies tracing)")
    parser.add_argument("--archtrace", metavar="FILE", type=output_path,
                        help="write the canonical architectural event "
                             "stream (retires, load/store/RMW values, "
                             "coherence transitions, squashes) as JSONL "
                             "for `python -m repro.obs diff`; does not "
                             "disable the kernel fast path")
    parser.add_argument("--trace-limit", type=int, metavar="N",
                        default=TraceRecorder.DEFAULT_BATCH_MAX_EVENTS,
                        help="keep the first N trace events in memory "
                             "and count the rest as dropped (0 = "
                             "unbounded; --sanitize needs the full trace "
                             "and ignores the limit)")
    add_ledger(parser)
    args = parser.parse_args(argv)

    if not args.programs and not args.example:
        parser.error("need assembly files or --example")

    programs = [program for _text, program in args.programs]
    program_sha256 = [hashlib.sha256(text.encode()).hexdigest()
                      for text, _program in args.programs]

    initial_memory = dict(args.init)
    warm_lines = ()
    if args.example:
        from .obs.report import example_workload
        wl = example_workload(args.example)
        programs.append(wl.program)
        warm_lines = wl.warm_lines
        initial_memory = {**wl.initial_memory, **initial_memory}

    model = args.model
    if args.analyze:
        from .analysis.static import analyze_programs
        report = analyze_programs(programs, model)
        print(report.render())
        static_verdict = ("every execution is sequentially consistent"
                          if report.sc_guaranteed
                          else "executions may violate sequential consistency")
        print("verdicts side by side:")
        print(f"  static analyzer : {static_verdict}")
        print(f"  axiomatic checker: {report.axiomatic_verdict}")
        print()

    # one recorder serves every trace view; the sanitizer checks
    # whole-run invariants, so it must see an unbounded trace, and
    # everything else respects --trace-limit
    stream = open(args.trace_jsonl, "w") if args.trace_jsonl else None
    trace = TraceRecorder(
        enabled=bool(args.trace or args.sanitize or args.perfetto
                     or args.trace_jsonl or args.archtrace),
        max_events=(None if (args.sanitize or args.trace_limit <= 0)
                    else args.trace_limit),
        stream=stream)
    label = (f"{model.name} prefetch={args.prefetch} "
             f"speculation={args.speculation}")
    profiler = None
    if args.profile or args.progress:
        from .sim.profiler import HostHeartbeat, HostProfiler

        def heartbeat(hb: HostHeartbeat) -> None:
            print(f"\r  {hb.describe()}", end="", file=sys.stderr,
                  flush=True)

        profiler = HostProfiler(
            heartbeat=heartbeat if args.progress else None,
            heartbeat_cycles=max(1, args.progress_every))
    t0 = time.perf_counter()
    try:
        result = run_workload(
            programs,
            model=model,
            prefetch=args.prefetch,
            speculation=args.speculation,
            miss_latency=args.miss_latency,
            initial_memory=initial_memory,
            warm_lines=warm_lines,
            max_cycles=args.max_cycles,
            trace=trace,
            profile=profiler if profiler is not None else False,
        )
    except SimulationError as exc:
        # what was recorded before the failure is still worth keeping
        if args.progress:
            print(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        _write_trace_views(args, trace, label, cycles=exc.cycle)
        return 1
    finally:
        if stream is not None:
            stream.close()
    wall = time.perf_counter() - t0

    if args.progress:
        print(file=sys.stderr)
    print(f"completed in {result.cycles} cycles "
          f"(model={model.name}, prefetch={args.prefetch}, "
          f"speculation={args.speculation})")
    regs = args.regs or [f"r{i}" for i in range(1, 9)]
    for cpu in range(len(programs)):
        values = ", ".join(f"{r}={result.machine.reg(cpu, r)}" for r in regs)
        print(f"cpu{cpu}: {values}")
    for addr in args.watch:
        print(f"MEM[{addr:#x}] = {result.machine.read_word(addr)}")
    if args.trace:
        print("--- trace ---")
        print(trace.render())
    if args.summary:
        from .analysis.summary import summary_table
        print(summary_table(result).render())
    if args.breakdown:
        from .obs.report import breakdown_table, effectiveness_table
        print(breakdown_table(result).render())
        print(effectiveness_table(result).render())
    if args.profile and profiler is not None:
        print(profiler.render(result.stats))
    if args.stats:
        from .sim.stats import format_stats_table
        print(format_stats_table(result.stats.snapshot(), title="statistics"))
    if args.stats_json:
        write_stats_json(args.stats_json, result.stats, cycles=result.cycles)
        print(f"statistics written to {args.stats_json}")
    watched = sorted(set(args.watch) | set(initial_memory))
    _write_trace_views(
        args, trace, label, cycles=result.cycles,
        final_memory={a: result.machine.read_word(a) for a in watched},
        breakdowns=result.breakdowns())
    sanitize_ok = True
    if args.sanitize:
        from .analysis.static import sanitize_trace
        report = sanitize_trace(trace, model=model)
        print(report.render())
        sanitize_ok = report.ok

    artifacts = {key: getattr(args, key) for key in (
        "stats_json", "perfetto", "trace_jsonl", "archtrace")
        if getattr(args, key)}
    append_ledger(
        args,
        kind="run",
        request={
            "example": args.example,
            "programs_sha256": program_sha256,
            "model": model.name,
            "prefetch": args.prefetch,
            "speculation": args.speculation,
            "miss_latency": args.miss_latency,
            "max_cycles": args.max_cycles,
            "init": {str(a): v for a, v in sorted(initial_memory.items())},
        },
        outcome={"cycles": result.cycles, "sanitize_ok": sanitize_ok},
        wall_seconds=wall,
        items=result.cycles,
        artifacts=artifacts or None,
    )

    return 0 if sanitize_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
