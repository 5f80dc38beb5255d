"""Command-line front end for the static analyzer.

Examples::

    # analyze one program per CPU under one model
    python -m repro.analysis.static examples/asm/dekker.s \
        examples/asm/dekker_mirror.s --model PC

    # all four models, with the fence fix applied and re-checked
    python -m repro.analysis.static examples/asm/dekker.s \
        examples/asm/dekker_mirror.s --all-models --fix

    # CI self-check over the bundled examples
    python -m repro.analysis.static --selfcheck examples/asm
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional

from ...cli_options import add_model, at_least, program_file
from ...consistency.access_class import PLAIN_STORE
from ...consistency.models import ALL_MODELS, PC, RC, SC, WC, ConsistencyModel
from ...isa.program import Program
from .diagnostics import summarize_reports
from .racecheck import analyze_programs, apply_fence_suggestions


def _analyze_and_print(programs: List[Program],
                       models: List[ConsistencyModel],
                       fix: bool, line_size: int) -> int:
    reports = []
    for model in models:
        report = analyze_programs(programs, model, line_size=line_size)
        reports.append(report)
        print(report.render())
        if fix and report.fence_suggestions():
            patched = apply_fence_suggestions(programs,
                                              report.fence_suggestions(),
                                              line_size=line_size)
            fixed = analyze_programs(patched, model, line_size=line_size)
            verdict = ("restores SC" if fixed.sc_guaranteed
                       else "does NOT restore SC")
            print(f"  after applying {len(report.fence_suggestions())} "
                  f"fence(s): {verdict}")
        print()
    print(summarize_reports(reports))
    return 1 if any(r.races() for r in reports) else 0


def selfcheck(examples_dir: str, line_size: int = 4) -> int:
    """Verify the analyzer's classification of the bundled examples.

    Checks the acceptance triangle: Dekker and Example 1 are racy under
    every relaxed model with fence fixes that restore SC; the
    producer/consumer pair with real synchronization is race-free.
    Returns a process exit code.
    """
    relaxed = [m for m in ALL_MODELS if m is not SC]
    failures: List[str] = []

    def check(cond: bool, what: str) -> None:
        status = "ok  " if cond else "FAIL"
        print(f"[{status}] {what}")
        if not cond:
            failures.append(what)

    def load(*names: str) -> List[Program]:
        return [program_file(os.path.join(examples_dir, n))[1]
                for n in names]

    dekker = load("dekker.s", "dekker_mirror.s")
    example1 = load("example1.s", "example1.s")
    prodcons = load("producer.s", "consumer.s")

    sc_report = analyze_programs(dekker, SC, line_size=line_size)
    check(sc_report.sc_guaranteed and not sc_report.races(),
          "dekker under SC: no race findings, SC guaranteed")

    for model in relaxed:
        r = analyze_programs(dekker, model, line_size=line_size)
        check(bool(r.races()) and not r.sc_guaranteed,
              f"dekker under {model.name}: flagged racy, SC not guaranteed")
        patched = apply_fence_suggestions(dekker, r.fence_suggestions(),
                                          line_size=line_size)
        check(analyze_programs(patched, model, line_size=line_size).sc_guaranteed,
              f"dekker under {model.name}: suggested fences restore SC")

        r1 = analyze_programs(example1, model, line_size=line_size)
        check(bool(r1.races()),
              f"example1 under {model.name}: flagged racy (optimistic lock)")
        if not model.delay_arc(PLAIN_STORE, PLAIN_STORE):
            # a model that keeps W->W in program order (PC) leaves
            # example1 SC even though the race is real; WC/RC overlap
            # the writes.
            check(not r1.sc_guaranteed,
                  f"example1 under {model.name}: SC not guaranteed")
        check(bool(r1.by_kind("ineffective-sync")),
              f"example1 under {model.name}: ineffective lock acquire warned")
        p1 = apply_fence_suggestions(example1, r1.fence_suggestions(),
                                     line_size=line_size)
        check(analyze_programs(p1, model, line_size=line_size).sc_guaranteed,
              f"example1 under {model.name}: suggested fences restore SC")

        rp = analyze_programs(prodcons, model, line_size=line_size)
        check(not rp.races(),
              f"producer/consumer under {model.name}: race-free")

    if failures:
        print(f"\nself-check FAILED ({len(failures)} of the checks above)")
        return 1
    print("\nself-check passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.static",
        description="Static race & ordering analysis of assembly programs.",
    )
    parser.add_argument("programs", nargs="*", type=program_file,
                        help="assembly files, one per processor")
    add_model(parser, many=True, default=[PC, WC, RC])
    parser.add_argument("--all-models", action="store_true",
                        help="analyze under SC, PC, WC, and RC")
    parser.add_argument("--fix", action="store_true",
                        help="apply the suggested fences and re-analyze")
    parser.add_argument("--line-size", type=at_least(1), default=4,
                        help="cache line size in words (conflict granularity)")
    parser.add_argument("--selfcheck", metavar="EXAMPLES_DIR",
                        help="verify the expected classification of the "
                             "bundled examples/asm programs and exit")
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(args.selfcheck, line_size=args.line_size)
    if not args.programs:
        parser.error("give at least one assembly file (or --selfcheck DIR)")
    models = list(ALL_MODELS) if args.all_models else args.model
    programs = [program for _text, program in args.programs]
    return _analyze_and_print(programs, models, args.fix, args.line_size)
