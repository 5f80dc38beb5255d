"""``python -m repro.analysis.axiomatic`` — declarative-oracle CLI.

Typical runs::

    # named suite, all four paper models, axiomatic vs enumerator
    python -m repro.analysis.axiomatic --all-models

    # one test under one model, with the axioms and a witness per
    # admitted outcome
    python -m repro.analysis.axiomatic SB --model RC --verbose

Seeded random tests are crosschecked by the fuzzer instead:
``python -m repro.verify --oracle axiomatic --budget N --seed S``.

Exit status is 0 when every axiomatic outcome set exactly equals the
interleaving enumerator's, 1 on any disagreement.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ...cli_options import add_model
from ...consistency.litmus import STANDARD_TESTS, LitmusTest
from ...consistency.models import ALL_MODELS, ConsistencyModel
from .axioms import render_axiom_table
from .checker import accepting_witness, compare_with_enumerator
from .relations import build_events, event_table


def _verbose_report(test: LitmusTest, model: ConsistencyModel) -> str:
    """Events plus one accepted witness per admitted outcome."""
    events = build_events(test)
    lines = [f"{test.name} under {model.name}:", event_table(events)]
    comparison = compare_with_enumerator(test, model)
    for outcome in sorted(comparison.axiomatic):
        witness = accepting_witness(test, model, outcome)
        if witness is not None:
            lines.append("  admitted " + witness.describe(events))
    for outcome in sorted(comparison.enumerated - comparison.axiomatic):
        out = ", ".join(f"{r}={v}" for r, v in outcome)
        lines.append(f"  MISSING ({out}) — enumerator permits, axioms reject")
    for outcome in sorted(comparison.axiomatic - comparison.enumerated):
        out = ", ".join(f"{r}={v}" for r, v in outcome)
        lines.append(f"  EXTRA ({out}) — axioms admit, enumerator never reaches")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.axiomatic",
        description="Axiomatic (herd-style) checker: declarative outcome "
                    "sets cross-validated against the interleaving "
                    "enumerator.")
    parser.add_argument("tests", nargs="*",
                        help="named litmus tests (default: the whole "
                             "standard suite)")
    add_model(parser, many=True, default=ALL_MODELS)
    parser.add_argument("--all-models", action="store_true",
                        help="check under SC, PC, WC, and RC")
    parser.add_argument("--axioms", action="store_true",
                        help="print each model's axiom set and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="print events and an accepted witness per "
                             "admitted outcome")
    args = parser.parse_args(argv)

    models = list(ALL_MODELS) if args.all_models else list(args.model)
    if args.axioms:
        print(render_axiom_table(models))
        return 0

    unknown = sorted(set(args.tests) - set(STANDARD_TESTS))
    if unknown:
        parser.error(f"unknown litmus test {unknown[0]!r}; available: "
                     f"{', '.join(sorted(STANDARD_TESTS))}")
    tests = [STANDARD_TESTS[name]() for name in args.tests or STANDARD_TESTS]

    print(render_axiom_table(models))
    print()
    print("axiomatic vs interleaving enumerator "
          "(outcome sets must be identical):")
    failures = 0
    for test in tests:
        for model in models:
            comparison = compare_with_enumerator(test, model)
            print("  " + comparison.describe())
            if not comparison.agree:
                failures += 1
            if args.verbose:
                print(_verbose_report(test, model))
    if failures:
        print(f"axiomatic: FAILED ({failures} disagreeing "
              f"(test, model) pair(s))")
        return 1
    print(f"axiomatic: OK ({len(tests)} test(s) x {len(models)} model(s), "
          f"all outcome sets identical)")
    return 0
