"""``python -m repro.verify`` — the differential conformance fuzzer CLI.

Typical runs::

    python -m repro.verify --budget 200 --jobs 4 --seed 0
    python -m repro.verify --budget 2000 --oracle axiomatic   # static only
    python -m repro.verify --budget 150 --backend batched     # pin the engine
    python -m repro.verify --suite --oracle all               # named suite
    python -m repro.verify --budget 50 --fault slb-deaf --corpus out.json
    python -m repro.verify --replay out.json

``--oracle`` picks the legs of the three-way crosscheck: ``sim``
(simulator vs interleaving enumerator — the historical check),
``axiomatic`` (enumerator vs the declarative herd-style checker, no
simulation at all), or ``all`` (default: both, plus simulator
membership in the axiomatic set).

Exit status is 0 when every check passed, 1 when any divergence,
oracle disagreement, worker error, or still-failing replay entry was
found.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..cli_options import (add_ledger, add_stats_json, append_ledger,
                           at_least, output_path)
from ..consistency.litmus import STANDARD_TESTS
from ..sim.stats import write_stats_json
from ..sim.sweep import ProgressMeter, SweepError, derive_seed, run_sweep
from .corpus import (
    Corpus,
    CorpusEntry,
    disagreement_to_dict,
    divergence_to_dict,
    litmus_to_dict,
    replay_corpus,
)
from .generator import GeneratorConfig, generate_litmus
from .harness import (
    BACKENDS,
    FAULTS,
    ORACLE_MODES,
    CheckResult,
    HarnessConfig,
    check_named,
    check_seed,
)
from .minimize import minimize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential conformance fuzzer: detailed simulator "
                    "vs reference litmus enumeration.")
    parser.add_argument("--budget", type=at_least(1), default=200,
                        help="number of random tests to check (default 200)")
    parser.add_argument("--jobs", type=at_least(1), default=1,
                        help="worker processes for the sweep (default 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; item seeds are derived "
                             "deterministically (default 0)")
    parser.add_argument("--corpus", default="verify-corpus.json",
                        help="where to write the JSON failure corpus "
                             "(default verify-corpus.json; only written "
                             "when something fails)")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="re-check a saved corpus instead of fuzzing")
    parser.add_argument("--oracle", choices=ORACLE_MODES, default="all",
                        help="which oracle legs to run: sim (simulator vs "
                             "enumerator), axiomatic (enumerator vs "
                             "declarative checker, no simulation), or all "
                             "(default)")
    parser.add_argument("--backend", choices=BACKENDS, default="scalar",
                        help="simulator-leg backend: scalar (one machine "
                             "per run) or batched (each test's legs on the "
                             "lockstep SoA engine: the conformance mode "
                             "that pins it; bit-identical outcomes, no "
                             "faster)")
    parser.add_argument("--server", metavar="HOST:PORT", default=None,
                        help="submit simulator legs to a running "
                             "repro.serve job server instead of running "
                             "them in-process (repeated legs answer from "
                             "its content-addressed cache)")
    parser.add_argument("--suite", action="store_true",
                        help="check the named litmus suite instead of "
                             "fuzzing (--budget/--seed are ignored)")
    parser.add_argument("--fault", choices=sorted(FAULTS), default=None,
                        help="inject a known fault in the workers "
                             "(self-test: the fuzzer must catch it)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip test-case minimization of failures")
    parser.add_argument("--localize", action="store_true",
                        help="on failure, re-run the failing leg with "
                             "archtraces on both backends, diff against "
                             "reference runs, and attach the "
                             "DivergenceReport to the corpus entry "
                             "(paired archtraces land in "
                             "<corpus>.localize/)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    add_stats_json(parser)
    parser.add_argument("--prometheus", metavar="FILE", default=None,
                        type=output_path,
                        help="write the campaign metrics in the Prometheus "
                             "text exposition format")
    parser.add_argument("--trace-spans", metavar="FILE", default=None,
                        type=output_path,
                        help="write the campaign's orchestration spans "
                             "(parent + workers, one merged timeline) as "
                             "Perfetto trace_event JSON")
    add_ledger(parser)
    return parser


def _oracle_counters(failures: Sequence[CheckResult]) -> Tuple[int, int, int]:
    """(sim-vs-enumerator, sim-vs-axiomatic, axiomatic-vs-enumerator)."""
    sim_enum = sum(1 for f in failures for d in f.divergences
                   if d.oracle == "enumerator")
    sim_ax = sum(1 for f in failures for d in f.divergences
                 if d.oracle == "axiomatic")
    ax_enum = sum(len(f.oracle_disagreements) for f in failures)
    return sim_enum, sim_ax, ax_enum


def run_fuzz(budget: int, jobs: int, seed: int,
             fault: Optional[str] = None,
             corpus_path: Optional[str] = None,
             do_minimize: bool = True,
             quiet: bool = False,
             generator: Optional[GeneratorConfig] = None,
             oracle: str = "all",
             suite: bool = False,
             backend: str = "scalar",
             server: Optional[str] = None,
             localize: bool = False,
             stats_json: Optional[str] = None,
             prometheus: Optional[str] = None,
             trace_spans: Optional[str] = None,
             ledger_path: Optional[str] = None,
             ledger: bool = True) -> int:
    """Fuzz ``budget`` seeds (or sweep the named suite); returns the
    process exit status.

    Unless ``quiet``, progress goes to stderr through the sweep meter
    (run-average rate, ETA): a live line on a terminal, one summary
    line on a redirected stream.  ``oracle`` selects the
    crosscheck legs (see module docstring); ``suite`` checks every
    named standard litmus test instead of fuzzing.

    Every campaign runs inside its own telemetry scope (a fresh
    campaign-scoped ``StatsRegistry`` + span tracer, so two campaigns in one
    process never mix), exportable via ``stats_json`` /
    ``prometheus`` / ``trace_spans``, and — unless ``ledger`` is off —
    lands one content-addressed record in the run ledger.
    """
    from ..obs import telemetry as tm

    gen_config = generator if generator is not None else GeneratorConfig()
    options: Dict[str, object] = {"generator": gen_config.to_dict(),
                                  "oracle": oracle,
                                  "backend": backend}
    if fault is not None:
        options["fault"] = fault
    if server is not None:
        options["server"] = server
    if suite:
        names = sorted(STANDARD_TESTS)
        items = [(i, name, options) for i, name in enumerate(names)]
        worker = check_named
        total = len(names)
    else:
        items = [(i, derive_seed(seed, i, "fuzz"), options)
                 for i in range(budget)]
        worker = check_seed  # type: ignore[assignment]
        total = budget

    meter = None if quiet else ProgressMeter(label="verify")
    t0 = time.perf_counter()
    with tm.collect(process="verify campaign") as scope:
        with tm.span("verify/campaign",
                     {"tests": total, "oracle": oracle, "backend": backend,
                      "jobs": jobs}):
            sweep = run_sweep(worker, items, jobs=jobs, telemetry=meter)
    wall = time.perf_counter() - t0
    if meter is not None:
        meter.finish()

    failures: List[CheckResult] = []
    crashes: List[SweepError] = []
    total_runs = 0
    for result in sweep.results:
        if isinstance(result, SweepError):
            crashes.append(result)
        else:
            total_runs += result.num_runs
            if not result.ok:
                failures.append(result)

    if not quiet:
        print(sweep.describe())
        print(f"  {total_runs} simulator run(s) across {total} test(s) "
              f"[oracle={oracle}, backend={backend}]")

    corpus = Corpus()
    for failure in failures:
        if suite:
            test = STANDARD_TESTS[names[failure.index]]()
        else:
            test = generate_litmus(failure.seed, gen_config)
        label = (f"test {failure.test_name!r}" if suite
                 else f"seed={failure.seed}")
        print(f"FAIL {label} (item {failure.index}): "
              f"{len(failure.divergences)} divergence(s), "
              f"{len(failure.oracle_disagreements)} oracle disagreement(s)")
        for dis in failure.oracle_disagreements[:4]:
            print(f"  {dis.describe()}")
        for div in failure.divergences[:4]:
            print(f"  {div.describe()}")
        minimized_dict = None
        if do_minimize:
            shrink = minimize(test,
                              config=HarnessConfig(fault=fault, oracle=oracle,
                                                   backend=backend))
            minimized_dict = litmus_to_dict(shrink.test)
            print(f"  {shrink.describe()}")
            for tid, thread in enumerate(shrink.test.threads):
                print(f"    T{tid}: " +
                      "; ".join(op.describe() for op in thread))
        localization_dict = None
        if localize and failure.divergences:
            from .localize import localize_failure
            loc_dir = None
            if corpus_path:
                loc_dir = f"{corpus_path}.localize/item{failure.index}"
            loc = localize_failure(
                test, list(failure.divergences),
                config=HarnessConfig(fault=fault, oracle=oracle,
                                     backend=backend),
                test_name=failure.test_name if suite
                else f"seed={failure.seed}",
                out_dir=loc_dir)
            if loc is not None:
                localization_dict = loc.to_dict()
                print(loc.describe())
        corpus.add(CorpusEntry(
            master_seed=seed,
            index=failure.index,
            derived_seed=0 if suite else failure.seed,
            test=litmus_to_dict(test),
            divergences=[divergence_to_dict(d) for d in failure.divergences],
            minimized=minimized_dict,
            fault=fault,
            oracle=oracle,
            oracle_disagreements=[disagreement_to_dict(d)
                                  for d in failure.oracle_disagreements],
            localization=localization_dict,
        ))
    for crash in crashes:
        print(f"ERROR {crash.describe()}")

    if corpus.entries and corpus_path:
        corpus.save(corpus_path)
        print(f"wrote {len(corpus.entries)} corpus entr(ies) to {corpus_path}")

    sim_enum, sim_ax, ax_enum = _oracle_counters(failures)
    status = 1 if failures or crashes else 0

    artifacts: Dict[str, str] = {}
    if corpus.entries and corpus_path:
        artifacts["corpus"] = corpus_path
    if stats_json:
        write_stats_json(stats_json, scope.metrics)
        artifacts["stats_json"] = stats_json
        if not quiet:
            print(f"campaign metrics snapshot written to {stats_json}")
    if prometheus:
        with open(prometheus, "w") as fh:
            fh.write(tm.to_prometheus(scope.metrics))
        artifacts["prometheus"] = prometheus
        if not quiet:
            print(f"Prometheus exposition written to {prometheus}")
    if trace_spans:
        scope.spans.write_perfetto(trace_spans, label="verify campaign")
        artifacts["trace_spans"] = trace_spans
        if not quiet:
            print(f"campaign span trace written to {trace_spans}")

    # execution shape (jobs) deliberately excluded: it cannot change
    # the campaign's outcome, and this hash is the result-cache key
    appended = append_ledger(
        argparse.Namespace(ledger=ledger_path, no_ledger=not ledger),
        kind="fuzz",
        request={
            "kind": "suite" if suite else "fuzz",
            "budget": None if suite else budget,
            "master_seed": None if suite else seed,
            "generator": gen_config.to_dict(),
            "oracle": oracle,
            "backend": backend,
            "fault": fault,
        },
        outcome={
            "status": status,
            "tests": total,
            "simulator_runs": total_runs,
            "failures": len(failures),
            "crashes": len(crashes),
            "sim_vs_enumerator": sim_enum,
            "sim_vs_axiomatic": sim_ax,
            "axiomatic_vs_enumerator": ax_enum,
        },
        wall_seconds=wall,
        items=total_runs,
        artifacts=artifacts,
    )
    if appended is not None and not quiet:
        record, path = appended
        print(f"ledger: {record['kind']} "
              f"{str(record['request_sha256'])[:12]}.. -> {path}")

    if status:
        print(f"verify: FAILED ({len(failures)} failing test(s), "
              f"{len(crashes)} crash(es); sim-vs-enumerator {sim_enum}, "
              f"sim-vs-axiomatic {sim_ax}, "
              f"axiomatic-vs-enumerator {ax_enum})")
        return status
    if not quiet:
        print(f"verify: OK ({total} test(s), {total_runs} run(s), "
              f"0 divergences, 0 oracle disagreements)")
    return status


def run_replay(path: str, quiet: bool = False) -> int:
    try:
        corpus = Corpus.load(path)
    except (OSError, ValueError) as exc:    # missing file / not JSON
        print(f"error: cannot read corpus: {exc}", file=sys.stderr)
        return 2
    still_failing = replay_corpus(corpus)
    if still_failing:
        for entry in still_failing:
            print(f"STILL FAILING: seed={entry.derived_seed} "
                  f"(master {entry.master_seed}, item {entry.index})")
        return 1
    if not quiet:
        print("replay: OK — no corpus entry reproduces")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay is not None:
        return run_replay(args.replay, quiet=args.quiet)
    if args.server is not None and args.fault is not None:
        parser.error("--fault is incompatible with --server: faults "
                     "monkeypatch this process, not the job server")
    return run_fuzz(
        budget=args.budget,
        jobs=args.jobs,
        seed=args.seed,
        fault=args.fault,
        corpus_path=args.corpus,
        do_minimize=not args.no_minimize,
        quiet=args.quiet,
        oracle=args.oracle,
        suite=args.suite,
        backend=args.backend,
        server=args.server,
        localize=args.localize,
        stats_json=args.stats_json,
        prometheus=args.prometheus,
        trace_spans=args.trace_spans,
        ledger_path=args.ledger,
        ledger=not args.no_ledger,
    )


if __name__ == "__main__":
    sys.exit(main())
