"""The repo benchmark: six end-to-end workloads, named metrics per layer.

    python3 bench/e2e/run.py --seed S                    # all workloads
    python3 bench/e2e/run.py --seed S --workload NAME    # one of them
    python3 bench/e2e/run.py --compare A.json B.json     # two result files

Without ``--workload`` every workload of ``BENCHMARK.json`` runs in a
fresh child process of its own, one at a time, once untraced (the
end-to-end metrics) and once traced (the per-layer metrics); every
metric is printed by name with its unit and the lot is written to
``bench/e2e/out/result_seed<S>.json`` for ``--compare``.

With ``--workload`` (the form the benchmark driver uses, together with
``--seconds`` and ``--trace``) this process is that child: it sets the
workload up, runs its passes, checks their outputs and prints one JSON
object as its last line.  Exit status is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

#: when this process began, give or take the interpreter's own start-up
STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: timed repetitions of a pass: at least this many, and as many more as
#: fit in ``--seconds``
MIN_REPS = 3
#: the constructor (input generation, server start, priming) runs this
#: often per process and ``setup_s`` counts the median: the benchmark
#: contract asks for set-up to be repeated within a run
SETUP_REPS = 3
#: a count-type metric repeats exactly between runs of one commit
EXACT_UNITS = ("count", "cycles", "instr", "ratio")


def _import_program() -> None:
    """Put the program (``src/``) and this directory on the path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"{ROOT}/src/repro not found: the benchmark measures the "
                 "repository it is checked out in")
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def fastest_s(passes: list) -> float:
    """The wall of one pass, undisturbed: per slice the fastest
    repetition, summed over the slices.

    Not the median pass: this host runs at one of two speeds a factor
    of 1.45 apart and changes between them every few seconds, so the
    median of four passes spreads by a tenth to a fifth of itself over
    runs of one commit, more than a bound may be.  What the host adds
    is only ever time, so a slice's fastest reading is its least
    disturbed (README, "How a number is taken", has the measurements).
    A repetition that is slower than the one before it for the
    program's own reasons does not show here; the record's
    ``reps_wall_s`` lists every repetition for that.
    """
    return sum(min(times) for times in zip(*(p.slice_s for p in passes)))


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: Optional[Dict[str, int]] = None,
            started: Optional[float] = None) -> Dict[str, object]:
    """Set ``name`` up, run its passes, check them; returns the record
    (``correct``, ``attempted``, ``failed``, ``metrics`` and the detail
    ``--compare`` uses).  ``sizes`` overrides the workload's size
    arguments (the tests run toy sizes)."""
    started = time.perf_counter() if started is None else started
    _import_program()
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT)
    workload = None
    try:
        imported = time.perf_counter()
        constructions = []
        for _ in range(SETUP_REPS):
            if workload is not None:
                workload.close()
            t0 = time.perf_counter()
            workload = WORKLOADS[name](seed, tempfile.mkdtemp(dir=tmp),
                                       **(sizes or {}))
            constructions.append(time.perf_counter() - t0)
        # the untimed warm-up pass: checked like every other pass, so an
        # input the program fails on is counted, never stepped around
        t0 = time.perf_counter()
        passes = [workload.run_pass()]
        setup_s = ((imported - started) + statistics.median(constructions)
                   + (time.perf_counter() - t0))

        if trace:
            untraced = workload.run_pass()
            tracer = Tracer()
            counts = layers.install(tracer)
            try:
                traced = workload.run_pass(tracer)
            finally:
                tracer.restore()
            metrics = layers.per_layer(tracer, counts, traced, untraced)
            shares = {span: round(row["self_s"] / traced.wall_s, 4)
                      for span, row in sorted(tracer.by_name().items())}
            tracer.write(os.path.join(OUT, f"trace_{name}.json"),
                         {"workload": name, "seed": seed,
                          "wall_s": traced.wall_s, "self_share": shares})
            passes += [untraced, traced]
        else:
            t0 = time.perf_counter()
            while (len(passes) <= MIN_REPS
                   or time.perf_counter() - t0 < seconds):
                passes.append(workload.run_pass())
            wall_s = fastest_s(passes[1:])
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "ops_per_s": passes[0].ops / wall_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    failed = sum(p.failed for p in passes)
    same_digest = len({p.digest for p in passes}) == 1
    return {
        "correct": failed == 0 and same_digest,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
        "workload": name, "seed": seed, "op": workload.op,
        "guest_digest": passes[0].digest if same_digest else None,
        # the repetitions after the warm-up pass, and their slices
        "reps_wall_s": [p.wall_s for p in passes[1:]],
        "reps_slice_s": [p.slice_s for p in passes[1:]],
    }


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------

def _child(name: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """Run one workload in a fresh process; returns the record it left
    in ``out/`` (a child that fails its checks still leaves one)."""
    record = os.path.join(OUT, f"last_{name}_trace{trace}.json")
    if os.path.exists(record):
        os.unlink(record)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], stdout=subprocess.DEVNULL)
    if not os.path.exists(record):
        sys.exit(f"{name} (trace {trace}) exited with {done.returncode} "
                 "and no result")
    with open(record) as fh:
        return json.load(fh)


def run_all(seed: int, seconds: int) -> int:
    result: Dict[str, object] = {"seed": seed, "workloads": {}}
    ok = True
    for spec in SPEC["workloads"]:
        name = spec["name"]
        untraced = _child(name, seed, seconds, 0)
        traced = _child(name, seed, seconds, 1)
        ok = ok and untraced["correct"] and traced["correct"]
        if untraced["guest_digest"] != traced["guest_digest"]:
            ok = False
            print(f"{name}: traced and untraced guest_digest differ")
        result["workloads"][name] = {  # type: ignore[index]
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "guest_digest": untraced["guest_digest"],
            "reps_wall_s": untraced["reps_wall_s"],
        }
        print(f"\n== {name}  (op: {untraced['op']}; {spec['why']})")
        print(f"   attempted {untraced['attempted']}  failed "
              f"{untraced['failed']}  guest_digest "
              f"{str(untraced['guest_digest'])[:16]}  reps "
              + " ".join(f"{w:.3f}" for w in untraced["reps_wall_s"])
              + f" s (median {statistics.median(untraced['reps_wall_s']):.3f})")
        for block in (untraced, traced):
            for metric, entry in block["metrics"].items():
                value = entry["value"]
                if value or block is untraced:
                    print(f"   {metric:<36} {value:>16.6g} {entry['unit']}")
    path = os.path.join(OUT, f"result_seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {path}; {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Print both values, the ratio and the verdict for every workload
    and metric; returns 1 when an end-to-end metric of B is worse than
    A's by more than its bound or an exact metric differs."""
    with open(path_a) as fh:
        a_all = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b_all = json.load(fh)["workloads"]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    bad = 0
    for name in a_all:
        print(f"\n== {name}")
        if name not in b_all:
            bad += 1
            print("   not in B: DIFFERENT")
            continue
        a, b = a_all[name], b_all[name]
        # None: the repetitions of that run disagreed among themselves
        same = (a["guest_digest"] is not None
                and a["guest_digest"] == b["guest_digest"])
        bad += not same
        print(f"   {'guest_digest':<36} {str(a['guest_digest'])[:16]:>16} "
              f"{str(b['guest_digest'])[:16]:>16}          "
              f"{'equal' if same else 'DIFFERENT'}")
        for kind in ("end_to_end", "per_layer"):
            for metric, entry in a[kind].items():
                va, vb = entry["value"], b[kind][metric]["value"]
                if not va and not vb:
                    continue
                ratio = vb / va if va else float("inf")
                if kind == "end_to_end":
                    spec = bounds[metric]
                    worse = (ratio - 1 if spec["better"] == "lower"
                             else 1 - ratio)
                    inside = worse <= spec["bound"]
                    verdict = (f"inside {spec['bound']:.0%}" if inside
                               else f"OUTSIDE {spec['bound']:.0%}")
                elif entry["unit"] in EXACT_UNITS:
                    inside = va == vb
                    verdict = "equal" if inside else "DIFFERENT"
                else:
                    inside, verdict = True, ""
                bad += not inside
                print(f"   {metric:<36} {va:>16.6g} {vb:>16.6g} "
                      f"{ratio:>8.3f} {verdict}")
    print(f"\n{bad} metric(s) outside their bound or unequal")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), started=STARTED)
    with open(os.path.join(
            OUT, f"last_{args.workload}_trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
