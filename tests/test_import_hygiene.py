"""Import direction: product entry points do not load numpy, the
lockstep engine or a process pool, and the consistency layer does not
reach up into analysis.

``repro.sim.batch`` is the only numpy user; the job type and the scalar
way to run a job live in ``repro.system.jobs`` so that a fuzz campaign,
a localized divergence, a served job and a detailed report table never
import it.
``repro.sim.sweep`` imports ``ProcessPoolExecutor`` in its pool branch
only, so a ``jobs=1`` campaign, a bench child and a serve pool worker do
not pay for ``multiprocessing`` (22-25 ms of a ~100 ms ``import repro``).
``sys.modules`` is per-process, so the check runs in a fresh
interpreter (this one has long since imported the batch tests).
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_SCRIPT = """
import sys

POOL = ("concurrent.futures.process", "multiprocessing")
import repro.system.jobs
assert not [name for name in POOL if name in sys.modules]

from repro.verify.cli import run_fuzz
assert run_fuzz(budget=2, jobs=1, seed=0, oracle="all",
                corpus_path=None, quiet=True, ledger=False) == 0
assert not [name for name in POOL if name in sys.modules]

# SB under SC with speculation diverges under the slb-deaf fault
from repro.consistency.litmus import STANDARD_TESTS
from repro.verify.harness import DEFAULT_RUN_CONFIGS, HarnessConfig, check_test
from repro.verify.localize import localize_divergence
config = HarnessConfig(models=("SC",), techniques=((False, True),),
                       run_configs=DEFAULT_RUN_CONFIGS[:1],
                       fault="slb-deaf", oracle="sim")
test = STANDARD_TESTS["SB"]()
result = check_test(test, config)
import tempfile
with tempfile.TemporaryDirectory() as out_dir:
    loc = localize_divergence(test, result.divergences[0], config=config,
                              out_dir=out_dir)
assert loc.reports

from repro.serve import make_job
from repro.serve.executors import execute_job
assert execute_job(make_job(test={"name": "SB"}))["cycles"] > 0

import repro.report
_report, failed = repro.report.generate(["E2-detailed"], verbose=False)
assert not failed, failed

loaded = sorted(name for name in sys.modules
                if name == "numpy" or name.startswith("repro.sim.batch"))
assert not loaded, loaded
"""


def test_scalar_paths_never_import_numpy_or_the_batch_engine():
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _imported_modules(path: Path, package: str):
    """Every module ``path`` imports, at any depth (lazy imports
    included), with relative imports resolved against ``package``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[:len(base) - node.level + 1]
                yield ".".join(base + ([node.module] if node.module else []))
            else:
                yield node.module


def test_consistency_never_imports_analysis():
    """``repro.analysis`` builds on ``repro.consistency``; an import the
    other way round (even a lazy one inside a function) is a cycle."""
    package_dir = Path(SRC) / "repro" / "consistency"
    upward = {
        path.name: sorted(name for name in
                          _imported_modules(path, "repro.consistency")
                          if name.startswith("repro.analysis"))
        for path in sorted(package_dir.glob("*.py"))
    }
    assert len(upward) > 3
    assert not {name: mods for name, mods in upward.items() if mods}


def test_only_cli_modules_import_argparse():
    """Argument parsing is the front-ends' business: the library layers
    below them raise their own errors and never see a parser."""
    root = Path(SRC) / "repro"
    importers = sorted(
        str(path.relative_to(root)) for path in root.rglob("*.py")
        if "argparse" in _imported_modules(path, "repro"))
    assert "cli_options.py" in importers
    assert [name for name in importers
            if name not in ("cli_options.py", "run.py", "report.py")
            and not name.endswith("/cli.py")] == []
