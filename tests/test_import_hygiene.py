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
import re
import subprocess
import sys
from pathlib import Path

from tests.conftest import SRC, child_env


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
                          env=child_env(),
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


def test_obs_never_imports_the_layers_built_on_the_core():
    """The processor core imports ``repro.obs``, so an import of the
    machine, the workloads or the analysis layer from it (even a lazy
    one inside a function) is a cycle.  Its command line, an entry
    point, is the one exception."""
    package_dir = Path(SRC) / "repro" / "obs"
    above = ("repro.analysis", "repro.system", "repro.workloads")
    upward = {
        path.name: sorted(name for name in
                          _imported_modules(path, "repro.obs")
                          if name.startswith(above))
        for path in sorted(package_dir.glob("*.py"))
        if path.name not in ("cli.py", "__main__.py")
    }
    assert len(upward) > 5
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


def test_the_machine_waits_for_events_instead_of_polling():
    """A blocked access or message in the modelled machine stays where
    it is queued until the event that frees its resource resumes it; no
    component reschedules itself to ask again.  The one exception, the
    per-cycle port budget, says so on its line."""
    root = Path(SRC) / "repro"
    polls = [f"{path.relative_to(root)}:{number}: {line.strip()}"
             for package in ("memory", "coherence", "cpu")
             for path in sorted((root / package).glob("*.py"))
             for number, line in enumerate(
                 path.read_text().splitlines(), 1)
             if re.search(r"schedule\([01]\b", line)
             and "# port budget:" not in line]
    assert polls == []


def _top_package(module: str) -> str:
    """``repro.sim.batch.engine`` -> ``repro.sim``."""
    return ".".join(module.split(".")[:2])


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_module(name: str, root: Path) -> bool:
    base = root.parent.joinpath(*name.split("."))
    return base.with_suffix(".py").exists() or (base / "__init__.py").exists()


def test_no_module_reaches_another_packages_private_names():
    """An underscore name is its package's business: another top-level
    package (``repro.memory``, ``repro.serve``, ...) neither imports one
    nor reaches one through a module alias.  What two packages share is
    public."""
    root = Path(SRC) / "repro"
    reaches = []
    for path in sorted(root.rglob("*.py")):
        module = _module_name(path, root)
        package = module if path.name == "__init__.py" else \
            module.rpartition(".")[0]
        here = _top_package(module)
        aliases = {}  # local name -> module it is bound to
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = package.split(".")[:len(package.split("."))
                                              - node.level + 1]
                    source = ".".join(base + ([node.module]
                                              if node.module else []))
                for alias in node.names:
                    target = f"{source}.{alias.name}"
                    if _is_module(target, root):
                        aliases[alias.asname or alias.name] = target
                    elif (alias.name.startswith("_")
                          and _top_package(source) != here):
                        reaches.append(f"{module}: {target}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and _top_package(aliases[node.value.id]) != here):
                reaches.append(
                    f"{module}: {aliases[node.value.id]}.{node.attr}")
    assert reaches == []


def test_only_the_consistency_layer_reads_a_model_by_name():
    """Behaviour follows a model's relation (``delay_arc`` and what
    derives from it), never its name: outside ``repro.consistency`` no
    comparison sets a model's ``.name`` against a model name."""
    from repro.consistency.models import _MODELS

    names = {model.name for model in _MODELS.values()}
    names |= {name.upper() for name in names}
    root = Path(SRC) / "repro"

    def literals(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                yield from literals(element)

    def reads_name(node):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            return reads_name(node.func.value)  # model.name.upper()
        return isinstance(node, ast.Attribute) and node.attr == "name"

    decisions = []
    for path in sorted(root.rglob("*.py")):
        if path.parent.name == "consistency":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if (any(reads_name(side) for side in sides)
                    and any(name in names for side in sides
                            for name in literals(side))):
                decisions.append(f"{path.relative_to(root)}:{node.lineno}")
    assert decisions == []
