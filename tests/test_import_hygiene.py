"""Scalar legs do not load numpy, the lockstep engine or a process pool.

``repro.sim.batch`` is the only numpy user; the job type and the scalar
way to run a job live in ``repro.system.jobs`` so that a scalar fuzz
campaign, a served job and a detailed report table never import it.
``repro.sim.sweep`` imports ``ProcessPoolExecutor`` in its pool branch
only, so a ``jobs=1`` campaign, a bench child and a serve pool worker do
not pay for ``multiprocessing`` (22-25 ms of a ~100 ms ``import repro``).
``sys.modules`` is per-process, so the check runs in a fresh
interpreter (this one has long since imported the batch tests).
"""

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
assert run_fuzz(budget=2, jobs=1, seed=0, backend="scalar", oracle="all",
                corpus_path=None, quiet=True, ledger=False) == 0
assert not [name for name in POOL if name in sys.modules]

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
