"""Shared fixtures.

``sanitized_run`` wraps :func:`repro.system.run_workload` with a trace
recorder and asserts the trace invariants afterwards, so any test can
opt into sanitized execution by taking the fixture and calling it like
``run_workload``.  ``child_env`` is the environment a test hands a
child interpreter it starts.
"""

import os
from pathlib import Path

import pytest

from repro.analysis.static import sanitize_trace
from repro.sim.trace import TraceRecorder
from repro.system import run_workload


@pytest.fixture
def sanitized_run():
    """``run_workload`` that fails the test on any trace-invariant
    violation.  Returns the usual ``RunResult``; the sanitizer report
    is attached as ``result.sanitizer_report``."""

    def _run(programs, model, **kwargs):
        trace = kwargs.pop("trace", None) or TraceRecorder()
        result = run_workload(programs, model=model, trace=trace, **kwargs)
        report = sanitize_trace(trace, model=model)
        result.sanitizer_report = report
        report.raise_if_failed()
        return result

    return _run


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """The package on the path, a minimal ``PATH``, and the parent's
    ``PYTHONDONTWRITEBYTECODE``: a test run that writes no bytecode
    starts children that write none either."""
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
