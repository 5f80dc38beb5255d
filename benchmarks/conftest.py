"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index), asserts the *shape* the paper reports
(who wins, by roughly what factor), and prints the rendered table so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` leaves a
complete experiment report.

This directory is the paper-table asserting harness (E1-E10, A1-A7,
S1-S2): pytest-benchmark is only the runner, and what a file checks is
simulated cycles, not host time.  It is not a host benchmark — that is
``bench/e2e`` (``BENCHMARK.json``), the only one.
"""

from __future__ import annotations


def report(table_or_text) -> None:
    """Print a table (or plain text) with surrounding whitespace so it
    survives pytest's output capture settings (-s recommended)."""
    text = table_or_text.render() if hasattr(table_or_text, "render") else str(table_or_text)
    print()
    print(text)
    print()
