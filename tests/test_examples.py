"""Smoke tests: every example script runs and says what it promises."""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(name, monkeypatch, capsys, argv=()):
    monkeypatch.setattr(sys, "argv", [f"{EXAMPLES}/{name}.py", *argv])
    runpy.run_path(f"{EXAMPLES}/{name}.py", run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example("quickstart", monkeypatch, capsys)
        assert "Example 1" in out
        assert "301" in out           # the paper column
        assert "equalize" in out.lower() or "as fast as" in out.lower()

    def test_producer_consumer(self, monkeypatch, capsys):
        out = run_example("producer_consumer", monkeypatch, capsys)
        assert out.count("yes") >= 8  # 4 models x 2 techniques all correct
        assert "NO" not in out

    def test_litmus_explorer(self, monkeypatch, capsys):
        out = run_example("litmus_explorer", monkeypatch, capsys)
        assert "store-buffering" in out
        assert "message-passing" in out
        assert "outcome sets" in out

    def test_figure5_walkthrough(self, monkeypatch, capsys):
        out = run_example("figure5_walkthrough", monkeypatch, capsys)
        assert "invalidation for D arrives" in out
        assert "squash" in out
        assert "r2 = MEM[D]    = 1" in out

    def test_figure5_walkthrough_custom_cycle(self, monkeypatch, capsys):
        out = run_example("figure5_walkthrough", monkeypatch, capsys,
                          argv=["40"])
        assert "Figure 5 scenario completed" in out

    def test_timing_diagrams(self, monkeypatch, capsys):
        out = run_example("timing_diagrams", monkeypatch, capsys)
        assert "#" in out and "p" in out
        assert "302 cycles" in out and "104 cycles" in out

    def test_timing_diagrams_example1(self, monkeypatch, capsys):
        out = run_example("timing_diagrams", monkeypatch, capsys,
                          argv=["example1"])
        assert "301 cycles" in out and "103 cycles" in out

    def test_sc_violation_detector(self, monkeypatch, capsys):
        out = run_example("sc_violation_detector", monkeypatch, capsys)
        assert "no potential SC violations" in out
        assert "1 potential SC violation" in out

    def test_static_analysis(self, monkeypatch, capsys):
        out = run_example("static_analysis", monkeypatch, capsys)
        assert "data-race" in out
        assert "sc_guaranteed=True" in out
        assert "all invariants hold" in out
        assert "agreement holds on every case" in out

    @pytest.mark.slow
    def test_critical_section_study(self, monkeypatch, capsys):
        out = run_example("critical_section_study", monkeypatch, capsys)
        assert "private locks" in out
        assert "contended" in out
        assert "NO" not in out
