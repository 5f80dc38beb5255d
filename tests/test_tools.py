"""Tests for the Gantt renderer and the run CLI."""

import pytest

from repro import SC, AnalyticalTimingModel
from repro.analysis import compare_schedules, render_schedule
from repro.workloads import example1_segment, example2_segment


class TestGantt:
    def schedule(self, **kw):
        return AnalyticalTimingModel().schedule(example2_segment(), SC, **kw)

    def test_renders_all_accesses(self):
        text = render_schedule(self.schedule())
        for label in ("lock L", "read C", "read D", "read E[D]", "unlock L"):
            assert label in text

    def test_marks_prefetches(self):
        text = render_schedule(self.schedule(prefetch=True))
        assert "p" in text and "prefetch in flight" in text

    def test_marks_speculative_loads(self):
        text = render_schedule(self.schedule(speculation=True))
        assert "*" in text and "speculative" in text

    def test_bars_reflect_cycle_windows(self):
        res = self.schedule()
        text = render_schedule(res, width=res.total_cycles)  # 1 col = 1 cycle
        lock_line = next(l for l in text.splitlines() if l.startswith("lock L"))
        bar = lock_line.split("|")[1]
        assert bar.count("#") == 100  # the lock's full miss window

    def test_compare_stacks_multiple(self):
        engine = AnalyticalTimingModel()
        results = [engine.schedule(example1_segment(), SC),
                   engine.schedule(example1_segment(), SC, prefetch=True)]
        text = compare_schedules(results)
        assert text.count("301 cycles") == 1
        assert text.count("103 cycles") == 1

    def test_issue_complete_annotation(self):
        text = render_schedule(self.schedule())
        assert "1..100" in text   # the lock
        assert "302..302" in text  # the unlock


class TestRunCli:
    def write_program(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    def test_single_program(self, tmp_path, capsys):
        from repro.run import main
        path = self.write_program(tmp_path, "p.s",
                                  "movi r1, 5\nst r1, 0x40\nld r2, 0x40\nhalt\n")
        assert main([path, "--watch", "0x40", "--regs", "r2"]) == 0
        out = capsys.readouterr().out
        assert "MEM[0x40] = 5" in out
        assert "r2=5" in out
        assert "completed in" in out

    def test_two_programs_with_model_and_techniques(self, tmp_path, capsys):
        from repro.run import main
        prod = self.write_program(tmp_path, "prod.s",
                                  "movi r1, 9\nst r1, 0x40\nst.rel r1, 0x80\nhalt\n")
        cons = self.write_program(
            tmp_path, "cons.s",
            "spin:\nld.acq r2, 0x80\nbeqz r2, spin !taken\nld r3, 0x40\nhalt\n")
        assert main([prod, cons, "--model", "rc", "--prefetch",
                     "--speculation", "--regs", "r3"]) == 0
        out = capsys.readouterr().out
        assert "cpu1: r3=9" in out

    def test_init_memory_and_stats(self, tmp_path, capsys):
        from repro.run import main
        path = self.write_program(tmp_path, "p.s", "ld r1, 0x40\nhalt\n")
        assert main([path, "--init", "0x40=77", "--regs", "r1",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "r1=77" in out
        assert "cpu0/instructions_retired" in out

    def test_bad_init_rejected(self, tmp_path):
        from repro.run import main
        path = self.write_program(tmp_path, "p.s", "halt\n")
        with pytest.raises(SystemExit):
            main([path, "--init", "banana"])

    def test_trace_flag_prints_events(self, tmp_path, capsys):
        from repro.run import main
        path = self.write_program(tmp_path, "p.s",
                                  "movi r1, 1\nst r1, 0x40\nhalt\n")
        assert main([path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "--- trace ---" in out
        assert "store_issue" in out


class TestCliMisuse:
    """A bad file, name or number is a usage error, in all seven
    front-ends: one ``error:`` line on stderr and exit 2 — never a
    traceback, never exit 1 (which means "sanitize failed" / "races
    found" / "diverged"), never a silent pass."""

    CASES = [
        ("repro.run", ["{missing}"]),
        ("repro.run", ["{program}", "--model", "XX"]),
        ("repro.run", ["{program}", "--watch", "zz"]),
        ("repro.run", ["{program}", "--init", "zz=1"]),
        ("repro.obs.cli", ["convert", "{missing}", "{out}"]),
        ("repro.obs.cli", ["diff", "{missing}", "{missing}"]),
        # a malformed trace is unreadable input, not a divergence
        ("repro.obs.cli", ["diff", "{notjson}", "{notjson}"]),
        ("repro.obs.cli", ["diff", "{nocpu}", "{nocpu}"]),
        ("repro.obs.cli", ["convert", "{scalar}", "{out}"]),
        ("repro.obs.cli", ["breakdown", "--models", "XX"]),
        ("repro.obs.cli", ["breakdown", "--model", "XX"]),
        # spellings that were deprecated aliases and are gone: with a
        # valid model, only the spelling itself can be the error
        ("repro.obs.cli", ["breakdown", "--models", "SC"]),
        ("repro.serve.cli", ["serve", "--ledger-path"]),
        ("repro.run", ["{program}", "--breakdown"]),
        ("repro.analysis.static.cli", ["{missing}"]),
        ("repro.analysis.static.cli", ["{program}", "--model", "XX"]),
        ("repro.analysis.axiomatic.cli", ["--model", "XX"]),
        ("repro.analysis.axiomatic.cli", ["NOPE"]),
        # an output file that cannot be created, found before the run
        ("repro.run", ["{program}", "--stats-json", "{missing}/x.json"]),
        ("repro.run", ["{program}", "--perfetto", "{missing}/x.json"]),
        ("repro.run", ["{program}", "--trace-jsonl", "{missing}/x.jsonl"]),
        ("repro.run", ["{program}", "--archtrace", "{missing}/x.jsonl"]),
        ("repro.run", ["{program}", "--stats-json", "{dir}"]),
        ("repro.obs.cli", ["convert", "{trace}", "{missing}/x.json"]),
        ("repro.obs.cli", ["breakdown", "--stats-json", "{missing}/x.json"]),
        ("repro.verify.cli", ["--budget", "2", "--stats-json",
                              "{missing}/x.json"]),
        ("repro.verify.cli", ["--budget", "2", "--prometheus",
                              "{missing}/x.prom"]),
        ("repro.verify.cli", ["--budget", "2", "--trace-spans",
                              "{missing}/x.json"]),
        # a program that does not assemble
        ("repro.run", ["{badasm}"]),
        ("repro.analysis.static.cli", ["{badasm}"]),
        # values out of range, checked by the rule's owner at parse time
        ("repro.run", ["{program}", "--regs", "zz"]),
        ("repro.run", ["{program}", "--miss-latency", "-5"]),
        ("repro.obs.cli", ["breakdown", "--miss-latency", "-1"]),
        ("repro.analysis.static.cli", ["{program}", "--line-size", "0"]),
        ("repro.analysis.static.cli", ["{program}", "--line-size", "-4"]),
        ("repro.serve.cli", ["loadgen", "--clients", "0"]),
        ("repro.serve.cli", ["loadgen", "--mode", "open", "--rate", "0"]),
        ("repro.serve.cli", ["loadgen", "--count", "-1"]),
        ("repro.serve.cli", ["submit", "--model", "XX"]),
        ("repro.serve.cli", ["replay", "{notjson}"]),
        ("repro.verify.cli", ["--budget", "0"]),
        ("repro.verify.cli", ["--jobs", "0"]),
        ("repro.verify.cli", ["--fault", "slb-deaf",
                              "--server", "127.0.0.1:1"]),
        # the batched backend is gone, not silently scalar
        ("repro.verify.cli", ["--backend", "batched"]),
        # a filter that selects nothing must not pass as an empty report
        ("repro.report", ["NOPE"]),
    ]

    @pytest.mark.parametrize(
        "module,argv", CASES,
        ids=[f"{m.split('.', 1)[1]}:{' '.join(a)}" for m, a in CASES])
    def test_exits_2_with_one_error_line(self, module, argv, tmp_path,
                                         capsys):
        import importlib

        program = tmp_path / "p.s"
        program.write_text("halt\n")
        paths = {"program": str(program), "out": str(tmp_path / "out.json"),
                 "missing": str(tmp_path / "missing"), "dir": str(tmp_path)}
        for name, text in (("notjson", "not json\n"),
                           ("nocpu", '{"archtrace": 1}\n'
                                     '{"cycle": 1, "kind": "retire"}\n'),
                           ("scalar", "5\n"), ("badasm", "bogus r1\n"),
                           ("trace", '{"cycle": 1, "detail": {}, '
                                     '"kind": "retire", "source": "cpu0"}\n')):
            (tmp_path / f"{name}.jsonl").write_text(text)
            paths[name] = str(tmp_path / f"{name}.jsonl")
        main = importlib.import_module(module).main
        try:
            status = main([arg.format(**paths) for arg in argv])
        except SystemExit as exc:       # argparse's own exit
            status = exc.code
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err
        assert sum("error:" in line
                   for line in captured.err.splitlines()) == 1
        # nothing ran first: a bad --watch used to fail after the simulation
        assert captured.out == ""


class TestSharedOptions:
    """``repro.cli_options``: one spelling per concept."""

    @staticmethod
    def _parse(argv):
        from repro.obs.cli import build_parser as obs_parser
        from repro.serve.cli import build_parser as serve_parser

        build = serve_parser if argv[0] == "serve" else obs_parser
        return vars(build().parse_args(argv))

    def test_repeatable_model_replaces_its_default(self):
        from repro.consistency.models import ALL_MODELS, SC, WC

        assert self._parse(["breakdown"])["model"] == ALL_MODELS
        for argv in (["--model", "SC", "WC"], ["--model", "SC", "--model",
                                               "wc"]):
            assert self._parse(["breakdown", *argv])["model"] == [SC, WC]

    def test_serve_submit_keeps_model_names_as_typed(self):
        from repro.serve.cli import build_parser

        args = build_parser().parse_args(["submit", "--model", "sc", "RC"])
        assert args.model == ["sc", "RC"]
        assert build_parser().parse_args(["submit"]).model == ["SC"]

    @pytest.mark.parametrize("module,argv", [
        ("repro.run", []), ("repro.verify.cli", []),
        ("repro.serve.cli", ["serve"]), ("repro.obs.cli", ["breakdown"]),
        ("repro.analysis.static.cli", []),
        ("repro.analysis.axiomatic.cli", []), ("repro.report", []),
    ])
    def test_help_renders(self, module, argv, capsys):
        import importlib

        with pytest.raises(SystemExit) as exc:
            importlib.import_module(module).main([*argv, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out
