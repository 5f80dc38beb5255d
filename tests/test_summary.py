"""Tests for the run-summary digest."""

import pytest

from repro.analysis import (breakdown_table, effectiveness_table, summarize,
                            summary_table)
from repro.consistency import RC, SC
from repro.system import run_workload
from repro.workloads import critical_section_workload, example1_program


def run_example1(**kw):
    wl = example1_program()
    return run_workload([wl.program], initial_memory=wl.initial_memory,
                        warm_lines=wl.warm_lines, **kw)


class TestSummarize:
    def test_counts_instruction_mix(self):
        result = run_example1(model=SC)
        s = summarize(result)
        cpu = s.cpus[0]
        assert cpu.stores == 3          # write A, write B, unlock
        assert cpu.rmws == 1            # the lock
        assert cpu.instructions_retired > 0

    def test_ipc_and_rates_bounded(self):
        result = run_example1(model=SC)
        s = summarize(result)
        assert 0 < s.total_ipc < 8
        assert 0.0 <= s.hit_rate <= 1.0
        assert s.cycles == result.cycles

    def test_prefetch_shows_in_summary(self):
        base = summarize(run_example1(model=SC))
        pf = summarize(run_example1(model=SC, prefetch=True))
        assert pf.cpus[0].pf_issued > base.cpus[0].pf_issued

    def test_stall_accounting_differs_by_model(self):
        """SC's store serialization happens upstream (the ROB holds each
        store until the previous completes), so its store-buffer
        arc-stall counter stays at zero; under RC the *release* visibly
        waits in the store buffer for the pipelined writes."""
        sc = summarize(run_example1(model=SC))
        rc = summarize(run_example1(model=RC))
        assert sc.cpus[0].sb_stalls == 0
        assert rc.cpus[0].sb_stalls > 0

    def test_multiprocessor_summary_has_all_cpus(self):
        wl = critical_section_workload(num_cpus=2, iterations=1)
        result = run_workload(wl.programs, model=RC, speculation=True,
                              prefetch=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=2_000_000)
        s = summarize(result)
        assert len(s.cpus) == 2
        assert s.net_messages > 0
        assert s.dir_invals + s.dir_recalls > 0  # the lock line moved around

    def test_squash_overhead_fraction(self):
        wl = critical_section_workload(num_cpus=2, iterations=2)
        result = run_workload(wl.programs, model=SC, speculation=True,
                              prefetch=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=2_000_000)
        s = summarize(result)
        for cpu in s.cpus:
            assert 0.0 <= cpu.squash_overhead() < 1.0


class TestPrefetchRequests:
    """The prefetcher's requests are not the cache's issues: each
    request is issued to memory or discarded, and only the issued ones
    cost traffic."""

    def test_every_request_is_issued_or_discarded(self):
        wl = critical_section_workload(num_cpus=2, iterations=2)
        result = run_workload(wl.programs, model=SC, speculation=True,
                              prefetch=True,
                              initial_memory=wl.initial_memory,
                              max_cycles=2_000_000)
        cpus = summarize(result).cpus
        for cpu in cpus:
            assert cpu.pf_requested == cpu.pf_issued + cpu.pf_discarded
        cpu1 = cpus[1]
        assert (cpu1.pf_requested, cpu1.pf_issued,
                cpu1.pf_discarded) == (143, 5, 138)

    def test_report_does_not_register_statistics(self):
        result = run_example1(model=SC)
        before = result.stats.snapshot()
        summary_table(result)
        breakdown_table(result)
        effectiveness_table(result)
        assert result.stats.snapshot() == before


class TestSummaryTable:
    def test_renders_with_header_stats(self):
        result = run_example1(model=SC, prefetch=True)
        text = summary_table(result, title="example1").render()
        assert "example1" in text
        assert "IPC" in text
        assert "hit rate" in text

    def test_cli_summary_is_the_whole_run_report(self, capsys):
        from repro.run import main
        assert main(["--example", "example1", "--model", "SC", "--prefetch",
                     "--speculation", "--summary", "--no-ledger"]) == 0
        lines = capsys.readouterr().out.splitlines()

        def row(header, name):
            """``name``'s row of the table whose header starts with
            ``header``, as {column: cell}."""
            start = next(i for i, line in enumerate(lines)
                         if line.startswith(header + " "))
            columns = [c.strip() for c in lines[start].split("|")]
            cells = next(line for line in lines[start + 2:]
                         if line.split("|")[0].strip() == name)
            return dict(zip(columns, (c.strip() for c in cells.split("|"))))

        pf = row("cpu  | pf requested", "cpu0")
        assert (pf["pf requested"], pf["pf issued"], pf["pf late"],
                pf["pf hits"]) == ("4", "3", "2", "1")
        blame = row("cpu  | busy", "cpu0")
        assert [blame[c] for c in ("busy", "read_stall", "write_stall",
                                   "acquire_stall", "rob_full", "rollback",
                                   "idle", "total")] == [
            "4", "0", "3", "102", "0", "0", "0", "109"]

    def test_breakdown_flag_is_gone(self, capsys):
        from repro.run import main
        with pytest.raises(SystemExit) as exc:
            main(["--example", "example1", "--breakdown"])
        assert exc.value.code == 2

    def test_cli_summary_flag(self, tmp_path, capsys):
        from repro.run import main
        path = tmp_path / "p.s"
        path.write_text("movi r1, 1\nst r1, 0x40\nhalt\n")
        assert main([str(path), "--summary"]) == 0
        assert "IPC" in capsys.readouterr().out
