"""Tests for the related-work baselines and the analysis layer."""

import pytest

from repro.baselines import (
    adve_hill_sc,
    binding_prefetch,
    compare_schemes,
    conventional,
    our_techniques,
    stenstrom_nst,
)
from repro.analysis import (
    Table,
    equalization_table,
    example_cycle_table,
    latency_sweep_table,
    litmus_outcome_table,
    related_work_table,
)
from repro.consistency import RC, SC
from repro.core.timing import TimingConfig
from repro.sim.errors import ConfigurationError
from repro.workloads import (
    example1_segment,
    example2_segment,
    pointer_chase_segment,
)


class TestBaselineSchemes:
    def test_conventional_matches_paper(self):
        assert conventional(example1_segment(), SC).total_cycles == 301
        assert conventional(example2_segment(), RC).total_cycles == 203

    def test_binding_prefetch_equals_conventional(self):
        """Section 6: binding prefetch cannot start before the access."""
        for seg in (example1_segment(), example2_segment()):
            assert (binding_prefetch(seg, SC).total_cycles
                    == conventional(seg, SC).total_cycles)

    def test_adve_hill_helps_writes_only(self):
        seg1 = example1_segment()  # write-dominated
        seg2 = example2_segment()  # read-dominated
        assert adve_hill_sc(seg1).total_cycles < conventional(seg1, SC).total_cycles
        assert adve_hill_sc(seg2).total_cycles == conventional(seg2, SC).total_cycles

    def test_adve_hill_gain_is_limited(self):
        """'the latency of obtaining ownership is often only slightly
        smaller than the latency for the write to complete.'"""
        seg = example1_segment()
        conv = conventional(seg, SC).total_cycles
        adve = adve_hill_sc(seg, ownership_fraction=0.8).total_cycles
        ours = our_techniques(seg, SC).total_cycles
        assert (conv - adve) < (conv - ours) / 3

    def test_adve_hill_ownership_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            adve_hill_sc(example1_segment(), ownership_fraction=0.0)

    def test_adve_hill_full_fraction_equals_conventional(self):
        seg = example1_segment()
        assert (adve_hill_sc(seg, ownership_fraction=1.0).total_cycles
                == conventional(seg, SC).total_cycles)

    def test_stenstrom_pipelines_but_loses_caches(self):
        miss_bound = pointer_chase_segment(length=4)         # all misses
        cached = pointer_chase_segment(length=4, hit_fraction=1.0)
        assert (stenstrom_nst(miss_bound).total_cycles
                == stenstrom_nst(cached).total_cycles), \
            "NST cannot exploit locality"
        assert (our_techniques(cached, SC).total_cycles
                < stenstrom_nst(cached).total_cycles / 10)

    def test_our_techniques_dominate_on_examples(self):
        for seg in (example1_segment(), example2_segment()):
            ours = our_techniques(seg, SC).total_cycles
            for res in compare_schemes(seg):
                assert ours <= res.total_cycles

    def test_compare_schemes_includes_all_five(self):
        names = {r.scheme for r in compare_schemes(example1_segment())}
        assert names == {"conventional", "binding-prefetch", "adve-hill-sc",
                         "stenstrom-nst", "prefetch+speculation"}

    def test_compare_schemes_is_deterministic(self):
        seg = example2_segment()
        runs = [[(r.scheme, r.total_cycles) for r in compare_schemes(seg)]
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_custom_timing_config_respected(self):
        cfg = TimingConfig(miss_latency=10)
        assert conventional(example1_segment(), SC, cfg).total_cycles == 31


class TestTables:
    def test_add_row_validates_width(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_aligns_and_includes_notes(self):
        t = Table("Title", ["col", "value"])
        t.add_row("x", 1).add_note("hello")
        text = t.render()
        assert "Title" in text and "hello" in text and "col" in text

    def test_cell_and_column_access(self):
        t = Table("t", ["a", "b"]).add_row(1, 2).add_row(3, 4)
        assert t.cell(1, "b") == 4
        assert t.column_values("a") == [1, 3]

    def test_float_formatting(self):
        t = Table("t", ["x"]).add_row(1.23456)
        assert "1.23" in t.render()

    def test_none_renders_as_dash(self):
        t = Table("t", ["x"]).add_row(None)
        assert "-" in t.render()


class TestExperimentTables:
    def test_litmus_table_has_all_models(self):
        t = litmus_outcome_table()
        assert list(t.columns[1:]) == ["SC", "PC", "WC", "RC"]
        assert len(t.rows) == 5

    def test_example_table_analytical_matches_paper_columns(self):
        t = example_cycle_table("example1")
        sc_row = dict(zip(t.columns, t.rows[0]))
        assert sc_row["baseline"] == 301
        assert sc_row["prefetch"] == 103

    def test_example_table_rejects_unknown_example(self):
        with pytest.raises(ValueError):
            example_cycle_table("example99")

    def test_equalization_gaps_close(self):
        t = equalization_table()
        for row in t.rows:
            assert row[-1] <= row[3] + 1e-9  # gap' <= gap

    def test_latency_sweep_monotone_baselines(self):
        t = latency_sweep_table(latencies=(20, 100))
        sc = t.column_values("SC base")
        assert sc[0] < sc[1]

    def test_latency_sweep_example1_tracks_exposed_misses(self):
        t = latency_sweep_table(segment=example1_segment(),
                                segment_name="example1")
        for lat, sc_base, _, sc_both, _, _ in t.rows:
            # baseline SC serializes 3 misses; with both techniques only
            # the lock's miss remains exposed
            assert sc_base >= 3 * lat
            assert sc_both <= lat + 10

    def test_related_work_table_schemes_present(self):
        t = related_work_table()
        schemes = t.column_values("scheme")
        assert "stenstrom-nst" in schemes and "prefetch+speculation" in schemes
