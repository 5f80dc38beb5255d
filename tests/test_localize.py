"""Divergence localization (``repro.verify.localize``).

The acceptance contract for the localizer: an injected SLB fault is
automatically pinned to the **first divergent architectural event**
(``scalar-vs-scalar``: clean reference vs faulted subject), with the
paired archtraces written next to the report.  Without a fault there
is nothing clean to diff against: the failing leg's archtrace is
written and no comparison is attached.
"""

import dataclasses
import os

from repro.consistency.litmus import STANDARD_TESTS
from repro.obs.archtrace import ArchTraceReader
from repro.verify.corpus import CORPUS_VERSION, Corpus, CorpusEntry
from repro.verify.harness import (
    DEFAULT_RUN_CONFIGS,
    Divergence,
    HarnessConfig,
    check_test,
)
from repro.verify.localize import LocalizationResult, localize_divergence


def _fault_config():
    # SB under SC with speculation diverges deterministically under the
    # slb-deaf fault (the buffer ignores invalidation snoops, so the
    # speculative load is never rolled back)
    return HarnessConfig(models=("SC",), techniques=((False, True),),
                         run_configs=DEFAULT_RUN_CONFIGS[:1],
                         fault="slb-deaf", oracle="sim")


class TestFaultLocalization:
    def test_injected_fault_is_pinned_to_first_arch_event(self, tmp_path):
        test = STANDARD_TESTS["SB"]()
        config = _fault_config()
        result = check_test(test, config)
        assert result.divergences, "fault must be caught first"
        loc = localize_divergence(test, result.divergences[0],
                                  config=config, test_name="SB",
                                  out_dir=str(tmp_path))

        assert set(loc.reports) == {"scalar-vs-scalar"}
        report = loc.reports["scalar-vs-scalar"]
        assert report.classification == "architectural"
        assert report.arch_event_a or report.arch_event_b
        # paired archtraces are on disk for CI upload
        for path_a, path_b in loc.artifacts.values():
            assert os.path.exists(path_a) and os.path.exists(path_b)

    def test_localization_round_trips_and_lands_in_corpus(self, tmp_path):
        test = STANDARD_TESTS["SB"]()
        config = _fault_config()
        result = check_test(test, config)
        loc = localize_divergence(test, result.divergences[0],
                                  config=config, test_name="SB",
                                  out_dir=str(tmp_path / "loc"))

        again = LocalizationResult.from_dict(loc.to_dict())
        assert again.fault == "slb-deaf"
        assert (again.reports["scalar-vs-scalar"].classification
                == "architectural")

        corpus = Corpus()
        for localization in (loc.to_dict(), PARENT_SHAPED_LOCALIZATION):
            corpus.add(CorpusEntry(
                master_seed=0, index=0, derived_seed=0, test={},
                divergences=[], fault="slb-deaf",
                localization=localization))
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.version == CORPUS_VERSION == 3
        for entry in loaded.entries:
            entry_loc = LocalizationResult.from_dict(entry.localization)
            assert entry_loc.fault == "slb-deaf"
            assert (entry_loc.reports["scalar-vs-scalar"].classification
                    == "architectural")
            assert entry_loc.describe().startswith("localized leg: SB")


def _report_dict(reference, **reference_header):
    """One stored report: ``reference`` diffed against the faulted run."""
    return {
        "classification": "architectural",
        "label_a": reference, "label_b": "faulted-scalar",
        "header_a": {"archtrace": 1, "backend": "scalar",
                     "label": f"SB {reference}", **reference_header},
        "header_b": {"archtrace": 1, "backend": "scalar",
                     "label": "SB faulted-scalar"},
        "first_raw_index": 11,
        "first_raw_a": "[    41] cpu1 squash seq=4 count=6",
        "first_raw_b": "[    41] cpu1 retire seq=4",
        "arch_cpu": 1,
        "arch_event_a": "[    41] cpu1 squash seq=4 count=6",
        "arch_event_b": "[   107] cpu1 load seq=4 addr=288 value=0",
        "context_a": [], "context_b": [],
        "cycles_a": 160, "cycles_b": 120,
        "memory_delta": {}, "blame_delta": [],
        "dropped_a": 0, "dropped_b": 0, "events_a": 40, "events_b": 36,
    }


#: a localization as corpora written with the lockstep engine's
#: references stored it: a "backend" tag and a second report whose
#: clean reference carried its engine and fallback reason in the header
PARENT_SHAPED_LOCALIZATION = {
    "test_name": "SB", "model": "SC", "prefetch": False,
    "speculation": True, "config_name": "warm-tight",
    "backend": "scalar", "fault": "slb-deaf",
    "reports": {
        "scalar-vs-scalar": _report_dict("clean-scalar"),
        "scalar-vs-batched": _report_dict(
            "clean-batched", fallback_reason="speculative loads enabled"),
    },
    "artifacts": {
        "scalar-vs-scalar": ["loc/clean-scalar.archtrace.jsonl",
                             "loc/faulted-scalar.archtrace.jsonl"],
        "scalar-vs-batched": ["loc/clean-batched.archtrace.jsonl",
                              "loc/faulted-scalar.archtrace.jsonl"],
    },
}


class TestNoFaultLocalization:
    def test_leg_archtrace_is_written_without_a_report(self, tmp_path):
        # without a fault there is no clean run to diff against: the
        # failing leg's own archtrace is the triage artifact
        test = STANDARD_TESTS["MP"]()
        div = Divergence(test_name="MP", model="WC", prefetch=False,
                         speculation=False, config_name="warm-tight",
                         observed=(), permitted_count=0)
        loc = localize_divergence(test, div, config=HarnessConfig(),
                                  test_name="MP", out_dir=str(tmp_path))
        assert loc.reports == {} and loc.artifacts == {}
        reader = ArchTraceReader(str(tmp_path / "scalar.archtrace.jsonl"))
        events = list(reader)
        assert reader.header["label"] == "MP scalar"
        assert {ev.kind for ev in events} >= {"retire", "load", "store"}
        assert reader.footer["cycles"] > 0

    def test_unknown_run_config_is_rejected(self):
        test = STANDARD_TESTS["MP"]()
        div = dataclasses.replace(
            Divergence(test_name="MP", model="WC", prefetch=False,
                       speculation=False, config_name="no-such-config",
                       observed=(), permitted_count=0))
        try:
            localize_divergence(test, div)
        except KeyError as exc:
            assert "no-such-config" in str(exc)
        else:
            raise AssertionError("expected KeyError")
