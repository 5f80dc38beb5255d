"""Divergence localization (``repro.verify.localize``).

The acceptance contract for the localizer: an injected SLB fault is
automatically pinned to the **first divergent architectural event**,
both scalar-vs-scalar (clean reference vs faulted subject) and
scalar-vs-batched, with the paired archtraces written next to the
report.  The no-fault path diffs the two backends directly and comes
back ``identical`` on a conventional leg (the parity pin, localized).
"""

import dataclasses
import os

from repro.consistency.litmus import STANDARD_TESTS
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

        assert set(loc.reports) == {"scalar-vs-scalar", "scalar-vs-batched"}
        for name, report in loc.reports.items():
            assert report.classification == "architectural", name
            assert report.arch_event_a or report.arch_event_b, name
        # the honest-fallback tag (speculative legs are outside the
        # batch envelope, so the "batched" reference really ran scalar
        # and must say so)
        ref_header = loc.reports["scalar-vs-batched"].header_a
        assert ref_header.get("backend") == "scalar"
        assert ref_header.get("fallback_reason")
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
        corpus.add(CorpusEntry(
            master_seed=0, index=0, derived_seed=0, test={},
            divergences=[], fault="slb-deaf",
            localization=loc.to_dict()))
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.version == CORPUS_VERSION == 3
        entry_loc = LocalizationResult.from_dict(
            loaded.entries[0].localization)
        assert (entry_loc.reports["scalar-vs-batched"].classification
                == "architectural")


class TestNoFaultLocalization:
    def test_conventional_leg_localizes_as_identical(self, tmp_path):
        # without a fault the localizer compares the two backends; on a
        # conventional leg they are bit-identical by contract
        test = STANDARD_TESTS["MP"]()
        div = Divergence(test_name="MP", model="WC", prefetch=False,
                         speculation=False, config_name="warm-tight",
                         observed=(), permitted_count=0)
        loc = localize_divergence(test, div, config=HarnessConfig(),
                                  test_name="MP", out_dir=str(tmp_path))
        assert set(loc.reports) == {"scalar-vs-batched"}
        report = loc.reports["scalar-vs-batched"]
        assert report.classification == "identical"
        assert report.header_b.get("backend") == "batched"

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
