"""Cross-validation: the detailed simulator vs the litmus checker.

The litmus checker enumerates every outcome a model *allows*; the
detailed machine produces one concrete execution.  For every litmus
test, model, and technique combination, the machine's observed outcome
must lie inside the checker's allowed set — in particular, an SC
machine with both techniques enabled must never exhibit a non-SC
outcome, which is the paper's entire correctness claim.

To explore more than one interleaving we skew the processors' start
cycles.
"""

import pytest

from repro.consistency import PC, RC, RCSC, SC, WC, LitmusTest
from repro.consistency.litmus import (
    load_buffering,
    message_passing,
    message_passing_sync,
    sb_with_sync,
    store_buffering,
)
from repro.system import run_workload

MODELS = [SC, PC, WC, RC]


def run_litmus_on_machine(test: LitmusTest, model, prefetch, speculation,
                          delays):
    """Compile via :meth:`LitmusTest.to_programs` and read the outcome
    back from the audit slots."""
    programs, audit_map = test.to_programs()
    result = run_workload(programs, model=model, prefetch=prefetch,
                          speculation=speculation, miss_latency=40,
                          initial_memory={a: 0
                                          for a in test.addresses().values()},
                          max_cycles=1_000_000, starts=delays)
    outcome = tuple(sorted(
        (reg, result.machine.read_word(slot))
        for reg, slot in audit_map.items()
    ))
    return outcome


TESTS = [store_buffering, message_passing, message_passing_sync,
         load_buffering]
DELAY_PATTERNS = [(0, 0), (0, 40), (40, 0), (15, 3)]


@pytest.mark.parametrize("test_fn", TESTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("tech", ["base", "both"])
def test_observed_outcome_is_model_legal(test_fn, model, tech):
    test = test_fn()
    allowed = test.outcomes(model)
    prefetch = speculation = (tech == "both")
    for delays in DELAY_PATTERNS:
        outcome = run_litmus_on_machine(test, model, prefetch,
                                        speculation, delays)
        assert outcome in allowed, (
            f"{test.name} under {model.name}/{tech} with skew {delays} "
            f"produced {outcome}, which the model forbids"
        )


@pytest.mark.parametrize("tech", ["base", "both"])
def test_sc_machine_forbids_dekker_outcome_with_skews(tech):
    """The headline: an SC machine with the paper's techniques never
    shows the store-buffering relaxation, under any start skew."""
    test = store_buffering()
    prefetch = speculation = (tech == "both")
    for delays in DELAY_PATTERNS + [(5, 5), (1, 30), (30, 1)]:
        outcome = run_litmus_on_machine(test, SC, prefetch, speculation,
                                        delays)
        values = dict(outcome)
        assert not (values["r0"] == 0 and values["r1"] == 0), (
            f"SC violated with skew {delays} ({tech})"
        )


@pytest.mark.parametrize("model", [RC, RCSC], ids=lambda m: m.name)
def test_sb_with_sync_stays_model_legal(model):
    """The RCpc/RCsc distinction survives the trip through real
    hardware: whatever the machine produces, the matching checker
    allows it (and the RCsc checker forbids the Dekker outcome, so an
    RCsc machine must never show it)."""
    test = sb_with_sync()
    allowed = test.outcomes(model)
    for delays in DELAY_PATTERNS:
        outcome = run_litmus_on_machine(test, model, True, True, delays)
        assert outcome in allowed, (model.name, delays, outcome)


def test_sync_message_passing_correct_everywhere():
    test = message_passing_sync()
    for model in MODELS:
        for delays in DELAY_PATTERNS:
            outcome = run_litmus_on_machine(test, model, True, True, delays)
            values = dict(outcome)
            if values["r0"] == 1:  # saw the flag -> must see the data
                assert values["r1"] == 1, (model.name, delays)


# ----------------------------------------------------------------------
# Randomized litmus cross-validation (hypothesis)
# ----------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consistency import read as litmus_read
from repro.consistency import write as litmus_write


@st.composite
def random_litmus(draw):
    addrs = ["x", "y"]
    reg_counter = [0]

    def thread(tid):
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            addr = draw(st.sampled_from(addrs))
            if draw(st.booleans()):
                ops.append(litmus_write(addr, draw(st.integers(1, 3)),
                                        release=draw(st.booleans())))
            else:
                reg_counter[0] += 1
                ops.append(litmus_read(addr, f"r{tid}_{reg_counter[0]}",
                                       acquire=draw(st.booleans())))
        return ops

    return LitmusTest("generated", [thread(0), thread(1)])


class TestRandomLitmusCrossValidation:
    @given(test=random_litmus(),
           model=st.sampled_from(MODELS),
           spec=st.booleans(),
           delays=st.sampled_from(DELAY_PATTERNS))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_machine_outcome_always_model_legal(self, test, model, spec,
                                                delays):
        """For ANY random litmus shape, the detailed machine's outcome
        lies inside the model checker's allowed set."""
        allowed = test.outcomes(model)
        outcome = run_litmus_on_machine(test, model, spec, spec, delays)
        assert outcome in allowed, (
            f"{model.name} machine produced {outcome}; "
            f"checker allows only {sorted(allowed)}"
        )
