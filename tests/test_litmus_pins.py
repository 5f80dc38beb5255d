"""Pins on the interleaving enumerator's outcome sets.

``LitmusTest.outcomes`` has one implementation and the axiomatic
checker is compared *with* it, so a rewrite of the search has nothing
left in the tree to diff against.  The digests below were generated at
commit ``9c3c520`` (the dict-and-recursion search) in a scratch clone,
before the integer search replaced it.
"""

import hashlib

import pytest

from repro.consistency.litmus import (
    STANDARD_TESTS,
    LitmusTest,
    fence,
    read,
    rmw,
    write,
)
from repro.consistency.models import get_model
from repro.sim.sweep import derive_seed
from repro.verify.generator import GeneratorConfig, generate_litmus

MODELS = ("SC", "PC", "WC", "RC")

#: the shape of ``bench/e2e``'s ``static_oracles`` workload
THREE_BY_TWO = GeneratorConfig(min_cpus=3, max_cpus=3, min_ops_per_thread=2,
                               max_ops_per_thread=2, max_total_ops=6)


def _generated(config):
    return [generate_litmus(derive_seed(0, i, "litmus-pins"), config)
            for i in range(150)]


FAMILIES = {
    "standard": lambda: [build() for build in STANDARD_TESTS.values()],
    "default-150": lambda: _generated(GeneratorConfig()),
    "3x2-150": lambda: _generated(THREE_BY_TWO),
}

#: (family, model) -> sha256[:16] over one ``name sorted-outcomes``
#: line per test of the family, in family order
OUTCOME_PINS = {
    ("standard", "SC"): "910a979f49c2cd71",
    ("standard", "PC"): "7ec054cb9fbe4ab1",
    ("standard", "WC"): "a1b64a175f6c2ded",
    ("standard", "RC"): "c47390714c372501",
    ("default-150", "SC"): "f793055d306579f8",
    ("default-150", "PC"): "64ea9bef721c514c",
    ("default-150", "WC"): "ef5502784cdc09a0",
    ("default-150", "RC"): "ef5502784cdc09a0",
    ("3x2-150", "SC"): "cddfaf951afb1a73",
    ("3x2-150", "PC"): "e05e50b4b47b92a6",
    ("3x2-150", "WC"): "04b421347fee6866",
    ("3x2-150", "RC"): "04b421347fee6866",
}


def family_digest(tests, model_name):
    model = get_model(model_name)
    text = "\n".join(f"{test.name} {sorted(test.outcomes(model))!r}"
                     for test in tests)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,model", list(OUTCOME_PINS),
                         ids=[f"{f}-{m}" for f, m in OUTCOME_PINS])
def test_family_outcome_sets(family, model):
    assert family_digest(FAMILIES[family](), model) == OUTCOME_PINS[
        (family, model)]


def test_every_family_is_pinned_under_every_model():
    assert set(OUTCOME_PINS) == {(f, m) for f in FAMILIES for m in MODELS}


class TestCornerCases:
    """Hand-built tests whose ordering comes from the same-address
    rule, written out so a reader can check them without the parent."""

    def test_rmw_and_a_same_valued_write_to_one_location(self):
        # both stores to flag write 3, so memory alone cannot tell which
        # of them ran; PC keeps W y -> U flag and W flag -> R flag -> R y,
        # so an RMW that read 0 ran before all of T1 and R y sees 1
        test = LitmusTest(name="rmw-corner", threads=[
            [write("y", 1), rmw("flag", "r0", 3)],
            [write("flag", 3), read("flag", "r1"), read("y", "r2")],
        ])
        relaxed = [
            (("r0", 0), ("r1", 3), ("r2", 0)),
            (("r0", 0), ("r1", 3), ("r2", 1)),
            (("r0", 3), ("r1", 3), ("r2", 0)),
            (("r0", 3), ("r1", 3), ("r2", 1)),
        ]
        assert sorted(test.outcomes(get_model("PC"))) == relaxed[1:]
        assert sorted(test.outcomes(get_model("WC"))) == relaxed

    @pytest.mark.parametrize("model", MODELS)
    def test_two_fences_in_one_thread_restore_sc(self, model):
        # both fences have addr == "": they order with each other by
        # the same-address rule and with everything else by delay arcs
        fenced = LitmusTest(name="sb+2f", threads=[
            [write("x", 1), fence(), fence(), read("y", "r0")],
            [write("y", 1), fence(), read("x", "r1")],
        ])
        assert sorted(fenced.outcomes(get_model(model))) == [
            (("r0", 0), ("r1", 1)),
            (("r0", 1), ("r1", 0)),
            (("r0", 1), ("r1", 1)),
        ]
