"""Pins on both static oracles' outcome sets.

``LitmusTest.outcomes`` and ``axiomatic_outcomes`` are each other's
only reference in the tree, so a rewrite of either search has nothing
left to diff against.  The family digests below were generated at
commit ``9c3c520`` (the dict-and-recursion search) in a scratch clone,
before the integer search replaced it.  The edge-family and witness
digests and ``data/axiomatic_verbose.txt`` were generated at commit
``3e69653``, before both oracles moved to packed integers; there the
axiomatic checker also met every family digest.
"""

import hashlib
import io
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.axiomatic import (
    acyclic,
    axiomatic_outcomes,
    build_events,
    candidate_executions,
)
from repro.analysis.axiomatic.cli import main as axiomatic_main
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
ALL_SIX = ("SC", "PC", "WC", "RC", "RCsc", "DRF0")

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


def edge_family():
    """Hand-built tests at the corners of a packed state: values that
    are zero, negative or wider than any generated one, non-zero
    initial memory, same-valued writes, RMW chains, fences, and a test
    at ``LitmusTest.MAX_ACCESSES``."""
    big = 2 ** 40
    return [
        LitmusTest("values", [
            [write("x", 42), write("y", -1)],
            [read("y", "r0"), read("x", "r1")],
            [write("x", big), write("y", 0)],
        ]),
        LitmusTest("initial", [
            [write("x", 0), read("y", "r0")],
            [write("y", 7), read("x", "r1")],
        ], initial={"x": 5, "y": -3}),
        LitmusTest("same-valued", [
            [write("x", 1), write("y", 1)],
            [write("y", 1), write("x", 1)],
            [read("x", "r0"), read("y", "r1"), read("x", "r2")],
        ]),
        LitmusTest("rmw-chain", [
            [rmw("x", "r0", 1), rmw("x", "r1", 2, release=True)],
            [rmw("x", "r2", 3, acquire=True), read("x", "r3")],
            [write("x", big)],
        ], initial={"x": -1}),
        LitmusTest("fences", [
            [write("x", 1), fence(), read("y", "r0")],
            [write("y", 1), fence(), fence(), read("x", "r1")],
            [read("x", "r2", acquire=True), fence(), write("y", 2)],
        ]),
        LitmusTest("sync", [
            [write("x", -1, release=True), read("y", "r0", acquire=True)],
            [write("y", big, release=True), read("x", "r1", acquire=True)],
            [write("data", 42), write("flag", 0, release=True)],
            [read("flag", "r2"), read("data", "r3")],
        ], initial={"flag": -7}),
        LitmusTest("twelve", [
            [write("x", 42), fence(), read("y", "r0")],
            [write("y", -1), read("x", "r1"), write("data", 0)],
            [rmw("flag", "r2", big, acquire=True), read("data", "r3"),
             write("x", 42, release=True)],
            [read("flag", "r4"), fence(), read("x", "r5")],
        ], initial={"data": 9, "flag": 1000}),
    ]


def _enumerator(test, model):
    return test.outcomes(model)


ORACLES = {"enumerator": _enumerator, "axiomatic": axiomatic_outcomes}

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

#: model -> digest of the edge family (both oracles)
EDGE_PINS = {
    "SC": "bc32e9cb47df12a5",
    "PC": "89184969ff254119",
    "WC": "06490285b2865ada",
    "RC": "6cc7f32c17588cdc",
    "RCsc": "06490285b2865ada",
    "DRF0": "06490285b2865ada",
}

#: sha256[:16] over the standard suite's ``candidate_executions``: one
#: ``name`` line per test, then one line per candidate in enumeration
#: order: its ``describe()`` text, ``com`` and ``co``
WITNESS_PIN = "281552ac31b1ee59"


def family_digest(tests, model_name, oracle=_enumerator):
    model = get_model(model_name)
    text = "\n".join(f"{test.name} {sorted(oracle(test, model))!r}"
                     for test in tests)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,model", list(OUTCOME_PINS),
                         ids=[f"{f}-{m}" for f, m in OUTCOME_PINS])
def test_family_outcome_sets(family, model):
    assert family_digest(FAMILIES[family](), model) == OUTCOME_PINS[
        (family, model)]


def test_every_family_is_pinned_under_every_model():
    assert set(OUTCOME_PINS) == {(f, m) for f in FAMILIES for m in MODELS}


@pytest.mark.parametrize("family,model", list(OUTCOME_PINS),
                         ids=[f"{f}-{m}" for f, m in OUTCOME_PINS])
def test_family_axiomatic_outcome_sets(family, model):
    assert family_digest(FAMILIES[family](), model, axiomatic_outcomes) == \
        OUTCOME_PINS[(family, model)]


@pytest.mark.parametrize("oracle,model", list(product(ORACLES, ALL_SIX)),
                         ids=[f"{o}-{m}" for o, m in product(ORACLES, ALL_SIX)])
def test_edge_family_outcome_sets(oracle, model):
    assert family_digest(edge_family(), model, ORACLES[oracle]) == \
        EDGE_PINS[model]


def test_edge_family_is_pinned_under_all_six_models():
    assert set(EDGE_PINS) == set(ALL_SIX)
    assert max(sum(map(len, t.threads)) for t in edge_family()) == \
        LitmusTest.MAX_ACCESSES


def test_standard_suite_witnesses():
    lines = []
    for build in STANDARD_TESTS.values():
        test = build()
        events = build_events(test)
        lines.append(test.name)
        lines.extend(f"{c.describe(events)} {c.com!r} {c.co!r}"
                     for c in candidate_executions(test))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == WITNESS_PIN


def test_verbose_cli_report_is_unchanged():
    """The worked witnesses ``--verbose`` prints, which CI's run of the
    same command without ``--verbose`` never shows."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert axiomatic_main(["--all-models", "--verbose"]) == 0
    expected = Path(__file__).parent / "data" / "axiomatic_verbose.txt"
    assert out.getvalue() == expected.read_text()


def _closure_acyclic(succ):
    """Reference: a relation is acyclic iff no node reaches itself in
    its transitive closure (Warshall over successor bitmasks)."""
    reach = list(succ)
    for k in range(len(reach)):
        for a in range(len(reach)):
            if reach[a] >> k & 1:
                reach[a] |= reach[k]
    return not any(reach[a] >> a & 1 for a in range(len(reach)))


@st.composite
def _graphs(draw):
    """Successor bitmasks on 1-12 nodes: each row the AND of ``k``
    random rows (edge density 2**-k), and with ``dag`` only the edges
    a -> b with a < b under a random relabelling, so both answers come
    up often."""
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=4))
    dag = draw(st.booleans())
    label = draw(st.permutations(range(n)))
    rows = [0] * n
    for a in range(n):
        row = (1 << n) - 1
        for _ in range(k):
            row &= draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        if dag:
            row &= ~((2 << a) - 1)
        for b in range(n):
            if row >> b & 1:
                rows[label[a]] |= 1 << label[b]
    return rows


@given(succ=_graphs())
@settings(max_examples=300, deadline=None)
def test_acyclic_agrees_with_transitive_closure(succ):
    assert acyclic(succ) == _closure_acyclic(succ)


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
