"""Shared fixtures: the packaged reference market, small crafted markets,
the golden solution sets used across the suite, and the full-scan oracles
of the stable-set enumerators.

The acceptance summary hook at the bottom prints one PASS/FAIL line per
acceptance criterion after the run, regardless of output capturing.
"""

from __future__ import annotations

from importlib.resources import files
from itertools import product

import pytest

from matchdecomp import (
    ChoiceFunction,
    LinearOrder,
    ManyToOneMarket,
    ManyToOneMatching,
    OneToOneMatching,
    build_associated_market,
    check_classical_stable,
    check_copy_stable,
    check_stable,
    decompose_market,
    load_market,
)

REFERENCE_PATH = str(files("matchdecomp").joinpath("data/reference_market.json"))

# ---------------------------------------------------------------------------
# golden solution sets of the reference market, as label dictionaries
# ---------------------------------------------------------------------------

# the four stable matchings of the many-to-one form
MU_FIRM = {"f1": ["w1", "w2"], "f2": ["w3", "w4"]}
MU_MID_A = {"f1": ["w1", "w3"], "f2": ["w2", "w4"]}
MU_MID_B = {"f1": ["w2", "w4"], "f2": ["w1", "w3"]}
MU_WORKER = {"f1": ["w3", "w4"], "f2": ["w1", "w2"]}
GOLDEN_STABLE = [MU_FIRM, MU_MID_A, MU_MID_B, MU_WORKER]

# the four copy-stable matchings of the associated form (explicit indexing)
LAM_FIRM = {"f1.1": "w1", "f1.4": "w2", "f2.1": "w3", "f2.4": "w4"}
LAM_MID_A = {"f1.1": "w2", "f1.3": "w4", "f2.1": "w3", "f2.6": "w1"}
LAM_MID_B = {"f1.1": "w1", "f1.6": "w3", "f2.1": "w4", "f2.3": "w2"}
LAM_WORKER = {"f1.1": "w3", "f1.2": "w4", "f2.1": "w2", "f2.2": "w1"}
GOLDEN_COPY_STABLE = [LAM_FIRM, LAM_MID_A, LAM_MID_B, LAM_WORKER]

# merge images aligned with GOLDEN_COPY_STABLE; the two middle ones cross
GOLDEN_MERGE_IMAGES = [MU_FIRM, MU_MID_B, MU_MID_A, MU_WORKER]

# the twelve orders of the reference decomposition, explicit indexing
GOLDEN_ORDERS_F1 = [
    ["w1", "w2", "w3", "w4"],
    ["w1", "w2", "w4", "w3"],
    ["w1", "w4", "w2", "w3"],
    ["w2", "w1", "w3", "w4"],
    ["w2", "w1", "w4", "w3"],
    ["w2", "w3", "w1", "w4"],
]
GOLDEN_ORDERS_F2 = [
    ["w3", "w4", "w2", "w1"],
    ["w3", "w4", "w1", "w2"],
    ["w3", "w2", "w4", "w1"],
    ["w4", "w3", "w2", "w1"],
    ["w4", "w3", "w1", "w2"],
    ["w4", "w1", "w3", "w2"],
]

# ---------------------------------------------------------------------------
# crafted choice tables separating the axioms (verified by hand)
# ---------------------------------------------------------------------------

# substitutability fails, consistency holds (3 workers)
TABLE_SUBST_FAIL = (0, 1, 2, 3, 4, 4, 2, 3)
# consistency fails, substitutability holds vacuously (2 workers)
TABLE_CONS_FAIL = (0, 1, 0, 0)
# both fail (2 workers)
TABLE_BOTH_FAIL = (0, 0, 2, 1)


def m1(market, assignment: dict) -> ManyToOneMatching:
    return ManyToOneMatching.from_firm_sets(market, assignment)


def m11(assoc, assignment: dict) -> OneToOneMatching:
    return OneToOneMatching.from_copy_assignments(assoc, assignment)


def firm_sets(market, matching: ManyToOneMatching) -> dict:
    out = matching.render(market)["by_firm"]
    return {f: sorted(ws) for f, ws in out.items() if ws}


def copy_sets(assoc, matching: OneToOneMatching) -> dict:
    out = matching.render(assoc)["by_copy"]
    return {c: w for c, w in out.items() if w is not None}


def family_association(market: ManyToOneMarket):
    """Associated market over each firm's own defining order family.

    Only valid for markets whose choice functions were built from orders
    (the generator always does this); the family is an exact decomposition
    by construction, which ``build_associated_market`` re-verifies.
    """
    per_firm = tuple(cf.orders for cf in market.choice_functions)
    return build_associated_market(market, per_firm)


def with_first_firm(market: ManyToOneMarket, cf: ChoiceFunction) -> ManyToOneMarket:
    """The same market with its first firm's choice function replaced."""
    return ManyToOneMarket(
        market.workers,
        market.firms,
        (cf, *market.choice_functions[1:]),
        market.worker_prefs,
    )


# ---------------------------------------------------------------------------
# full-scan oracles: every candidate assignment, checked one by one
# ---------------------------------------------------------------------------


def full_scan_stable(market: ManyToOneMarket) -> list[ManyToOneMatching]:
    """Every stable matching, from all (n + 1)**k worker-to-firm assignments.

    The scan ``enumerate_stable`` replaced by its pruned search, kept as
    its oracle.
    """
    n = len(market.firms)
    # product yields the assignments in key order, unmatched first
    candidates = (
        ManyToOneMatching(assignment, n)
        for assignment in product((None, *range(n)), repeat=len(market.workers))
    )
    return [m for m in candidates if check_stable(market, m).stable]


def _full_scan_one_to_one(assoc, check) -> list[OneToOneMatching]:
    n = len(assoc.copies)
    found = []
    # product yields the assignments in key order, unmatched first
    for assignment in product((None, *range(n)), repeat=len(assoc.source.workers)):
        placed = [c for c in assignment if c is not None]
        if len(set(placed)) == len(placed):
            matching = OneToOneMatching(assignment, n)
            if check(assoc, matching).stable:
                found.append(matching)
    return found


def full_scan_copy_stable(assoc) -> list[OneToOneMatching]:
    """Every copy-stable matching, from all injective worker-to-copy assignments.

    The scan ``enumerate_copy_stable`` replaced by its pruned search, kept
    as its oracle.
    """
    return _full_scan_one_to_one(assoc, check_copy_stable)


def full_scan_classical_stable(assoc) -> list[OneToOneMatching]:
    """Every classically stable matching, by the same scan as
    :func:`full_scan_copy_stable`."""
    return _full_scan_one_to_one(assoc, check_classical_stable)


@pytest.fixture(scope="session")
def reference_doc():
    return load_market(REFERENCE_PATH)


@pytest.fixture(scope="session")
def reference_market(reference_doc):
    return reference_doc.market


@pytest.fixture(scope="session")
def reference_assoc(reference_doc):
    """Associated market with the fixture's explicit copy indexing."""
    market = reference_doc.market
    decomposition = decompose_market(market, reference_doc.copy_indexing)
    return build_associated_market(market, decomposition)


@pytest.fixture(scope="session")
def reference_assoc_lex(reference_market):
    """Associated market with default lexicographic copy indexing."""
    return build_associated_market(reference_market)


@pytest.fixture(scope="session")
def marriage_market():
    """2 workers, 2 single-order firms, two stable matchings."""
    fx = ChoiceFunction.from_orders((LinearOrder((0, 1)),), 2)
    fy = ChoiceFunction.from_orders((LinearOrder((1, 0)),), 2)
    return ManyToOneMarket(
        ("a", "b"), ("X", "Y"), (fx, fy), ((1, 0), (0, 1))
    )


@pytest.fixture(scope="session")
def lad_violating_market():
    """One firm whose two orders share a top worker: demand can shrink."""
    cf = ChoiceFunction.from_orders((LinearOrder((2, 0)), LinearOrder((2, 1))), 3)
    return ManyToOneMarket(
        ("a", "b", "c"), ("Z",), (cf,), ((0,), (0,), (0,))
    )


@pytest.fixture(scope="session")
def three_worker_market():
    """3 workers, 2 firms, one firm with a genuinely multi-order choice."""
    fa = ChoiceFunction.from_orders(
        (LinearOrder((0, 1, 2)), LinearOrder((1, 0, 2))), 3
    )
    fb = ChoiceFunction.from_orders((LinearOrder((2, 1, 0)),), 3)
    return ManyToOneMarket(
        ("a", "b", "c"),
        ("A", "B"),
        (fa, fb),
        ((1, 0), (0, 1), (0, 1)),
    )


@pytest.fixture(scope="session")
def sparse_market():
    """4 workers and 3 firms; each worker finds one firm acceptable.

    The full scan checks (3 + 1)**4 = 256 assignments, where the search
    offers each worker only its one acceptable firm.
    """
    cf = ChoiceFunction.from_orders((LinearOrder((0, 1, 2, 3)),), 4)
    return ManyToOneMarket(
        ("a", "b", "c", "d"), ("X", "Y", "Z"), (cf, cf, cf), ((0,), (1,), (2,), (0,))
    )


# ---------------------------------------------------------------------------
# acceptance summary lines
# ---------------------------------------------------------------------------

ACCEPTANCE_DESCRIPTIONS = {
    1: "reference decomposition: 12 orders, explicit indexing verbatim",
    2: "reference stable set: exactly the 4 known matchings",
    3: "reference copy-stable set: exactly the 4 known matchings",
    4: "reference classical-stable set: exactly 1 matching",
    5: "deferred-acceptance traces and finals match the references",
    6: "merge/split correspondence: 4-to-4 bijection with pinned pairs",
    7: "proposing-side non-optimality diagnostic holds",
    8: "200-seed random-market property suite: zero failures",
    9: "the enumerators equal the full-scan test oracles on small fixtures",
}


def pytest_terminal_summary(terminalreporter):
    results: dict[int, str] = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            number = int(nodeid.split("test_criterion_")[1].split("_")[0])
            verdict = "PASS" if outcome == "passed" else "FAIL"
            # a criterion is FAIL if any of its tests failed
            if results.get(number) != "FAIL":
                results[number] = verdict
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_DESCRIPTIONS):
        verdict = results.get(number, "FAIL (not run)")
        description = ACCEPTANCE_DESCRIPTIONS[number]
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict} - {description}")
