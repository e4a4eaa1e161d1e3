"""Acceptance gate: one test_criterion_<n>_* test per criterion.

The conftest terminal-summary hook turns these into ACCEPTANCE lines at
the end of the run.  Everything here re-checks end results against the
golden constants; the per-module files cover the internals.
"""

import json
import random

from matchdecomp import (
    GenParams,
    check_copy_stable,
    check_path_independence,
    check_consistency,
    check_substitutability,
    check_count_invariance,
    copies_propose,
    decompose,
    enumerate_classical_stable,
    enumerate_copy_stable,
    enumerate_stable,
    random_market,
    verify_correspondence,
    verify_decomposition,
    workers_propose,
)
from matchdecomp.cli import main

from conftest import (
    GOLDEN_COPY_STABLE,
    GOLDEN_MERGE_IMAGES,
    GOLDEN_ORDERS_F1,
    GOLDEN_ORDERS_F2,
    GOLDEN_STABLE,
    LAM_FIRM,
    LAM_WORKER,
    REFERENCE_PATH,
    copy_sets,
    family_association,
    firm_sets,
    full_scan_classical_stable,
    full_scan_copy_stable,
    full_scan_stable,
    m11,
)


def test_criterion_1_decomposition_of_the_reference_market(capsys, tmp_path):
    assert main(["decompose", REFERENCE_PATH]) == 0
    report = json.loads(capsys.readouterr().out)
    by_id = {f["id"]: f for f in report["firms"]}
    assert by_id["f1"]["indexing"] == "explicit"
    assert by_id["f2"]["indexing"] == "explicit"
    assert by_id["f1"]["orders"] == GOLDEN_ORDERS_F1
    assert by_id["f2"]["orders"] == GOLDEN_ORDERS_F2

    # without the pinned numbering the same twelve orders come back,
    # deterministically in lexicographic order
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    del data["copy_indexing"]
    path = tmp_path / "unpinned.json"
    path.write_text(json.dumps(data))
    assert main(["decompose", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    by_id = {f["id"]: f for f in report["firms"]}
    assert by_id["f1"]["indexing"] == "lexicographic"
    assert sorted(by_id["f1"]["orders"]) == sorted(GOLDEN_ORDERS_F1)
    assert sorted(by_id["f2"]["orders"]) == sorted(GOLDEN_ORDERS_F2)


def test_criterion_2_stable_set_of_the_reference_market(reference_market):
    found = [firm_sets(reference_market, m) for m in enumerate_stable(reference_market)]
    assert found == GOLDEN_STABLE


def test_criterion_3_copy_stable_set_of_the_associated_market(reference_assoc):
    found = [
        copy_sets(reference_assoc, m) for m in enumerate_copy_stable(reference_assoc)
    ]
    assert sorted(found, key=sorted) == sorted(GOLDEN_COPY_STABLE, key=sorted)
    for assignment in GOLDEN_COPY_STABLE:
        assert check_copy_stable(reference_assoc, m11(reference_assoc, assignment)).stable


def test_criterion_4_classical_set_is_a_single_matching(reference_assoc):
    found = [
        copy_sets(reference_assoc, m)
        for m in enumerate_classical_stable(reference_assoc)
    ]
    assert found == [LAM_WORKER]


def test_criterion_5_deferred_acceptance_runs(reference_assoc):
    workers = reference_assoc.source.workers
    labels = reference_assoc.copy_labels

    final, trace = copies_propose(reference_assoc)
    assert copy_sets(reference_assoc, final) == LAM_FIRM
    assert len(trace.stages) == 2
    first = trace.stages[0]
    assert {
        workers[w]: [labels[c] for c in cs] for w, cs in first.offers.items()
    } == {
        "w1": ["f1.1", "f1.2", "f1.3"],
        "w2": ["f1.4", "f1.5", "f1.6"],
        "w3": ["f2.1", "f2.2", "f2.3"],
        "w4": ["f2.4", "f2.5", "f2.6"],
    }
    assert {
        workers[w]: [labels[c] for c in cs] for w, cs in first.rejections.items()
    } == {
        "w1": ["f1.2", "f1.3"],
        "w2": ["f1.5", "f1.6"],
        "w3": ["f2.2", "f2.3"],
        "w4": ["f2.5", "f2.6"],
    }
    assert trace.stages[1].offers == {}

    final, trace = workers_propose(reference_assoc)
    assert copy_sets(reference_assoc, final) == LAM_WORKER
    assert len(trace.stages) == 2
    first = trace.stages[0]
    assert {
        labels[c]: [workers[w] for w in ws] for c, ws in first.offers.items()
    } == {"f1.1": ["w3", "w4"], "f2.1": ["w1", "w2"]}
    assert {
        labels[c]: [workers[w] for w in ws] for c, ws in first.rejections.items()
    } == {"f1.1": ["w4"], "f2.1": ["w1"]}


def test_criterion_6_merge_split_bijection(reference_assoc, reference_market):
    report = verify_correspondence(reference_assoc)
    assert report.passed, report.problems
    assert len(report.stable) == 4
    assert len(report.copy_stable) == 4

    pairing = {}
    for lam, image in zip(report.copy_stable, report.merged):
        key = tuple(sorted(copy_sets(reference_assoc, lam).items()))
        pairing[key] = firm_sets(reference_market, image)
    for assignment, image in zip(GOLDEN_COPY_STABLE, GOLDEN_MERGE_IMAGES):
        assert pairing[tuple(sorted(assignment.items()))] == image


def test_criterion_7_proposing_side_is_not_unanimously_best(reference_assoc):
    # classical intuition says the proposing side can do no better in any
    # stable outcome; with firm copies it fails: copy f1.2 sits empty when
    # the copies propose yet holds an acceptable worker when workers do
    copies_final, _ = copies_propose(reference_assoc)
    workers_final, _ = workers_propose(reference_assoc)
    c = reference_assoc.copy_index["f1.2"]
    w = reference_assoc.source.worker_index["w4"]
    assert copies_final.by_copy[c] is None
    assert workers_final.by_copy[c] == w
    assert reference_assoc.copy_rank[c][w] < reference_assoc.copy_empty_rank[c]


def _market_obeys_every_guarantee(market) -> None:
    for cf in market.choice_functions:
        pi = check_path_independence(cf)
        subst = check_substitutability(cf)
        cons = check_consistency(cf)
        assert pi.passed == (subst.passed and cons.passed)
        assert pi.passed  # generated functions are unions of linear orders
        orders = decompose(cf)
        assert verify_decomposition(cf, tuple(orders)).passed

    assoc = family_association(market)
    for solver in (copies_propose, workers_propose):
        final, trace = solver(assoc)
        assert check_copy_stable(assoc, final).stable
        assert trace.stages[-1].rejections == {}

    report = verify_correspondence(assoc)
    assert report.passed, report.problems

    invariance = check_count_invariance(
        assoc,
        stable=list(report.stable),
        copy_stable=list(report.copy_stable),
    )
    assert invariance.verdict != "fail"
    expected = "pass" if all(invariance.lad_by_firm) else "premise-unmet"
    assert invariance.verdict == expected


def test_criterion_8_random_market_property_suite():
    shapes = random.Random(0xACCE55)
    failures = []
    for seed in range(200):
        params = GenParams(
            workers=shapes.randint(2, 5),
            firms=shapes.randint(1, 3),
            max_orders=shapes.randint(1, 4),
            density=shapes.choice((0.6, 0.8, 1.0)),
            seed=seed,
        )
        try:
            _market_obeys_every_guarantee(random_market(params))
        except AssertionError as exc:
            failures.append(f"seed {seed} {params}: {exc}")
    assert not failures, "\n".join(failures)


def test_criterion_9_pruned_and_unpruned_enumeration_agree(
    marriage_market, lad_violating_market, three_worker_market
):
    associations = [
        family_association(m)
        for m in (marriage_market, lad_violating_market, three_worker_market)
    ]
    for seed in range(6):
        market = random_market(GenParams(workers=3, firms=2, max_orders=2, seed=seed))
        associations.append(family_association(market))
    for assoc in associations:
        assert enumerate_copy_stable(assoc) == full_scan_copy_stable(assoc)
        assert enumerate_classical_stable(assoc) == full_scan_classical_stable(assoc)
        assert enumerate_stable(assoc.source) == full_scan_stable(assoc.source)
