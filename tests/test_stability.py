"""Stability checkers and exhaustive enumeration, on both market forms."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdecomp import (
    Caps,
    CapExceededError,
    ChoiceFunction,
    DeferredAcceptanceError,
    GenParams,
    LinearOrder,
    ManyToOneMarket,
    ManyToOneMatching,
    MarketValidationError,
    OneToOneMatching,
    StabilityReport,
    build_associated_market,
    canonicalize,
    check_classical_stable,
    check_copy_stable,
    check_stable,
    check_substitutability,
    copies_propose,
    decompose_market,
    enumerate_classical_stable,
    enumerate_copy_stable,
    enumerate_stable,
    merge_matching,
    random_market,
    split_matching,
    trace_json_lines,
    workers_propose,
)
from matchdecomp import stability
from matchdecomp.stability import COPY_ENVY, FIRM_BLOCK, PAIR_BLOCK, WORKER_BLOCK

from conftest import (
    GOLDEN_COPY_STABLE,
    GOLDEN_STABLE,
    MU_FIRM,
    LAM_FIRM,
    LAM_WORKER,
    copy_sets,
    family_association,
    firm_sets,
    full_scan_classical_stable,
    full_scan_copy_stable,
    full_scan_stable,
    m1,
    m11,
    with_first_firm,
)


class TestManyToOne:
    def test_reference_solution_set(self, reference_market):
        found = [firm_sets(reference_market, m) for m in enumerate_stable(reference_market)]
        assert found == GOLDEN_STABLE

    def test_all_golden_matchings_check_out(self, reference_market):
        for assignment in GOLDEN_STABLE:
            assert check_stable(reference_market, m1(reference_market, assignment)).stable

    def test_unacceptable_firm_is_a_worker_block(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        market = ManyToOneMarket(("w",), ("A",), (cf,), ((),))
        report = check_stable(market, ManyToOneMatching((0,), 1))
        assert report.case == "worker-block"
        assert report.witness == {"worker": 0}

    def test_unchosen_set_is_a_firm_block(self, reference_market):
        # f1 would keep only w1 out of {w1, w4}
        report = check_stable(reference_market, m1(reference_market, {"f1": ["w1", "w4"]}))
        assert report.case == "firm-block"
        assert report.witness == {"firm": 0}

    def test_mutual_improvement_is_a_pair_block(self, reference_market):
        # everyone unmatched: pairs scan by (worker, firm) index, so the
        # first block found is w1 with f1 even though w1 likes f2 more
        report = check_stable(reference_market, m1(reference_market, {}))
        assert report.case == "pair-block"
        assert report.witness == {"worker": 0, "firm": 0}

    def test_marriage_market_has_both_classics(self, marriage_market):
        found = [firm_sets(marriage_market, m) for m in enumerate_stable(marriage_market)]
        assert found == [{"X": ["a"], "Y": ["b"]}, {"X": ["b"], "Y": ["a"]}]

    def test_shape_mismatch_rejected(self, reference_market):
        for matching, message in (
            (ManyToOneMatching((None,), 2), "matching covers a different worker count"),
            (ManyToOneMatching((None,) * 4, 3), "matching covers a different firm count"),
        ):
            with pytest.raises(MarketValidationError) as caught:
                check_stable(reference_market, matching)
            assert str(caught.value) == message

    def test_report_truth_is_its_verdict(self, reference_market):
        assert bool(check_stable(reference_market, m1(reference_market, MU_FIRM))) is True
        report = check_stable(reference_market, m1(reference_market, {}))
        assert report.case == PAIR_BLOCK
        assert bool(report) is False

    def test_candidate_cap(self, reference_market):
        # 11 search nodes, each charging its worker's two firms and staying
        # unmatched, cut or not: the cap stops the search once 33 placements
        # are passed
        caps = Caps(max_workers=16, max_orders=5040, max_candidates=33)
        assert enumerate_stable(reference_market, caps) == enumerate_stable(
            reference_market
        )
        with pytest.raises(CapExceededError, match="^33 placements tried exceed"):
            enumerate_stable(reference_market, Caps(max_candidates=32))
        with pytest.raises(CapExceededError, match="^12 placements tried exceed"):
            enumerate_stable(reference_market, Caps(max_candidates=10))

    def test_a_thousand_workers_deep_search_finds_the_one_matching(self):
        # 1,048 of the 1,200 workers list a firm: the search places one per
        # level, on its own stack rather than the interpreter's
        market = random_market(
            GenParams(workers=1200, firms=3, max_orders=1, density=0.5, seed=2)
        )
        assert sum(1 for prefs in market.worker_prefs if prefs) == 1048
        found = enumerate_stable(market)
        assert len(found) == 1
        assert check_stable(market, found[0]).stable


class TestCopyStable:
    def test_reference_solution_set(self, reference_assoc):
        found = [copy_sets(reference_assoc, m) for m in enumerate_copy_stable(reference_assoc)]
        assert sorted(found, key=sorted) == sorted(GOLDEN_COPY_STABLE, key=sorted)

    def test_all_golden_matchings_check_out(self, reference_assoc):
        for assignment in GOLDEN_COPY_STABLE:
            assert check_copy_stable(reference_assoc, m11(reference_assoc, assignment)).stable

    def test_parking_on_a_higher_copy_is_blocked(self, reference_assoc):
        # same hires as the known matching, but w4 sits on f2.5 while f2.4
        # is free; the pair (f2.4, w4) blocks even though f2.5 holds w4
        shifted = dict(LAM_FIRM)
        del shifted["f2.4"]
        shifted["f2.5"] = "w4"
        report = check_copy_stable(reference_assoc, m11(reference_assoc, shifted))
        assert report.case == "pair-block"
        assert report.witness == {
            "copy": reference_assoc.copy_index["f2.4"],
            "worker": reference_assoc.source.worker_index["w4"],
        }

    def test_unlisted_copy_is_a_worker_block(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        market = ManyToOneMarket(("w",), ("A",), (cf,), ((),))
        assoc = family_association(market)
        report = check_copy_stable(assoc, OneToOneMatching((0,), 1))
        assert report.case == "worker-block"

    def test_unranked_worker_is_a_firm_block(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), (0,)))
        assoc = family_association(market)
        report = check_copy_stable(assoc, OneToOneMatching((None, 0), 1))
        assert report.case == "firm-block"
        assert report.witness == {"copy": 0}

    def test_sibling_with_a_better_worker_is_envied(self):
        # both copies rank v over w; the second copy holding v is envied
        orders = (LinearOrder((0, 1)), LinearOrder((0,)))
        cf = ChoiceFunction.from_orders(orders, 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), (0,)))
        assoc = family_association(market)
        report = check_copy_stable(assoc, OneToOneMatching((1, 0), 2))
        assert report.case == "copy-envy"
        assert report.witness == {"copy": 0, "envied_copy": 1}

    def test_empty_matching_blocks_on_the_first_mutual_pair(self, reference_assoc):
        report = check_copy_stable(
            reference_assoc, OneToOneMatching((None,) * 4, 12)
        )
        assert report.case == "pair-block"
        assert report.witness == {"copy": 0, "worker": 0}

    @pytest.mark.parametrize("check", [check_copy_stable, check_classical_stable])
    @pytest.mark.parametrize(
        "workers, copies, message",
        [
            (3, 12, "matching covers a different worker count"),
            (4, 11, "matching covers a different copy count"),
        ],
        ids=["workers", "copies"],
    )
    def test_size_refusals_read_exactly(self, reference_assoc, check, workers, copies, message):
        with pytest.raises(MarketValidationError) as caught:
            check(reference_assoc, OneToOneMatching((None,) * workers, copies))
        assert str(caught.value) == message

    def test_classical_set_is_a_single_matching(self, reference_assoc):
        found = [copy_sets(reference_assoc, m) for m in enumerate_classical_stable(reference_assoc)]
        assert found == [LAM_WORKER]

    def test_classical_rejects_the_copies_favourite(self, reference_assoc):
        # the copies-optimal outcome leaves f1.2 free although w2 (sitting
        # on f1.4) would rather move up within f1: a textbook blocking
        # pair, which copy-stability deliberately tolerates
        report = check_classical_stable(reference_assoc, m11(reference_assoc, LAM_FIRM))
        assert report.case == "pair-block"
        assert report.witness == {
            "copy": reference_assoc.copy_index["f1.2"],
            "worker": reference_assoc.source.worker_index["w2"],
        }
        assert check_copy_stable(reference_assoc, m11(reference_assoc, LAM_FIRM)).stable

    def test_copy_stable_and_classical_intersect_in_one(self, reference_assoc):
        copy_stable = {m.key for m in enumerate_copy_stable(reference_assoc)}
        classical = {m.key for m in enumerate_classical_stable(reference_assoc)}
        overlap = copy_stable & classical
        assert len(overlap) == 1
        assert overlap == classical


def sibling_scan_copy_stable(assoc, matching) -> StabilityReport:
    """Copy stability by scanning every sibling for each case and pair.

    The O(copies·k·siblings) checker the pick-based one replaced, kept as
    its oracle: same cases, same scan order, same witnesses.
    """
    wrank = assoc.worker_rank
    wempty = assoc.worker_empty_rank
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    by_worker = matching.by_worker
    by_copy = matching.by_copy

    for w, c in enumerate(by_worker):
        if c is not None and wrank[w][c] > wempty[w]:
            return StabilityReport(False, WORKER_BLOCK, {"worker": w})
    for c, w in enumerate(by_copy):
        if w is not None and crank[c][w] > cempty[c]:
            return StabilityReport(False, FIRM_BLOCK, {"copy": c})
    groups = assoc.copies_by_firm
    firm_of = assoc.firm_of_copy
    for c, w in enumerate(by_copy):
        if w is None:
            continue
        row = crank[c]
        for sibling in groups[firm_of[c]]:
            held = by_copy[sibling]
            if sibling != c and held is not None and row[held] < row[w]:
                return StabilityReport(
                    False, COPY_ENVY, {"copy": c, "envied_copy": sibling}
                )
    for c in range(len(assoc.copies)):
        row = crank[c]
        for w in range(len(by_worker)):
            if row[w] >= cempty[c]:
                continue
            current = by_worker[w]
            current_rank = wempty[w] if current is None else wrank[w][current]
            if wrank[w][c] >= current_rank:
                continue
            if not any(
                by_copy[sibling] not in (None, w) and row[by_copy[sibling]] < row[w]
                for sibling in groups[firm_of[c]]
            ):
                return StabilityReport(False, PAIR_BLOCK, {"copy": c, "worker": w})
    return StabilityReport(True)


def textbook_classical_stable(assoc, matching) -> StabilityReport:
    """Textbook one-to-one stability by a direct scan of every pair.

    The checker classical stability had before it became copy stability
    with singleton shield groups, kept as its oracle: same cases, same scan
    order, same witnesses.
    """
    wrank = assoc.worker_rank
    wempty = assoc.worker_empty_rank
    crank = assoc.copy_rank
    cempty = assoc.copy_empty_rank
    by_worker = matching.by_worker
    by_copy = matching.by_copy

    for w, c in enumerate(by_worker):
        if c is not None and wrank[w][c] > wempty[w]:
            return StabilityReport(False, WORKER_BLOCK, {"worker": w})
    for c, w in enumerate(by_copy):
        if w is not None and crank[c][w] > cempty[c]:
            return StabilityReport(False, FIRM_BLOCK, {"copy": c})
    for c in range(len(assoc.copies)):
        row = crank[c]
        held = by_copy[c]
        held_rank = cempty[c] if held is None else row[held]
        for w in range(len(by_worker)):
            if row[w] >= held_rank:
                continue
            current = by_worker[w]
            current_rank = wempty[w] if current is None else wrank[w][current]
            if wrank[w][c] < current_rank:
                return StabilityReport(False, PAIR_BLOCK, {"copy": c, "worker": w})
    return StabilityReport(True)


def random_matching(assoc, rng, rational: bool) -> OneToOneMatching:
    """A random injective matching; ``rational`` keeps both sides acceptable."""
    k = len(assoc.source.workers)
    crank, cempty = assoc.copy_rank, assoc.copy_empty_rank
    by_worker = [None] * k
    used = set()
    for w in rng.sample(range(k), k):
        if rational:
            options = [c for c in assoc.worker_prefs[w] if crank[c][w] < cempty[c]]
        else:
            options = range(len(assoc.copies))
        options = [c for c in options if c not in used]
        if options and rng.random() < 0.85:
            by_worker[w] = rng.choice(options)
            used.add(by_worker[w])
    return OneToOneMatching(tuple(by_worker), len(assoc.copies))


def sibling_perturbations(assoc, matching):
    """Matchings one sibling step away from ``matching``.

    Swapping two siblings' workers, each ranked by the other copy, makes
    the copy that held its pick envious.  Moving a worker to an empty
    higher-numbered sibling that ranks it leaves the worker preferring its
    old seat while its own firm holds it.
    """
    crank, cempty = assoc.copy_rank, assoc.copy_empty_rank
    by_worker, by_copy = matching.by_worker, matching.by_copy
    n_copies = len(assoc.copies)
    for w, c in enumerate(by_worker):
        if c is None:
            continue
        for s in assoc.copies_by_firm[assoc.firm_of_copy[c]]:
            if s == c or crank[s][w] >= cempty[s]:
                continue
            other = by_copy[s]
            moved = list(by_worker)
            if other is None:
                if s < c:
                    continue
            elif other < w and crank[c][other] < cempty[c]:
                moved[other] = c
            else:
                continue
            moved[w] = s
            yield OneToOneMatching(tuple(moved), n_copies)


def unit_demand_market(rng, k: int, complete: bool) -> ManyToOneMarket:
    """k workers and k firms, each firm choosing by one random order."""

    def some(n):
        return tuple(rng.sample(range(n), n if complete else rng.randint(1, n)))

    firms = tuple(
        ChoiceFunction.from_orders((LinearOrder(some(k)),), k) for _ in range(k)
    )
    return ManyToOneMarket(
        tuple(f"w{i}" for i in range(k)),
        tuple(f"f{i}" for i in range(k)),
        firms,
        tuple(some(k) for _ in range(k)),
    )


def block_market(m: int) -> ManyToOneMarket:
    """m disjoint blocks, each with two stable matchings, so 2**m in all.

    In block b, workers 2b and 2b+1 each prefer firm 2b and firm 2b+1
    respectively, and each firm prefers the other block worker.
    """
    prefs, firms = [], []
    for b in range(m):
        first, second = 2 * b, 2 * b + 1
        prefs += [(first, second), (second, first)]
        firms += [(second, first), (first, second)]
    k = 2 * m
    return ManyToOneMarket(
        tuple(f"w{i}" for i in range(k)),
        tuple(f"f{i}" for i in range(k)),
        tuple(ChoiceFunction.from_orders((LinearOrder(o),), k) for o in firms),
        tuple(prefs),
    )


class TestPickCheck:
    """The pick-based checker against the sibling-scan and textbook oracles."""

    def test_reports_match_the_sibling_scan(self):
        cases = Counter()
        classical_cases = Counter()
        for seed in range(200):
            market = random_market(
                GenParams(
                    workers=3 + seed % 4, firms=2 + seed // 4 % 2,
                    max_orders=2 + seed // 8 % 2, density=(0.7, 0.85, 1.0)[seed % 3],
                    seed=seed,
                )
            )
            if seed % 5 == 0 and len(market.workers) <= 5:
                assoc = build_associated_market(market)
            else:
                assoc = family_association(market)
            rng = random.Random(seed)
            bases = [workers_propose(assoc)[0], copies_propose(assoc)[0]]
            bases += [random_matching(assoc, rng, rational=True) for _ in range(10)]
            matchings = list(bases)
            matchings += [random_matching(assoc, rng, rational=False) for _ in range(20)]
            for base in bases:
                matchings += sibling_perturbations(assoc, base)
            for matching in matchings:
                report = check_copy_stable(assoc, matching)
                assert report == sibling_scan_copy_stable(assoc, matching)
                cases[report.case] += 1
                classical = check_classical_stable(assoc, matching)
                assert classical == textbook_classical_stable(assoc, matching)
                classical_cases[classical.case] += 1
                if report.case == PAIR_BLOCK:
                    c, w = report.witness["copy"], report.witness["worker"]
                    holder = matching.by_worker[w]
                    if holder is not None and holder != c and (
                        assoc.firm_of_copy[holder] == assoc.firm_of_copy[c]
                    ):
                        cases["sibling holds the worker"] += 1
        assert all(
            cases[case] >= 50
            for case in (None, WORKER_BLOCK, FIRM_BLOCK, COPY_ENVY, PAIR_BLOCK,
                         "sibling holds the worker")
        ), cases
        assert all(
            classical_cases[case] >= 50
            for case in (None, WORKER_BLOCK, FIRM_BLOCK, PAIR_BLOCK)
        ), classical_cases


class TestPruning:
    """Each pruned search against the full scan it replaced."""

    def test_reference_pruned_equals_unpruned(self, reference_assoc):
        assert enumerate_copy_stable(reference_assoc) == full_scan_copy_stable(
            reference_assoc
        )
        assert enumerate_classical_stable(
            reference_assoc
        ) == full_scan_classical_stable(reference_assoc)

    @pytest.mark.parametrize("seed", range(12))
    def test_small_random_markets_agree(self, seed):
        market = random_market(GenParams(workers=3, firms=2, max_orders=2, seed=seed))
        assoc = family_association(market)
        assert enumerate_copy_stable(assoc) == full_scan_copy_stable(assoc)
        assert enumerate_classical_stable(assoc) == full_scan_classical_stable(assoc)

    @pytest.mark.parametrize(
        "seed, firms",
        [(46, 3), (55, 3), (75, 3), (103, 3), (105, 3), (118, 2), (118, 3), (223, 3),
         (295, 2), (312, 3)],
    )
    def test_dense_markets_with_several_matchings_agree(self, seed, firms):
        # k=4 markets picked for a copy-stable set of two or more, so that
        # the cuts have matchings to lose; each full scan checks at most
        # (copies + 1)**4 <= 6561 assignments
        market = random_market(
            GenParams(workers=4, firms=firms, max_orders=3, density=1.0, seed=seed)
        )
        assoc = family_association(market)
        found = enumerate_copy_stable(assoc)
        assert len(found) >= 2
        assert found == full_scan_copy_stable(assoc)
        assert enumerate_classical_stable(assoc) == full_scan_classical_stable(assoc)

    @pytest.mark.parametrize("seed", range(24))
    def test_copy_stable_is_the_split_image_of_the_firm_level_scan(self, seed):
        # an oracle that shares no cut with the copy-level search: the full
        # firm-level scan, carried over by the proven bijection
        market = random_market(
            GenParams(
                workers=5 + seed % 2, firms=2 + seed // 2 % 2, max_orders=3, density=1.0,
                seed=seed,
            )
        )
        assoc = family_association(market)
        image = [split_matching(assoc, m) for m in full_scan_stable(market)]
        assert enumerate_copy_stable(assoc) == sorted(image, key=lambda m: m.key)

    def test_reference_leaf_checks_stay_few(self, reference_assoc, monkeypatch):
        # the full product holds thousands of complete assignments; the
        # firm placements that survive the cuts are exactly the 4 stable
        # ones, so each matching found is the only leaf its placement makes
        calls = count_leaf_checks(monkeypatch)
        assert len(enumerate_copy_stable(reference_assoc)) == 4
        assert calls() == 4

    def test_reference_classical_search_makes_12_proposals(
        self, reference_assoc, monkeypatch
    ):
        # Gale-Shapley reaches the worker-optimal matching in 6 proposals;
        # each of the 4 breaks then reaches a copy that was unmatched after
        # 1 or 2 more.  The one matching listed gets one closing check.
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return check_classical_stable(*args)

        monkeypatch.setattr(stability, "check_classical_stable", counted)
        found = enumerate_classical_stable(reference_assoc, Caps(max_candidates=12))
        assert (len(found), calls) == (1, 1)
        with pytest.raises(CapExceededError, match="^12 placements tried exceed"):
            enumerate_classical_stable(reference_assoc, Caps(max_candidates=11))

    def test_classical_closing_check_failure_is_reported(
        self, reference_assoc, monkeypatch
    ):
        # the closing check never fails on a correct search; when it does,
        # the error names the witness by its labels
        monkeypatch.setattr(
            stability,
            "check_classical_stable",
            lambda assoc, matching: StabilityReport(
                False, PAIR_BLOCK, {"copy": 1, "worker": 0}
            ),
        )
        with pytest.raises(
            DeferredAcceptanceError,
            match="pair-block witness {'copy': 'f1.2', 'worker': 'w1'}",
        ):
            enumerate_classical_stable(reference_assoc)

    def test_one_to_one_candidate_cap(self, reference_assoc):
        # a copy-stable node charges its worker's two firms and staying
        # unmatched, cut or not: 11 nodes (the full product would be
        # thousands of assignments); the classical search charges each
        # proposal
        for enumerate_set, tried in (
            (enumerate_copy_stable, 33),
            (enumerate_classical_stable, 12),
        ):
            found = enumerate_set(reference_assoc)
            assert enumerate_set(reference_assoc, Caps(max_candidates=tried)) == found
            with pytest.raises(CapExceededError, match="is a lower bound"):
                enumerate_set(reference_assoc, Caps(max_candidates=tried - 1))

    @pytest.mark.parametrize(
        "market_name, concept, stops",
        [
            # 11 nodes of 3 placements each
            ("reference", "stable", [3 * (cap // 3 + 1) for cap in range(1, 33)]),
            ("reference", "copy-stable", [3 * (cap // 3 + 1) for cap in range(1, 33)]),
            # 4 nodes of 2 placements each
            ("sparse", "stable", [2, 4, 4, 6, 6, 8, 8]),
            ("sparse", "copy-stable", [2, 4, 4, 6, 6, 8, 8]),
            # workers with 1 to 3 options: a node visited out of order would
            # move the stops
            ("k5", "stable", [3, 3, 6, 6, 6, 10, 10, 10, 10, 13, 13, 13, 15, 15,
                              18, 18, 18, 22, 22, 22, 22, 25, 25, 25, 27, 27, 31,
                              31, 31, 31]),
            ("k5", "copy-stable", [3, 3, 6, 6, 6, 10, 10, 10, 10, 13, 13, 13, 16,
                                   16, 16, 20, 20, 20, 20, 23, 23, 23, 27, 27, 27,
                                   27]),
        ],
    )
    def test_every_cap_stops_where_it_did(
        self, reference_doc, sparse_market, market_name, concept, stops
    ):
        # the placements charged when each cap from 1 up stops the search,
        # which visits staying unmatched first, then the firms in the
        # worker's order; a cap of the full count lets it finish
        market, copy_indexing = {
            "reference": (reference_doc.market, reference_doc.copy_indexing),
            "sparse": (sparse_market, None),
            "k5": (
                random_market(
                    GenParams(workers=5, firms=3, max_orders=2, density=0.6, seed=4)
                ),
                None,
            ),
        }[market_name]
        if concept == "stable":
            search = enumerate_stable
        else:
            search = enumerate_copy_stable
            market = build_associated_market(
                market, decompose_market(market, copy_indexing)
            )
        for cap, stop in enumerate(stops, start=1):
            with pytest.raises(CapExceededError, match=f"^{stop} placements tried"):
                search(market, Caps(max_candidates=cap))
        assert search(market, Caps(max_candidates=len(stops) + 1)) == search(market)

    def test_reference_firm_level_pruned_equals_unpruned(self, reference_market):
        assert enumerate_stable(reference_market) == full_scan_stable(reference_market)

    @pytest.mark.parametrize("seed", range(60))
    def test_firm_level_random_markets_agree(self, seed):
        # odd seeds swap the first firm for a random table, which as a
        # rule is not substitutable and must then keep every option
        k = 2 + seed % 4
        market = random_market(
            GenParams(workers=k, firms=1 + seed % 3, max_orders=2, density=0.8, seed=seed)
        )
        if seed % 2:
            rng = random.Random(seed)
            table = ChoiceFunction.from_table(
                [rng.randrange(1 << k) & menu for menu in range(1 << k)], k
            )
            market = with_first_firm(market, table)
        assert enumerate_stable(market) == full_scan_stable(market)

    def test_reference_firm_level_leaf_checks(self, reference_market, monkeypatch):
        # a worker that a substitutable firm it prefers would take from
        # every menu it can still hold is placed there or above: of the 49
        # complete assignments the individual-rationality cut leaves, only
        # the 4 stable matchings reach the leaf checker
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return check_stable(*args)

        monkeypatch.setattr(stability, "check_stable", counted)
        assert len(enumerate_stable(reference_market)) == 4
        assert calls == 4

    def test_firm_level_mixed_firm_kinds_agree(self):
        # each firm is its generated union of orders, that union as an
        # explicit table, or an arbitrary table, which as a rule is not
        # substitutable, so that the cut fires through both kinds and must
        # keep away from the firms it does not screen
        kinds = Counter()
        sizes = Counter()
        for seed in range(48):
            rng = random.Random(seed)
            k = 3 + seed % 4
            market = random_market(
                GenParams(
                    workers=k, firms=2 + seed % 2, max_orders=3, density=1.0, seed=seed
                )
            )
            firms = []
            for cf in market.choice_functions:
                kind = rng.choice(("orders", "canonical", "arbitrary"))
                if kind == "canonical":
                    cf = canonicalize(cf)
                elif kind == "arbitrary":
                    cf = ChoiceFunction.from_table(
                        [rng.randrange(1 << k) & menu for menu in range(1 << k)], k
                    )
                    kind += "-substitutable" * check_substitutability(cf).passed
                kinds[kind] += 1
                firms.append(cf)
            market = ManyToOneMarket(
                market.workers, market.firms, tuple(firms), market.worker_prefs
            )
            found = enumerate_stable(market)
            assert found == full_scan_stable(market)
            sizes[len(found)] += 1
        assert min(kinds[kind] for kind in ("orders", "canonical", "arbitrary")) >= 20
        assert sum(n for size, n in sizes.items() if size >= 2) >= 5, sizes

    def test_complementary_firm_keeps_its_pair(self):
        # C({a, b}) = {a, b} but C({a}) = C({b}) = {}: the firm would not
        # keep a alone, yet it keeps a beside b, so the substitutable-firm
        # cut must not apply to it
        cf = ChoiceFunction.from_table((0, 0, 0, 3), 2)
        assert not check_substitutability(cf).passed
        market = ManyToOneMarket(("a", "b"), ("A",), (cf,), ((0,), (0,)))
        found = [firm_sets(market, m) for m in enumerate_stable(market)]
        assert found == [{}, {"A": ["a", "b"]}]

    def test_firm_too_large_to_check_is_not_pruned(self, reference_market):
        # subset-ranking firms over 4 workers, checked under a 3-worker cap:
        # no cap error, and no substitutability scan
        market = ManyToOneMarket(
            reference_market.workers,
            reference_market.firms,
            tuple(
                ChoiceFunction.from_subset_ranking(cf.ranking, cf.universe_size)
                for cf in reference_market.choice_functions
            ),
            reference_market.worker_prefs,
        )
        caps = Caps(max_workers=3)
        assert enumerate_stable(market, caps) == enumerate_stable(reference_market)
        assert all(
            "_cover_pair_failures" not in vars(cf) for cf in market.choice_functions
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_classical_random_markets_agree(self, seed):
        market = random_market(
            GenParams(
                workers=3 + seed % 3, firms=2 + seed % 2, max_orders=2, density=0.8, seed=seed
            )
        )
        assoc = family_association(market)
        assert enumerate_classical_stable(assoc) == full_scan_classical_stable(assoc)

    def test_classical_unit_demand_markets_agree(self):
        # one single-order firm per worker: the copy market is a textbook
        # stable-marriage instance, with complete lists for three seeds in
        # four, and many such instances have several stable matchings
        sizes = Counter()
        for seed in range(64):
            rng = random.Random(seed)
            assoc = family_association(
                unit_demand_market(rng, 3 + seed % 3, complete=seed % 4 > 0)
            )
            found = enumerate_classical_stable(assoc)
            assert found == full_scan_classical_stable(assoc)
            sizes[len(found)] += 1
        assert sum(n for size, n in sizes.items() if size >= 2) >= 15, sizes
        assert max(sizes) >= 4, sizes

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_classical_block_market_lists_all_2_to_the_m(self, m):
        # each block of two workers and two firms is either straight or
        # swapped, independently of the others
        assoc = family_association(block_market(m))
        found = enumerate_classical_stable(assoc)
        expected = [
            OneToOneMatching(
                tuple(2 * b + (side ^ swap) for b, swap in enumerate(swaps) for side in (0, 1)),
                2 * m,
            )
            for swaps in product((0, 1), repeat=m)
        ]
        assert len(found) == 2**m
        assert found == sorted(expected, key=lambda matching: matching.key)
        if m == 2:
            assert found == full_scan_classical_stable(assoc)

    def test_firm_level_cap_bounds_the_pruned_product(self, sparse_market):
        # 4 nodes over the one firm each worker accepts, 2 placements each;
        # a, b and c are each the best their firm could hold, so only the
        # branch onto that firm is searched, but the firm-level search
        # counts its cut placements too
        found = enumerate_stable(sparse_market)
        assert found == full_scan_stable(sparse_market)
        assert enumerate_stable(sparse_market, Caps(max_candidates=8)) == found
        with pytest.raises(CapExceededError, match="^8 placements tried"):
            enumerate_stable(sparse_market, Caps(max_candidates=7))


def count_leaf_checks(monkeypatch):
    """Count the copy-stable search's leaf checks; returns the counter."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return check_copy_stable(*args)

    monkeypatch.setattr(stability, "check_copy_stable", counted)
    return lambda: calls


def association(market: ManyToOneMarket, family: str, seed: int):
    """The copy market over the ``all`` family, the given orders, or the
    ``all`` family with each firm's copy numbers shuffled."""
    if family == "given":
        return family_association(market)
    per_firm = decompose_market(market)
    if family == "shuffled":
        rng = random.Random(seed)
        per_firm = tuple(tuple(rng.sample(orders, len(orders))) for orders in per_firm)
    return build_associated_market(market, per_firm)


def split_image(assoc) -> list[OneToOneMatching]:
    """The full firm-level scan, carried over to the copies by the bijection."""
    image = (split_matching(assoc, m) for m in full_scan_stable(assoc.source))
    return sorted(image, key=lambda m: m.key)


def one_firm_market(orders, prefs) -> ManyToOneMarket:
    """Firm ``A`` as the union of ``orders``; ``prefs`` says who lists it."""
    k = len(prefs)
    cf = ChoiceFunction.from_orders(tuple(LinearOrder(o) for o in orders), k)
    workers = tuple("abcdefgh"[:k])
    return ManyToOneMarket(workers, ("A",), (cf,), tuple((0,) * p for p in prefs))


class TestFirmPlacementSearch:
    """The copy-stable search over firm placements: oracles and each cut."""

    @pytest.mark.parametrize("family", ["all", "given", "shuffled"])
    def test_equals_both_full_scans(self, family):
        # k=3 markets, at most 15 copies, so the copy-level scan is cheap;
        # the split image of the firm-level scan shares no cut with it
        sizes = Counter()
        for seed in range(80):
            market = random_market(
                GenParams(workers=3, firms=3, max_orders=1 + seed % 3, seed=seed)
            )
            assoc = association(market, family, seed)
            found = enumerate_copy_stable(assoc)
            assert found == full_scan_copy_stable(assoc)
            assert found == split_image(assoc)
            sizes[len(found)] += 1
        assert sum(n for size, n in sizes.items() if size >= 2) >= 5, sizes

    @pytest.mark.parametrize("family", ["all", "given", "shuffled"])
    def test_equals_the_split_image_at_k_4_to_6(self, family):
        sizes = Counter()
        for seed in range(60):
            market = random_market(
                GenParams(
                    workers=4 + seed % 3, firms=2 + seed % 2, max_orders=3,
                    density=1.0, seed=seed,
                )
            )
            assoc = association(market, family, seed)
            found = enumerate_copy_stable(assoc)
            assert found == split_image(assoc)
            sizes[len(found)] += 1
        assert sum(n for size, n in sizes.items() if size >= 2) >= 5, sizes

    def test_pick_cut_drops_a_held_worker_no_copy_picks(self, monkeypatch):
        # A's one copy ranks b over a.  Once a sits on A, b must take A
        # too, as the copy would pick b from everything A can still hold;
        # A then holds a, whom no copy picks, so that branch dies before
        # its leaf.  Nodes: a (2 placements), then b once per branch of a.
        market = one_firm_market([(1, 0)], [1, 1])
        assoc = family_association(market)
        calls = count_leaf_checks(monkeypatch)
        found = enumerate_copy_stable(assoc, Caps(max_candidates=6))
        assert [copy_sets(assoc, m) for m in found] == [{"A.1": "b"}]
        assert calls() == 1
        assert found == full_scan_copy_stable(assoc)

    def test_must_take_cut_removes_staying_unmatched(self, monkeypatch):
        # a lists A then B, and A's copy ranks a first: (A.1, a) would
        # block every completion that puts a on B or leaves it unmatched,
        # so one branch of the three reaches a leaf
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        market = ManyToOneMarket(("a",), ("A", "B"), (cf, cf), ((0, 1),))
        assoc = family_association(market)
        calls = count_leaf_checks(monkeypatch)
        found = enumerate_copy_stable(assoc, Caps(max_candidates=3))
        assert [copy_sets(assoc, m) for m in found] == [{"A.1": "a"}]
        assert calls() == 1
        assert found == full_scan_copy_stable(assoc)

    def test_leaf_seats_a_worker_on_the_first_copy_it_is_the_pick_of(self):
        # both copies of A pick a from {a}; parked on A.2 while A.1 sits
        # empty, a would rather move up, which is a pair-block
        market = one_firm_market([(1, 0), (0, 1)], [1, 0])
        assoc = family_association(market)
        found = enumerate_copy_stable(assoc)
        assert [copy_sets(assoc, m) for m in found] == [{"A.1": "a"}]
        assert found == full_scan_copy_stable(assoc)
        report = check_copy_stable(assoc, m11(assoc, {"A.2": "a"}))
        assert report == StabilityReport(False, PAIR_BLOCK, {"copy": 0, "worker": 0})

    def test_worker_with_no_mutual_copy_is_never_placed(self):
        # b lists A, whose one copy does not rank it, and c lists nothing:
        # neither is a search node, so a's node alone charges A and
        # staying unmatched
        market = one_firm_market([(0,)], [1, 1, 0])
        assoc = family_association(market)
        found = enumerate_copy_stable(assoc, Caps(max_candidates=2))
        assert [m.by_worker for m in found] == [(0, None, None)]
        assert found == full_scan_copy_stable(assoc)
        with pytest.raises(CapExceededError, match="^2 placements tried exceed"):
            enumerate_copy_stable(assoc, Caps(max_candidates=1))

    def test_a_stopped_search_reports_a_lower_bound(self, reference_assoc):
        # depth first, the reference search has charged 21 placements,
        # 3 a node, when it first passes 20
        with pytest.raises(
            CapExceededError,
            match="^21 placements tried exceed enumeration cap 20; the search "
            "stopped there, so 21 is a lower bound",
        ):
            enumerate_copy_stable(reference_assoc, Caps(max_candidates=20))


class _Unreadable:
    """A data descriptor that fails every read, so it also hides a value
    a ``cached_property`` has already stored on the instance."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        raise AssertionError(f"copy-level code read ChoiceFunction.{self.name}")

    def __set__(self, obj, value):
        raise AssertionError(f"copy-level code wrote ChoiceFunction.{self.name}")


def copy_level_results(assoc):
    """Everything the copy-level code derives from ``assoc``, as plain data."""
    results = []
    for matching, trace in (copies_propose(assoc), workers_propose(assoc)):
        merged = merge_matching(assoc, matching)
        results += [
            matching,
            trace_json_lines(assoc, trace),
            check_copy_stable(assoc, matching),
            check_classical_stable(assoc, matching),
            merged,
            split_matching(assoc, merged),
        ]
    copy_stable = enumerate_copy_stable(assoc)
    results += [copy_stable, enumerate_classical_stable(assoc)]
    results += [split_matching(assoc, merge_matching(assoc, m)) for m in copy_stable]
    return results


@pytest.mark.parametrize("seed", [None, *range(1, 9)])
def test_copy_level_code_never_reads_a_choice_function(seed, reference_assoc, monkeypatch):
    # once the copy market is built, the DAs, checkers, enumerators and the
    # two maps run on the copies' orders alone; odd seeds give the first
    # firm an explicit table, so both kinds of firm are covered
    if seed is None:
        assoc = reference_assoc
    else:
        market = random_market(
            GenParams(workers=4 + seed % 2, firms=2 + seed % 2, max_orders=2, seed=seed)
        )
        if seed % 2:
            market = with_first_firm(market, canonicalize(market.choice_functions[0]))
        assoc = build_associated_market(market)
    expected = copy_level_results(assoc)
    for name in ("choose", "_full_table", "_menu_sets", "_cover_pair_failures",
                 "_path_independence"):
        monkeypatch.setattr(ChoiceFunction, name, _Unreadable(name))
    assert copy_level_results(assoc) == expected


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_every_enumerated_matching_passes_its_checker(seed):
    market = random_market(GenParams(workers=3, firms=2, max_orders=2, seed=seed))
    for matching in enumerate_stable(market):
        assert check_stable(market, matching).stable
    assoc = family_association(market)
    for matching in enumerate_copy_stable(assoc):
        assert check_copy_stable(assoc, matching).stable
    for matching in enumerate_classical_stable(assoc):
        assert check_classical_stable(assoc, matching).stable
