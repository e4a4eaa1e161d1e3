"""Building the one-to-one market of firm copies and lifted preferences."""

import pytest

from matchdecomp import (
    ChoiceFunction,
    DecompositionMismatchError,
    GenParams,
    LinearOrder,
    ManyToOneMarket,
    ManyToOneMatching,
    MarketValidationError,
    OneToOneMarket,
    OneToOneMatching,
    build_associated_market,
    decompose_market,
    random_market,
    verify_decomposition,
)
from matchdecomp.bitsets import mask_of


class TestLabelsAndGroups:
    def test_copy_labels_are_firm_dot_number(self, reference_assoc):
        assert reference_assoc.copy_labels == (
            "f1.1", "f1.2", "f1.3", "f1.4", "f1.5", "f1.6",
            "f2.1", "f2.2", "f2.3", "f2.4", "f2.5", "f2.6",
        )

    def test_groups_partition_the_copies(self, reference_assoc):
        assert reference_assoc.copies_by_firm == ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))
        assert reference_assoc.firm_of_copy == (0,) * 6 + (1,) * 6


class TestLiftedPreferences:
    def test_preferred_firm_copies_come_first(self, reference_assoc):
        # w1 and w2 rank f2 above f1; w3 and w4 the other way around
        f2_first = (6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5)
        f1_first = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
        assert reference_assoc.worker_prefs[0] == f2_first
        assert reference_assoc.worker_prefs[1] == f2_first
        assert reference_assoc.worker_prefs[2] == f1_first
        assert reference_assoc.worker_prefs[3] == f1_first

    def test_unacceptable_firm_contributes_no_copies(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        market = ManyToOneMarket(("w",), ("A", "B"), (cf, cf), ((1,),))
        assoc = build_associated_market(market)
        # the worker lists only firm B's single copy
        assert assoc.worker_prefs == ((1,),)


class TestRankTables:
    def test_worker_ranks_encode_the_lifted_list(self, reference_assoc):
        # w3 ranks f1.1 first and f2.6 last; staying single beats nothing
        row = reference_assoc.worker_rank[2]
        assert row[0] == 0
        assert row[11] == 11
        assert reference_assoc.worker_empty_rank[2] == 12

    def test_unlisted_partner_ranks_below_empty(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), ()))
        assoc = build_associated_market(market)
        # worker w lists nobody: the only copy ranks below staying single
        assert assoc.worker_rank[1][0] > assoc.worker_empty_rank[1]
        # copy A.1 ranks v but not w
        assert assoc.copy_rank[0][0] < assoc.copy_empty_rank[0]
        assert assoc.copy_rank[0][1] > assoc.copy_empty_rank[0]


def small_associations(reference_assoc):
    """The reference market and seeded generated markets, k = 3 to 6."""
    yield reference_assoc
    for seed in range(12):
        params = GenParams(
            workers=3 + seed % 4, firms=1 + seed % 3, max_orders=2 + seed % 2,
            density=(0.6, 0.8, 1.0)[seed % 3], seed=seed,
        )
        yield build_associated_market(random_market(params))


class TestCopyAbove:
    """``copy_above``, the one table every copy-level pick is read from."""

    def test_rows_are_the_masks_above_each_position(self, reference_assoc):
        for assoc in small_associations(reference_assoc):
            k = len(assoc.source.workers)
            for order, row in zip(assoc.copies, assoc.copy_above):
                expected = [-1] * k
                for i, w in enumerate(order.ranking):
                    expected[w] = mask_of(order.ranking[:i])
                assert row == tuple(expected)

    def test_one_mask_test_decides_every_pick(self, reference_assoc):
        # every menu, every worker: c picks w from S | 1 << w exactly when
        # S misses what c ranks above w, and an unranked w is never picked
        unranked_seen = 0
        for assoc in small_associations(reference_assoc):
            k = len(assoc.source.workers)
            for order, row in zip(assoc.copies, assoc.copy_above):
                unranked_seen += row.count(-1)
                for menu in range(1 << k):
                    for w in range(k):
                        grown = menu | 1 << w
                        assert (not grown & row[w]) == (order.best_in(grown) == w)
        assert unranked_seen


class TestBuildValidation:
    def test_foreign_family_rejected(self, reference_market):
        wrong = ((LinearOrder((0, 1, 2, 3)),), (LinearOrder((3, 2, 1, 0)),))
        with pytest.raises(DecompositionMismatchError):
            build_associated_market(reference_market, wrong)

    def test_firm_count_must_match(self, reference_market):
        message = "decomposition covers a different firm count"
        with pytest.raises(MarketValidationError, match=f"^{message}$"):
            build_associated_market(reference_market, ((),))
        with pytest.raises(MarketValidationError, match=f"^{message}$"):
            OneToOneMarket(reference_market, ((),))

    def test_workers_outside_the_market_are_refused(self):
        # worker 5 is on no menu, so the family recomposes the firm; the
        # copy market still refuses it, since its rank tables cover the
        # market's workers only
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 2)
        market = ManyToOneMarket(("v", "w"), ("A",), (cf,), ((0,), ()))
        family = (LinearOrder((0, 5)),)
        assert verify_decomposition(cf, family).passed
        message = (
            "decomposition of A ranks worker index 5, outside the market's 2 workers"
        )
        with pytest.raises(MarketValidationError, match=f"^{message}$"):
            build_associated_market(market, (family,))
        # an explicit family passes its check in decompose_market and is
        # refused the same way
        with pytest.raises(MarketValidationError, match=f"^{message}$"):
            build_associated_market(market, explicit={0: family})
        # an empty order beside it changes nothing; the market's own workers pass
        with pytest.raises(MarketValidationError, match=f"^{message}$"):
            OneToOneMarket(market, ((LinearOrder(()), LinearOrder((5,))),))
        assert OneToOneMarket(market, ((LinearOrder((1, 0)),),)).copies

    def test_explicit_family_is_verified_at_the_gate(self, reference_market):
        # decompose_market checks an explicit family down its orders, so
        # neither it nor the builder returns one that does not recompose
        explicit = {0: (LinearOrder((0, 1, 2, 3)),)}
        with pytest.raises(DecompositionMismatchError):
            decompose_market(reference_market, explicit)
        with pytest.raises(DecompositionMismatchError):
            build_associated_market(reference_market, explicit=explicit)

    def test_default_build_uses_lexicographic_indexing(self, reference_assoc_lex):
        sequences = [
            [reference_assoc_lex.copies[c].ranking for c in group]
            for group in reference_assoc_lex.copies_by_firm
        ]
        for group in sequences:
            assert group == sorted(group)

    def test_zero_copy_firms_are_allowed(self):
        empty = ChoiceFunction.from_orders((), 2)
        real = ChoiceFunction.from_orders((LinearOrder((0, 1)),), 2)
        market = ManyToOneMarket(
            ("v", "w"), ("A", "B"), (empty, real), ((0, 1), (1, 0))
        )
        assoc = build_associated_market(market, ((), (LinearOrder((0, 1)),)))
        assert assoc.copy_labels == ("B.1",)
        assert assoc.worker_prefs == ((0,), (0,))


class TestMatchingContainers:
    def test_firm_sets_round_trip(self, reference_market):
        matching = ManyToOneMatching.from_firm_sets(
            reference_market, {"f1": ["w1", "w2"], "f2": ["w3"]}
        )
        assert matching.by_worker == (0, 0, 1, None)
        assert matching.render(reference_market)["by_firm"] == {
            "f1": ["w1", "w2"],
            "f2": ["w3"],
        }

    def test_worker_cannot_be_hired_twice(self, reference_market):
        with pytest.raises(MarketValidationError):
            ManyToOneMatching.from_firm_sets(
                reference_market, {"f1": ["w1"], "f2": ["w1"]}
            )

    def test_copy_assignments_round_trip(self, reference_assoc):
        matching = OneToOneMatching.from_copy_assignments(
            reference_assoc, {"f1.1": "w1", "f2.4": "w4"}
        )
        assert matching.by_worker == (0, None, None, 9)
        assert matching.by_copy[9] == 3

    @pytest.mark.parametrize(
        "assignment,message",
        [({"f9.1": "w1"}, "unknown copy 'f9.1'"), ({"f1.1": "zz"}, "unknown worker 'zz'")],
        ids=["copy", "worker"],
    )
    def test_copy_assignments_reject_unknown_labels(
        self, reference_assoc, assignment, message
    ):
        with pytest.raises(MarketValidationError) as caught:
            OneToOneMatching.from_copy_assignments(reference_assoc, assignment)
        assert str(caught.value) == message

    def test_copy_assignments_reject_a_worker_assigned_twice(self, reference_assoc):
        with pytest.raises(MarketValidationError) as caught:
            OneToOneMatching.from_copy_assignments(
                reference_assoc, {"f1.1": "w1", "f2.1": "w1"}
            )
        assert str(caught.value) == "worker w1 assigned twice"

    def test_copies_hold_at_most_one_worker(self):
        with pytest.raises(MarketValidationError):
            OneToOneMatching((0, 0), 2)

    def test_out_of_range_partners_rejected(self):
        with pytest.raises(MarketValidationError):
            ManyToOneMatching((5,), 2)
        with pytest.raises(MarketValidationError):
            OneToOneMatching((3,), 2)

    def test_canonical_key_orders_unmatched_first(self):
        a = OneToOneMatching((None, 0), 2)
        b = OneToOneMatching((0, None), 2)
        assert sorted([b, a], key=lambda m: m.key) == [a, b]
