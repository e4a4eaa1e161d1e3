"""Merging and splitting matchings between the two market forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdecomp import (
    FirmRationalityError,
    CountInvarianceReport,
    GenParams,
    ManyToOneMatching,
    MarketValidationError,
    OneToOneMatching,
    check_count_invariance,
    enumerate_copy_stable,
    enumerate_stable,
    merge_matching,
    random_market,
    split_matching,
    verify_correspondence,
)

from conftest import (
    GOLDEN_COPY_STABLE,
    GOLDEN_MERGE_IMAGES,
    LAM_FIRM,
    MU_FIRM,
    copy_sets,
    family_association,
    firm_sets,
    m1,
    m11,
)


class TestMergeSplit:
    def test_golden_merge_pairing(self, reference_assoc, reference_market):
        for assignment, image in zip(GOLDEN_COPY_STABLE, GOLDEN_MERGE_IMAGES):
            merged = merge_matching(reference_assoc, m11(reference_assoc, assignment))
            assert firm_sets(reference_market, merged) == image

    def test_split_inverts_merge_on_the_golden_set(self, reference_assoc, reference_market):
        for assignment, image in zip(GOLDEN_COPY_STABLE, GOLDEN_MERGE_IMAGES):
            split = split_matching(reference_assoc, m1(reference_market, image))
            assert copy_sets(reference_assoc, split) == assignment

    def test_split_sends_workers_to_lowest_agreeing_copy(self, reference_assoc, reference_market):
        # f2 hiring {w3, w4}: w3 tops copy f2.1, w4 tops none of f2.1-f2.3
        # but tops f2.4, the lowest of the w4-first copies
        split = split_matching(
            reference_assoc, m1(reference_market, {"f2": ["w3", "w4"]})
        )
        assert copy_sets(reference_assoc, split) == {"f2.1": "w3", "f2.4": "w4"}

    def test_split_rejects_sets_the_firm_would_not_keep(self, reference_assoc, reference_market):
        # every copy of f1 prefers w1 within {w1, w4}, so w4 goes unplaced
        with pytest.raises(FirmRationalityError):
            split_matching(reference_assoc, m1(reference_market, {"f1": ["w1", "w4"]}))

    def test_merge_of_empty_is_empty(self, reference_assoc, reference_market):
        merged = merge_matching(reference_assoc, m11(reference_assoc, {}))
        assert merged == m1(reference_market, {})

    @pytest.mark.parametrize(
        "convert, matching, message",
        [
            (
                merge_matching,
                OneToOneMatching((None,) * 4, 11),
                "matching covers a different copy count",
            ),
            (
                split_matching,
                ManyToOneMatching((None,) * 4, 3),
                "matching covers a different firm count",
            ),
            (
                split_matching,
                ManyToOneMatching((None,) * 3, 2),
                "matching covers a different worker count",
            ),
        ],
        ids=["merge-copies", "split-firms", "split-workers"],
    )
    def test_size_refusals_read_exactly(self, reference_assoc, convert, matching, message):
        with pytest.raises(MarketValidationError) as caught:
            convert(reference_assoc, matching)
        assert str(caught.value) == message


class TestCorrespondence:
    def test_reference_passes_four_to_four(self, reference_assoc):
        report = verify_correspondence(reference_assoc)
        assert report.passed
        assert bool(report) is True
        assert report.problems == ()
        assert len(report.stable) == 4
        assert len(report.copy_stable) == 4
        assert len(report.merged) == 4
        assert len(report.split) == 4

    def test_lexicographic_indexing_also_passes(self, reference_assoc_lex):
        assert verify_correspondence(reference_assoc_lex).passed

    def test_precomputed_sets_are_honoured(self, reference_assoc, reference_market):
        stable = enumerate_stable(reference_market)
        report = verify_correspondence(reference_assoc, stable=stable)
        assert report.passed
        assert report.stable == tuple(stable)

    def test_single_firm_single_order_market(self, marriage_market):
        assoc = family_association(marriage_market)
        report = verify_correspondence(assoc)
        assert report.passed
        assert len(report.stable) == 2


class TestCorrespondenceFailures:
    """Wrong sets passed in through ``stable=`` and ``copy_stable=`` are
    reported problem by problem."""

    def test_a_missing_stable_matching(self, reference_assoc, reference_market):
        # LAM_FIRM merges into MU_FIRM, which the set leaves out
        missing = m1(reference_market, MU_FIRM)
        stable = [m for m in enumerate_stable(reference_market) if m != missing]
        report = verify_correspondence(reference_assoc, stable=stable)
        assert not report.passed
        assert bool(report) is False
        assert report.problems == (
            "merge image (0, 0, 1, 1) is not stable",
            "3 stable vs 4 copy-stable matchings",
        )

    def test_a_missing_copy_stable_matching(self, reference_assoc, reference_market):
        missing = m11(reference_assoc, LAM_FIRM)
        copy_stable = [
            m for m in enumerate_copy_stable(reference_assoc) if m != missing
        ]
        report = verify_correspondence(reference_assoc, copy_stable=copy_stable)
        assert not report.passed
        assert report.problems == (
            "split image (0, 3, 6, 9) is not copy-stable",
            "4 stable vs 3 copy-stable matchings",
        )

    def test_a_matching_that_does_not_split(self, reference_assoc, reference_market):
        # no copy of f1 picks w4 from {w1, w4}, so f1 would not keep the pair
        unsplittable = m1(reference_market, {"f1": ["w1", "w4"]})
        stable = [*enumerate_stable(reference_market), unsplittable]
        report = verify_correspondence(reference_assoc, stable=stable)
        assert not report.passed
        assert report.problems == (
            "split failed on stable matching (0, None, None, 0): firm f1 would "
            "not choose its assigned set: no copy's best pick is w4",
            "5 stable vs 4 copy-stable matchings",
        )
        assert len(report.split) == 4

    def test_two_copy_matchings_with_one_merge_image(
        self, reference_assoc, reference_market
    ):
        # w1 and w2 trade copies of f1: the firm hires the same pair
        traded = {**LAM_FIRM, "f1.1": "w2", "f1.4": "w1"}
        copy_stable = [m11(reference_assoc, LAM_FIRM), m11(reference_assoc, traded)]
        report = verify_correspondence(
            reference_assoc,
            stable=[m1(reference_market, MU_FIRM)],
            copy_stable=copy_stable,
        )
        assert not report.passed
        assert report.problems == (
            "split(merge) moved (3, 0, 6, 9)",
            "1 stable vs 2 copy-stable matchings",
            "merge is not injective on the copy-stable set",
        )


class TestCountInvariance:
    def test_reference_counts_are_flat(self, reference_assoc):
        report = check_count_invariance(reference_assoc)
        assert report.verdict == "pass"
        assert report.lad_by_firm == (True, True)
        assert set(report.copy_counts) == {(2, 2)}
        assert set(report.firm_sizes) == {(2, 2)}
        assert set(report.worker_matched) == {(True, True, True, True)}

    def test_lad_failure_downgrades_to_premise_unmet(self, lad_violating_market):
        assoc = family_association(lad_violating_market)
        report = check_count_invariance(assoc)
        assert report.lad_by_firm == (False,)
        assert report.verdict == "premise-unmet"
        assert report.passed  # informational, not a failure

    @pytest.mark.parametrize(
        "verdict, truth", [("pass", True), ("premise-unmet", True), ("fail", False)]
    )
    def test_report_truth_is_its_verdict(self, verdict, truth):
        report = CountInvarianceReport((True,), verdict, (), (), ())
        assert report.passed is truth
        assert bool(report) is truth

    def test_three_worker_market(self, three_worker_market):
        assoc = family_association(three_worker_market)
        assert verify_correspondence(assoc).passed
        report = check_count_invariance(assoc)
        assert report.verdict in ("pass", "premise-unmet")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_split_then_merge_fixes_every_stable_matching(seed):
    market = random_market(
        GenParams(workers=4, firms=2, max_orders=2, density=0.9, seed=seed)
    )
    assoc = family_association(market)
    for matching in enumerate_stable(market):
        split = split_matching(assoc, matching)
        assert merge_matching(assoc, split) == matching
