"""Choice-function representations and the axiom checkers."""

import random
from array import array
from collections.abc import Sequence
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdecomp import (
    Caps,
    CapExceededError,
    ChoiceFunction,
    LinearOrder,
    MarketValidationError,
    canonicalize,
    check_consistency,
    check_lad,
    check_path_independence,
    check_substitutability,
    replay_witness,
)
from matchdecomp import bitsets
from matchdecomp.bitsets import bit, iter_indices, iter_submasks, member_sets, menu_sets
from matchdecomp.choices import (
    AxiomReport,
    _consistency_witness,
    _pairwise_path_independence,
    _substitutability_witness,
    known_substitutable,
)

from conftest import TABLE_BOTH_FAIL, TABLE_CONS_FAIL, TABLE_SUBST_FAIL


@st.composite
def choice_tables(draw, max_workers=4):
    """Arbitrary tables: any chosen-within-menu function with C(empty)=empty."""
    k = draw(st.integers(min_value=1, max_value=max_workers))
    entries = [0]
    for menu in range(1, 1 << k):
        pick = draw(st.integers(min_value=0, max_value=(1 << k) - 1))
        entries.append(pick & menu)
    return ChoiceFunction.from_table(tuple(entries), k)


@st.composite
def subset_rankings(draw, max_workers=4):
    """Arbitrary priority lists of distinct nonempty subsets."""
    k = draw(st.integers(min_value=1, max_value=max_workers))
    masks = draw(st.lists(st.integers(1, (1 << k) - 1), unique=True, max_size=1 << k))
    return ChoiceFunction.from_subset_ranking(tuple(masks), k)


@st.composite
def order_unions(draw, max_workers=4, max_orders=3):
    """Path-independent functions built as unions of random orders."""
    k = draw(st.integers(min_value=1, max_value=max_workers))
    workers = list(range(k))
    orders = []
    for ranking in draw(
        st.lists(st.permutations(workers), min_size=1, max_size=max_orders)
    ):
        cut = draw(st.integers(min_value=0, max_value=k))
        order = LinearOrder(tuple(ranking[:cut]))
        if order not in orders:
            orders.append(order)
    return ChoiceFunction.from_orders(tuple(orders), k)


# ---------------------------------------------------------------------------
# exhaustive oracles: every (chosen, removed) pair and every submenu
# ---------------------------------------------------------------------------


def exhaustive_substitutability(cf: ChoiceFunction) -> AxiomReport:
    table = cf._full_table
    for menu in range(len(table)):
        chosen = table[menu]
        if not chosen:
            continue
        for w in iter_indices(chosen):
            others = menu & ~bit(w)
            for removed in iter_indices(others):
                if not table[menu & ~bit(removed)] >> w & 1:
                    return AxiomReport(
                        "substitutability",
                        False,
                        {"menu": menu, "worker": w, "removed": removed},
                    )
    return AxiomReport("substitutability", True)


def exhaustive_consistency(cf: ChoiceFunction) -> AxiomReport:
    table = cf._full_table
    for menu in range(len(table)):
        chosen = table[menu]
        rest = menu & ~chosen
        sub = rest
        while True:
            submenu = chosen | sub
            if submenu != menu and table[submenu] != chosen:
                return AxiomReport(
                    "consistency", False, {"menu": menu, "submenu": submenu}
                )
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return AxiomReport("consistency", True)


def exhaustive_lad(cf: ChoiceFunction) -> AxiomReport:
    table = cf._full_table
    for larger in range(len(table)):
        hired = table[larger].bit_count()
        sub = larger
        while True:
            if table[sub].bit_count() > hired:
                return AxiomReport(
                    "law-of-aggregate-demand",
                    False,
                    {"smaller": sub, "larger": larger},
                )
            if sub == 0:
                break
            sub = (sub - 1) & larger
    return AxiomReport("law-of-aggregate-demand", True)


def every_pair_path_independence(cf: ChoiceFunction) -> AxiomReport:
    table = cf._full_table
    for first in range(len(table)):
        for second in range(len(table)):
            if table[first | second] != table[table[first] | second]:
                return AxiomReport(
                    "path-independence", False, {"first": first, "second": second}
                )
    return AxiomReport("path-independence", True)


# ---------------------------------------------------------------------------
# cover-pair oracles: the per-menu scans the menu-set kernels replaced
# ---------------------------------------------------------------------------


def cover_pair_substitutability(cf: ChoiceFunction) -> AxiomReport:
    table = cf._full_table
    for menu, chosen in enumerate(table):
        rest = menu if chosen else 0  # an empty choice has no worker to lose
        while rest:
            low = rest & -rest
            if chosen & ~low & ~table[menu ^ low]:
                return _substitutability_witness(table, menu)
            rest ^= low
    return AxiomReport("substitutability", True)


def cover_pair_consistency(cf: ChoiceFunction) -> AxiomReport:
    table = cf._full_table
    for menu, chosen in enumerate(table):
        rest = menu & ~chosen
        while rest:
            low = rest & -rest
            if table[menu ^ low] != chosen:
                return _consistency_witness(table, menu)
            rest ^= low
    return AxiomReport("consistency", True)


def menus_holding(entries, w: int) -> int:
    """The positions whose entry holds ``w``, read entry by entry."""
    return int("".join("1" if e >> w & 1 else "0" for e in reversed(entries)), 2)


CHECKS_AND_ORACLES = (
    (check_substitutability, exhaustive_substitutability),
    (check_consistency, exhaustive_consistency),
    (check_lad, exhaustive_lad),
)


def perturbed_order_union(rng: random.Random, k: int) -> ChoiceFunction:
    """A union of 1-3 random orders as a table, with 0-2 menus redrawn."""
    orders = []
    for _ in range(rng.randint(1, 3)):
        ranking = rng.sample(range(k), k)[: rng.randint(0, k)]
        orders.append(LinearOrder(tuple(ranking)))
    table = list(canonicalize(ChoiceFunction.from_orders(tuple(orders), k)).table)
    for _ in range(rng.randint(0, 2)):
        menu = rng.randrange(1 << k)
        table[menu] = rng.randrange(1 << k) & menu
    return ChoiceFunction.from_table(table, k)


SWEEP_SIZE = 10_000


class CountingTable(Sequence):
    """A choice table that counts the entries read from it."""

    def __init__(self, entries):
        self.entries = entries
        self.reads = 0

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index):
        self.reads += 1
        return self.entries[index]


class TestLinearOrder:
    def test_best_in_picks_first_present(self):
        order = LinearOrder((2, 0, 1))
        assert order.best_in(0b011) == 0
        assert order.best_in(0b111) == 2
        assert order.best_in(0b000) is None

    def test_unranked_workers_are_invisible(self):
        order = LinearOrder((1,))
        assert order.best_in(0b101) is None
        assert order.mask == 0b010

    def test_duplicates_rejected(self):
        with pytest.raises(MarketValidationError):
            LinearOrder((0, 1, 0))

    def test_empty_order_is_legal(self):
        assert LinearOrder(()).best_in(0b11) is None


class TestConstructors:
    def test_table_must_cover_every_menu(self):
        with pytest.raises(MarketValidationError):
            ChoiceFunction.from_table((0, 1, 2), 2)

    def test_table_cannot_choose_outside_menu(self):
        with pytest.raises(MarketValidationError):
            ChoiceFunction.from_table((0, 2, 2, 3), 2)

    def test_subset_ranking_rejects_empty_and_duplicate_subsets(self):
        with pytest.raises(MarketValidationError):
            ChoiceFunction.from_subset_ranking((0b01, 0), 2)
        with pytest.raises(MarketValidationError):
            ChoiceFunction.from_subset_ranking((0b01, 0b01), 2)

    def test_orders_must_fit_universe(self):
        with pytest.raises(MarketValidationError):
            ChoiceFunction.from_orders((LinearOrder((5,)),), 2)

    def test_choose_rejects_foreign_menus(self):
        cf = ChoiceFunction.from_table((0, 1, 2, 3), 2)
        with pytest.raises(MarketValidationError):
            cf.choose(0b100)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LinearOrder((0, -1)), "negative worker index in (0, -1)"),
            (lambda: ChoiceFunction.from_table((), -1), "universe size must be nonnegative"),
            (
                lambda: ChoiceFunction.from_subset_ranking((0b01, 0b100), 2),
                "subset 0b100 is outside the universe",
            ),
        ],
        ids=["order-negative", "table-universe", "ranking-outside"],
    )
    def test_each_refusal_reads_exactly(self, build, message):
        with pytest.raises(MarketValidationError) as caught:
            build()
        assert str(caught.value) == message


class TestChooseSemantics:
    def test_subset_ranking_takes_first_contained(self):
        # priority: {a,b}, then {b}, then {a}
        cf = ChoiceFunction.from_subset_ranking((0b11, 0b10, 0b01), 2)
        assert cf.choose(0b11) == 0b11
        assert cf.choose(0b10) == 0b10
        assert cf.choose(0b01) == 0b01
        assert cf.choose(0b00) == 0

    def test_subset_ranking_defaults_to_empty(self):
        cf = ChoiceFunction.from_subset_ranking((0b11,), 2)
        assert cf.choose(0b01) == 0

    def test_orders_union_their_maxima(self):
        cf = ChoiceFunction.from_orders(
            (LinearOrder((0, 1, 2)), LinearOrder((2, 1, 0))), 3
        )
        assert cf.choose(0b111) == 0b101
        assert cf.choose(0b010) == 0b010

    @given(order_unions())
    def test_canonicalize_preserves_behaviour(self, cf):
        table = canonicalize(cf)
        assert table.kind == "table"
        for menu in range(1 << cf.universe_size):
            assert table.choose(menu) == cf.choose(menu)

    def test_canonicalize_keeps_a_table_firm(self):
        cf = ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3)
        assert canonicalize(cf) is cf

    def test_universe_cap_enforced(self):
        caps = Caps(max_workers=2, max_orders=10, max_candidates=100)
        cf = ChoiceFunction.from_table(tuple([0] * 8), 3)
        with pytest.raises(CapExceededError):
            canonicalize(cf, caps)


class TestAxioms:
    def test_reference_firms_pass_everything(self, reference_market):
        for cf in reference_market.choice_functions:
            assert check_substitutability(cf).passed
            assert check_consistency(cf).passed
            assert check_path_independence(cf).passed
            assert check_lad(cf).passed

    def test_substitutability_failure_with_witness(self):
        cf = ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3)
        report = check_substitutability(cf)
        assert not report
        assert report.witness == {"menu": 0b111, "worker": 0, "removed": 1}
        assert check_consistency(cf).passed
        assert not check_path_independence(cf).passed
        assert replay_witness(cf, report)

    def test_consistency_failure_with_witness(self):
        cf = ChoiceFunction.from_table(TABLE_CONS_FAIL, 2)
        report = check_consistency(cf)
        assert not report
        assert report.witness == {"menu": 0b11, "submenu": 0b01}
        assert check_substitutability(cf).passed
        assert not check_path_independence(cf).passed
        assert replay_witness(cf, report)

    def test_both_axioms_failing(self):
        cf = ChoiceFunction.from_table(TABLE_BOTH_FAIL, 2)
        for check in (check_substitutability, check_consistency, check_path_independence):
            report = check(cf)
            assert not report.passed
            assert replay_witness(cf, report)

    def test_lad_failure_with_witness(self):
        cf = ChoiceFunction.from_orders((LinearOrder((2, 0)), LinearOrder((2, 1))), 3)
        report = check_lad(cf)
        assert not report.passed
        assert report.witness == {"smaller": 0b011, "larger": 0b111}
        assert replay_witness(cf, report)
        # LAD is independent of path independence
        assert check_path_independence(cf).passed

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
    def test_lad_of_at_most_one_order_builds_no_table(self, k):
        # |C(S)| is 1 exactly when S holds a worker the order ranks, else 0
        rng = random.Random(k)
        families = [(), (LinearOrder(()),)] + [
            (LinearOrder(tuple(rng.sample(range(k), rng.randint(1, k)))),)
            for _ in range(10 * (k > 0))
        ]
        for orders in families:
            cf = ChoiceFunction.from_orders(orders, k)
            report = check_lad(cf)
            assert "_full_table" not in cf.__dict__
            assert report == check_lad(canonicalize(cf)) == exhaustive_lad(cf)
            assert report.passed

    def test_lad_of_one_order_keeps_the_universe_cap(self):
        cf = ChoiceFunction.from_orders((LinearOrder((2, 0)),), 3)
        with pytest.raises(CapExceededError):
            check_lad(cf, Caps(max_workers=2))

    def test_replay_rejects_passing_reports(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        assert replay_witness(cf, check_lad(cf)) is False

    @pytest.mark.parametrize(
        "cf, report",
        [
            # the worker itself removed: C(111) holds w0 and C(110) cannot
            (
                ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3),
                AxiomReport("substitutability", False, {"menu": 0b111, "worker": 0, "removed": 0}),
            ),
            # w2 removed from a menu it is not on
            (
                ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3),
                AxiomReport("substitutability", False, {"menu": 0b011, "worker": 0, "removed": 2}),
            ),
            # C(011) hires two and C(100) one, but 011 is not inside 100
            (
                ChoiceFunction.from_orders((LinearOrder((2, 0)), LinearOrder((2, 1))), 3),
                AxiomReport("law-of-aggregate-demand", False, {"smaller": 0b011, "larger": 0b100}),
            ),
        ],
        ids=["substitutability-self", "substitutability-off-menu", "lad-not-nested"],
    )
    def test_replay_rejects_malformed_witnesses(self, cf, report):
        assert replay_witness(cf, report) is False

    def test_replay_refuses_an_unknown_axiom(self):
        cf = ChoiceFunction.from_orders((LinearOrder((0,)),), 1)
        with pytest.raises(MarketValidationError) as caught:
            replay_witness(cf, AxiomReport("monotonicity", False, {}))
        assert str(caught.value) == "unknown axiom 'monotonicity'"

    @given(choice_tables())
    @settings(max_examples=200)
    def test_path_independence_iff_substitutable_and_consistent(self, cf):
        pi = _pairwise_path_independence(cf).passed
        both = check_substitutability(cf).passed and check_consistency(cf).passed
        assert pi == both

    @given(st.one_of(choice_tables(), subset_rankings()))
    @settings(max_examples=300)
    def test_path_independence_report_matches_the_pairwise_scan(self, cf):
        assert check_path_independence(cf) == _pairwise_path_independence(cf)

    @given(st.one_of(choice_tables(max_workers=5), subset_rankings(max_workers=5)))
    @settings(max_examples=300)
    def test_the_pairwise_scan_skips_no_witness(self, cf):
        assert _pairwise_path_independence(cf) == every_pair_path_independence(cf)

    def test_first_menus_kept_whole_are_skipped(self):
        # the firm keeps every menu whole but the full one, which it empties:
        # substitutable, not consistent, and its one witness sits at the
        # last first menu, which a scan of every pair reaches after 4^16
        # tests; every earlier first menu is kept whole and skipped
        k = 16
        full = (1 << k) - 1
        cf = ChoiceFunction.from_table((*range(full), 0), k)
        assert check_path_independence(cf) == AxiomReport(
            "path-independence", False, {"first": full, "second": 1}
        )

    def test_verdict_is_kept_but_the_cap_still_applies(self):
        cf = ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3)
        first = check_path_independence(cf)
        assert check_path_independence(cf) is first
        with pytest.raises(CapExceededError):
            check_path_independence(cf, Caps(max_workers=2))

    def test_a_search_cuts_on_a_firm_only_when_its_verdict_is_known(self):
        # an orders firm qualifies past the cap; a table only within it, and
        # only when it is substitutable; past the cap no table is scanned
        orders = ChoiceFunction.from_orders((LinearOrder((2, 0)),), 3)
        substitutable = ChoiceFunction.from_table(TABLE_CONS_FAIL, 2)
        not_substitutable = ChoiceFunction.from_table(TABLE_SUBST_FAIL, 3)
        small = Caps(max_workers=1)
        assert known_substitutable(orders, small)
        for cf in (substitutable, not_substitutable):
            assert not known_substitutable(cf, small)
            assert "_cover_pair_failures" not in vars(cf)
        assert known_substitutable(substitutable, Caps())
        assert not known_substitutable(not_substitutable, Caps())

    def test_orders_firm_universe_cap_enforced(self):
        caps = Caps(max_workers=2, max_orders=10, max_candidates=100)
        cf = ChoiceFunction.from_orders((LinearOrder((2, 0)),), 3)
        with pytest.raises(CapExceededError):
            check_path_independence(cf, caps)

    @given(choice_tables())
    @settings(max_examples=150)
    def test_failure_witnesses_replay(self, cf):
        for check in (
            check_substitutability,
            check_consistency,
            check_path_independence,
            check_lad,
        ):
            report = check(cf)
            if not report.passed:
                assert replay_witness(cf, report)

    @given(order_unions())
    @settings(max_examples=150)
    def test_order_unions_are_path_independent(self, cf):
        assert _pairwise_path_independence(canonicalize(cf)).passed


class TestCoverPairChecks:
    """The cover-pair checks report exactly what the exhaustive scans do."""

    @given(st.one_of(choice_tables(max_workers=5), subset_rankings(max_workers=5)))
    @settings(max_examples=300)
    def test_reports_match_the_oracles(self, cf):
        for check, oracle in CHECKS_AND_ORACLES:
            assert check(cf) == oracle(cf)

    def test_reports_match_the_oracles_on_a_seeded_sweep(self):
        rng = random.Random(20241)
        failures = {oracle.__name__: 0 for _, oracle in CHECKS_AND_ORACLES}
        for _ in range(SWEEP_SIZE):
            cf = perturbed_order_union(rng, rng.randint(0, 7))
            for check, oracle in CHECKS_AND_ORACLES:
                expected = oracle(cf)
                assert check(cf) == expected, (cf.table, oracle.__name__)
                failures[oracle.__name__] += not expected.passed
        assert min(failures.values()) >= 500, failures

    @pytest.mark.parametrize(
        "check", [check for check, _ in CHECKS_AND_ORACLES], ids=lambda c: c.__name__
    )
    def test_a_passing_table_is_read_at_most_k_plus_one_times_per_menu(self, check):
        k = 10
        rng = random.Random(7)
        # orders over disjoint worker groups: path independent and LAD
        groups = (rng.sample(range(5), 5), rng.sample(range(5, 8), 3), [9, 8])
        cf = canonicalize(
            ChoiceFunction.from_orders(tuple(LinearOrder(tuple(g)) for g in groups), k)
        )
        counting = CountingTable(cf.table)
        cf.__dict__["_full_table"] = counting
        assert check(cf).passed
        assert counting.reads <= (k + 1) << k


class TestMenuSetKernels:
    """The menu-set kernels report what the scans they replaced report."""

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 15, 16])
    def test_member_sets_match_per_menu_bit_extraction(self, k):
        # the points where the packing (8-bit, then 16-bit array items) or
        # the byte lane of the last worker changes
        rng = random.Random(k)
        table = [rng.randrange(1 << k) & menu for menu in range(1 << k)]
        menus = range(1 << k)
        workers = range(k)
        assert member_sets(table, k) == tuple(menus_holding(table, w) for w in workers)
        assert menu_sets(k) == tuple(menus_holding(menus, w) for w in workers)
        assert member_sets(menus, k) == menu_sets(k)

    def test_iter_submasks_runs_down_to_zero(self):
        assert list(iter_submasks(0b1010)) == [0b1010, 0b1000, 0b0010, 0]
        assert list(iter_submasks(0)) == [0]

    def test_member_sets_do_not_depend_on_byte_order(self, monkeypatch):
        def big_endian_array(code, entries):
            packed = array(code, entries)
            packed.byteswap()  # most significant byte first, as stored there
            return packed

        rng = random.Random(12)
        table = [rng.randrange(1 << 12) & menu for menu in range(1 << 12)]
        monkeypatch.setattr(bitsets, "array", big_endian_array)
        monkeypatch.setattr(bitsets, "sys", SimpleNamespace(byteorder="big"))
        expected = tuple(menus_holding(table, w) for w in range(12))
        assert member_sets(table, 12) == expected

    @pytest.mark.parametrize("k", [8, 9, 10])
    def test_kernels_match_the_cover_pair_and_exhaustive_oracles(self, k):
        # past k = 8 each entry spans two byte lanes; a failure on a menu
        # holding a worker of the second lane is counted as "high"
        rng = random.Random(1000 + k)
        kernels_and_oracles = (
            (
                check_substitutability,
                cover_pair_substitutability,
                exhaustive_substitutability,
            ),
            (check_consistency, cover_pair_consistency, exhaustive_consistency),
        )
        counts = {"passed": 0, "failed": 0, "high": 0}
        for _ in range(100):
            cf = perturbed_order_union(rng, k)
            for kernel, cover_pair, exhaustive in kernels_and_oracles:
                report = kernel(cf)
                expected = exhaustive(cf)
                assert report == cover_pair(cf) == expected, (cf.table, kernel.__name__)
                counts["passed" if report.passed else "failed"] += 1
                counts["high"] += not report.passed and report.witness["menu"] >> 8 > 0
        assert counts["passed"] >= 40 and counts["failed"] >= 40, counts
        assert k == 8 or counts["high"] >= 20, counts
