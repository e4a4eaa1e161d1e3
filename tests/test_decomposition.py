"""Order-family decomposition, its union of orders, and their verification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdecomp import (
    AxiomReport,
    AxiomViolationError,
    Caps,
    CapExceededError,
    ChoiceFunction,
    DecompositionMismatchError,
    GenParams,
    LinearOrder,
    ManyToOneMarket,
    MarketDocument,
    MarketValidationError,
    OneToOneMarket,
    build_associated_market,
    canonicalize,
    copies_propose,
    decompose,
    decompose_market,
    dump_market,
    parse_market,
    random_market,
    serialize_market,
    verify_decomposition,
    workers_propose,
)
from matchdecomp import decomposition
from matchdecomp.decomposition import verify_walk
from matchdecomp.bitsets import bit, iter_indices, member_sets
from matchdecomp.choices import ORDERS, check_path_independence
from matchdecomp.cli import main

from conftest import (
    GOLDEN_ORDERS_F1,
    GOLDEN_ORDERS_F2,
    TABLE_BOTH_FAIL,
)
from test_choices import order_unions


def as_labels(orders, workers):
    return [[workers[w] for w in o.ranking] for o in orders]


def scan_verify(cf, orders):
    """Oracle for verify_decomposition: each order's best worker, menu by menu."""
    table = cf._full_table
    for menu in range(len(table)):
        union = 0
        for order in orders:
            best = order.best_in(menu)
            if best is not None:
                union |= 1 << best
        if union != table[menu]:
            return AxiomReport(
                "decomposition",
                False,
                {"menu": menu, "expected": table[menu], "actual": union},
            )
    return AxiomReport("decomposition", True)


def tree_walk(cf):
    """Oracle for decompose: one recursive call per pick sequence, children
    in ascending worker order, so the leaves come out sorted."""
    found = []

    def walk(remaining, prefix):
        chosen = cf.choose(remaining)
        if not chosen:
            found.append(LinearOrder(tuple(prefix)))
            return
        for w in iter_indices(chosen):
            prefix.append(w)
            walk(remaining & ~bit(w), prefix)
            prefix.pop()

    walk((1 << cf.universe_size) - 1, [])
    return found


def path_independent_subset_rankings(count=40):
    """Seeded subset-ranking functions over 1 to 4 workers that pass path
    independence, drawn as random rankings of random nonempty subsets."""
    found = []
    seed = 0
    while len(found) < count:
        rng = random.Random(seed)
        seed += 1
        k = rng.randint(1, 4)
        subsets = rng.sample(range(1, 1 << k), rng.randint(1, (1 << k) - 1))
        cf = ChoiceFunction.from_subset_ranking(subsets, k)
        if check_path_independence(cf).passed:
            found.append(cf)
    return found


# k = 9 markets of 1,089, 2,557 and 2,375 copies
LARGE_FAMILY_SEEDS = (1, 5, 7)


def large_family_firms():
    return [
        cf
        for seed in LARGE_FAMILY_SEEDS
        for cf in random_market(
            GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=seed)
        ).choice_functions
    ]


def random_order(rng, k):
    ranking = list(range(k))
    rng.shuffle(ranking)
    return LinearOrder(tuple(ranking[: rng.randint(0, k)]))


def family_variants(orders, k, rng):
    """An exact family, then seeded corruptions of it, by name."""
    orders = list(orders)
    pick = rng.choice(orders)
    foreign = next(
        (o for o in (random_order(rng, k) for _ in range(20)) if o not in orders),
        LinearOrder((k - 1,)),
    )
    cut = rng.randint(0, max(len(pick.ranking) - 1, 0))
    truncated = [LinearOrder(o.ranking[:cut]) if o == pick else o for o in orders]
    dropped = [o for o in orders if o != pick]
    shuffled = orders[:]
    rng.shuffle(shuffled)
    return {
        "exact": orders,
        "reindexed": shuffled,
        "dropped": dropped,
        "foreign appended": orders + [foreign],
        "truncated": truncated,
        "duplicate": orders + [pick],
        "empty order": orders + [LinearOrder(())],
        "prefix of another": orders + [LinearOrder(pick.ranking[:cut])],
        "outside the universe": orders + [LinearOrder((k,) + pick.ranking)],
        "empty family": [],
    }


class TestDecomposeReference:
    def test_first_firm_exact_order_set(self, reference_market):
        orders = decompose(reference_market.choice_functions[0])
        found = as_labels(orders, reference_market.workers)
        assert sorted(found) == sorted(GOLDEN_ORDERS_F1)

    def test_second_firm_exact_order_set(self, reference_market):
        orders = decompose(reference_market.choice_functions[1])
        found = as_labels(orders, reference_market.workers)
        assert sorted(found) == sorted(GOLDEN_ORDERS_F2)

    def test_explicit_indexing_returned_verbatim(self, reference_doc):
        market = reference_doc.market
        first, second = decompose_market(market, reference_doc.copy_indexing)
        assert as_labels(first, market.workers) == GOLDEN_ORDERS_F1
        assert as_labels(second, market.workers) == GOLDEN_ORDERS_F2

    def test_default_indexing_is_lexicographic(self, reference_market):
        orders = decompose(reference_market.choice_functions[1])
        sequences = [o.ranking for o in orders]
        assert sequences == sorted(sequences)

    def test_explicit_must_match_order_set(self, reference_market):
        # a file's copy indexing is matched against the walk as it is read
        data = serialize_market(reference_market, {0: (LinearOrder((0, 1, 2, 3)),)})
        with pytest.raises(DecompositionMismatchError) as caught:
            parse_market(data)
        assert str(caught.value) == (
            "copy_indexing of f1 is not the decomposition order set"
        )

    def test_explicit_rejects_a_missing_order(self, reference_market):
        orders = decompose(reference_market.choice_functions[0])
        data = serialize_market(reference_market, {0: orders[:-1]})
        with pytest.raises(DecompositionMismatchError) as caught:
            parse_market(data)
        assert str(caught.value) == (
            "copy_indexing of f1 is not the decomposition order set"
        )

    def test_explicit_rejects_a_repeat_of_a_whole_family(self, reference_market):
        orders = decompose(reference_market.choice_functions[0])
        data = serialize_market(reference_market, {0: orders + orders[-1:]})
        with pytest.raises(MarketValidationError) as caught:
            parse_market(data)
        assert str(caught.value) == "copy_indexing of f1 repeats an order"

    def test_explicit_rejects_repeats(self, reference_market):
        orders = decompose(reference_market.choice_functions[0])
        data = serialize_market(reference_market, {0: orders[:1] * 2})
        with pytest.raises(MarketValidationError) as caught:
            parse_market(data)
        assert str(caught.value) == "copy_indexing of f1 repeats an order"


class TestDecomposeEdges:
    def test_single_order_function_decomposes_to_itself(self):
        order = LinearOrder((1, 0))
        cf = ChoiceFunction.from_orders((order,), 2)
        assert decompose(cf) == [order]

    def test_non_path_independent_input_rejected(self):
        cf = ChoiceFunction.from_table(TABLE_BOTH_FAIL, 2)
        with pytest.raises(AxiomViolationError) as exc:
            decompose(cf)
        assert exc.value.report is not None
        assert not exc.value.report.passed

    def test_order_cap_enforced(self, reference_market):
        caps = Caps(max_workers=16, max_orders=3, max_candidates=10**6)
        with pytest.raises(CapExceededError):
            decompose(reference_market.choice_functions[0], caps=caps)

    def test_all_empty_function_yields_single_empty_order(self):
        cf = ChoiceFunction.from_orders((), 2)
        assert decompose(cf) == [LinearOrder(())]


class TestRecompose:
    def test_union_of_maxima(self):
        orders = (LinearOrder((0, 1, 2)), LinearOrder((0, 2, 1)))
        cf = ChoiceFunction.from_orders(orders, 3)
        assert cf.choose(0b111) == 0b001
        assert cf.choose(0b110) == 0b110

    def test_no_orders_means_no_hires(self):
        cf = ChoiceFunction.from_orders((), 2)
        assert all(cf.choose(m) == 0 for m in range(4))

    def test_duplicates_work(self):
        order = LinearOrder((0,))
        cf = ChoiceFunction.from_orders((order, order), 1)
        assert cf.choose(1) == 1

    def test_decomposition_type_rejects_duplicates(self):
        # the copy market is the one gate every family passes
        order = LinearOrder((0,))
        cf = ChoiceFunction.from_orders((order,), 1)
        market = ManyToOneMarket(("w",), ("A",), (cf,), ((0,),))
        with pytest.raises(MarketValidationError) as caught:
            OneToOneMarket(market, ((order, order),))
        assert str(caught.value) == "decomposition lists an order twice"

    def test_decomposition_type_checks_every_firm(self, reference_market):
        first, second = decompose_market(reference_market)
        with pytest.raises(MarketValidationError) as caught:
            OneToOneMarket(reference_market, (first, second + second[:1]))
        assert str(caught.value) == "decomposition lists an order twice"
        # equal orders in two firms' families are not a repeat
        assoc = OneToOneMarket(reference_market, (first, first))
        assert assoc.per_firm == (first, first)


class TestVerify:
    def test_accepts_exact_family(self, reference_market):
        cf = reference_market.choice_functions[0]
        assert verify_decomposition(cf, tuple(decompose(cf))).passed

    def test_partial_family_fails_with_smallest_menu_witness(self, reference_market):
        cf = reference_market.choice_functions[0]
        first = decompose(cf)[0]  # lexicographic first: w1,w2,w3,w4
        report = verify_decomposition(cf, (first,))
        assert not report.passed
        # scan is by ascending menu mask; the first disagreement is {w1,w2},
        # where the single order picks only w1 but the firm hires both
        assert report.witness == {"menu": 0b0011, "expected": 0b0011, "actual": 0b0001}

    def test_empty_family_verifies_empty_function(self):
        cf = ChoiceFunction.from_orders((), 2)
        assert verify_decomposition(cf, ()).passed

    def test_sorted_pass_matches_the_menu_scan(self):
        # seeded families: exact decompositions of order unions and broken
        # copies of them, checked against their own function and against a
        # random table, so that failing witnesses are compared too; k = 8
        # and 9 sit on either side of the first byte-lane boundary of the
        # menu sets
        for seed in range(170):
            rng = random.Random(seed)
            k = rng.randint(1, 6) if seed < 150 else 8 + seed % 2
            # past k = 6, unions of more than two orders decompose into thousands
            most = 4 if k <= 6 else 2
            cf = ChoiceFunction.from_orders(
                tuple({random_order(rng, k) for _ in range(rng.randint(1, most))}), k
            )
            table = ChoiceFunction.from_table(
                (0,) + tuple(rng.randrange(1 << k) & m for m in range(1, 1 << k)), k
            )
            for name, family in family_variants(decompose(cf), k, rng).items():
                for target in (cf, table):
                    expected = scan_verify(target, tuple(family))
                    actual = verify_decomposition(target, tuple(family))
                    assert actual == expected, (seed, name, target.kind)


def walked(cf):
    """The family ``decompose`` walks, and the menu graph it records."""
    picks = {}
    return tuple(decompose(cf, picks=picks)), picks


def corrupted_walk(entries, k):
    """The family walked over any table, with the path-independence gate
    bypassed, and the menu graph the walk records."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            decomposition,
            "check_path_independence",
            lambda cf, caps: AxiomReport("path-independence", True),
        )
        return walked(ChoiceFunction.from_table(entries, k))


def choose_dropping_a_pick(choose):
    """``ChoiceFunction.choose`` with the lowest pick dropped from the full
    menu's choice."""

    def dropped(cf, menu):
        chosen = choose(cf, menu)
        return chosen & (chosen - 1) if menu == (1 << cf.universe_size) - 1 else chosen

    return dropped


class TestVerifyWalk:
    """The check on the walk's menu graph reports what the check down the
    walked family's orders does, verdict and witness."""

    @given(order_unions())
    @settings(max_examples=100, deadline=None)
    def test_order_unions_and_their_tables(self, cf):
        for target in (cf, canonicalize(cf)):
            orders, picks = walked(target)
            report = verify_walk(target, picks)
            assert report == verify_decomposition(target, orders)
            assert report.passed

    def test_reference_and_generated_markets(self, reference_market):
        firms = list(reference_market.choice_functions)
        for k in (0, 1):
            for orders in ((), (LinearOrder(()),), (LinearOrder(tuple(range(k))),)):
                firms.append(ChoiceFunction.from_orders(orders, k))
        for k in range(3, 10):
            for seed in range(3 if k < 9 else 1):
                market = random_market(
                    GenParams(workers=k, firms=3, max_orders=3, density=0.8, seed=seed)
                )
                firms += market.choice_functions
        total = 0
        for cf in firms:
            orders, picks = walked(cf)
            assert verify_walk(cf, picks) == verify_decomposition(cf, orders)
            total += len(orders)
        assert total > 3000

    def test_graph_records_every_reached_menu_once(self, reference_market):
        cf = reference_market.choice_functions[0]
        orders, picks = walked(cf)
        reached = {(1 << cf.universe_size) - 1}
        for order in orders:
            menu = (1 << cf.universe_size) - 1
            for w in order.ranking:
                menu ^= 1 << w
                reached.add(menu)
        assert picks == {menu: cf.choose(menu) for menu in reached}

    def test_universe_cap_enforced(self, reference_market):
        cf = reference_market.choice_functions[0]
        _, picks = walked(cf)
        with pytest.raises(CapExceededError):
            verify_walk(cf, picks, Caps(max_workers=cf.universe_size - 1))

    def test_walks_over_tables_that_are_not_path_independent(self):
        # the identity the check rests on holds for any walk; a union of
        # orders is path independent, so no family recomposes such a table,
        # and both checks fail it with the same witness
        tried = 0
        for seed in range(200):
            rng = random.Random(seed)
            k = rng.randint(1, 6)
            entries = (0,) + tuple(rng.randrange(1 << k) & m for m in range(1, 1 << k))
            table = ChoiceFunction.from_table(entries, k)
            if check_path_independence(table).passed:
                continue
            orders, picks = corrupted_walk(entries, k)
            report = verify_walk(table, picks)
            assert report == verify_decomposition(table, orders) == scan_verify(
                table, orders
            ), seed
            assert not report.passed, seed
            tried += 1
        assert tried >= 140

    def test_walks_with_one_pick_flipped(self):
        # one worker toggled in the choice read at one reached menu; at the
        # full menu, which no other edge covers, the family always fails
        failures = 0
        for seed in range(200):
            rng = random.Random(seed)
            k = rng.randint(1, 6)
            cf = ChoiceFunction.from_orders(
                tuple({random_order(rng, k) for _ in range(rng.randint(1, 3))}), k
            )
            _, clean = walked(cf)
            full = (1 << k) - 1
            menu = full if seed % 2 else rng.choice(sorted(clean))
            if not menu:
                continue
            entries = list(canonicalize(cf).table)
            entries[menu] ^= 1 << rng.choice(list(iter_indices(menu)))
            orders, picks = corrupted_walk(entries, k)
            report = verify_walk(cf, picks)
            assert report == verify_decomposition(cf, orders) == scan_verify(
                cf, orders
            ), seed
            if menu == full:
                assert not report.passed, seed
            failures += not report.passed
        assert failures >= 120

    def test_decompose_market_raises_the_mismatch(self, monkeypatch):
        # an orders firm's walk asks choose; with one pick dropped the
        # family no longer recomposes, and the error names the lowest
        # failing menu
        market = random_market(GenParams(workers=5, firms=2, max_orders=2, seed=3))
        dropped = choose_dropping_a_pick(ChoiceFunction.choose)
        monkeypatch.setattr(ChoiceFunction, "choose", dropped)
        cf = market.choice_functions[0]
        report = verify_decomposition(cf, tuple(decompose(cf)))
        assert not report.passed
        message = (
            f"orders for firm {market.firms[0]} do not recompose its choice "
            f"function (witness {report.witness})"
        )
        for build in (decompose_market, build_associated_market):
            with pytest.raises(DecompositionMismatchError) as caught:
                build(market)
            assert str(caught.value) == message


class TestRoundTrips:
    @given(order_unions())
    @settings(max_examples=100, deadline=None)
    def test_decompose_then_recompose_is_identity(self, cf):
        orders = decompose(cf)
        rebuilt = ChoiceFunction.from_orders(orders, cf.universe_size)
        for menu in range(1 << cf.universe_size):
            assert rebuilt.choose(menu) == cf.choose(menu)

    @given(order_unions())
    @settings(max_examples=100, deadline=None)
    def test_decomposition_always_verifies(self, cf):
        assert verify_decomposition(cf, tuple(decompose(cf))).passed

    @given(order_unions(), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_explicit_reindexing_round_trips(self, cf, rng):
        shuffled = decompose(cf)
        rng.shuffle(shuffled)
        k = cf.universe_size
        market = ManyToOneMarket(
            tuple(f"w{i}" for i in range(1, k + 1)), ("A",), (cf,), ((0,),) * k
        )
        doc = parse_market(serialize_market(market, {0: shuffled}))
        assert doc.copy_indexing == {0: tuple(shuffled)}


class TestWalkMatchesTreeWalk:
    """The per-menu walk against the recursive walk, order for order."""

    @given(order_unions())
    @settings(max_examples=100, deadline=None)
    def test_order_unions_and_their_tables(self, cf):
        expected = tree_walk(cf)
        assert decompose(cf) == expected
        assert decompose(canonicalize(cf)) == expected

    def test_subset_rankings(self, reference_market):
        firms = list(reference_market.choice_functions)
        firms += path_independent_subset_rankings()
        for cf in firms:
            assert decompose(cf) == tree_walk(cf)

    def test_large_families(self):
        sizes = []
        for cf in large_family_firms():
            found = decompose(cf)
            assert found == tree_walk(cf)
            sizes.append(len(found))
        assert sum(sizes) > 5000

    @pytest.mark.parametrize("k", [0, 1])
    def test_smallest_universes(self, k):
        for orders in ((), (LinearOrder(()),), (LinearOrder(tuple(range(k))),)):
            cf = ChoiceFunction.from_orders(orders, k)
            assert decompose(cf) == tree_walk(cf) == decompose(canonicalize(cf))


def table_menu_sets(cf):
    """Oracle for an ``orders`` function's menu sets: its table, built
    through ``choose`` menu by menu, then transposed."""
    k = cf.universe_size
    return member_sets([cf.choose(m) for m in range(1 << k)], k)


class TestOrdersMenuSets:
    """An ``orders`` function's menu sets, read from its orders, equal the
    transposed table."""

    @given(order_unions())
    @settings(max_examples=100, deadline=None)
    def test_order_unions(self, cf):
        assert cf._menu_sets == table_menu_sets(cf)

    def test_families_of_walked_orders(self, reference_market):
        firms = [
            ChoiceFunction.from_orders(decompose(cf), cf.universe_size)
            for cf in list(reference_market.choice_functions)
            + path_independent_subset_rankings()
        ]
        firms += large_family_firms()
        for cf in firms:
            assert cf._menu_sets == table_menu_sets(cf)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_empty_rankings_and_families(self, k):
        families = [(), (LinearOrder(()),), (LinearOrder(()), LinearOrder((0,) * (k > 0)))]
        for orders in families:
            cf = ChoiceFunction.from_orders(orders, k)
            assert cf._menu_sets == table_menu_sets(cf)


class TestOrderCap:
    @pytest.mark.parametrize("firm", ["reference", "large"])
    def test_cap_at_the_family_size(self, firm, reference_market):
        if firm == "reference":
            cf = reference_market.choice_functions[0]
        else:
            cf = large_family_firms()[1]
        expected = tree_walk(cf)
        n = len(expected)
        assert decompose(cf, Caps(max_orders=n)) == expected
        with pytest.raises(CapExceededError) as caught:
            decompose(cf, Caps(max_orders=n - 1))
        assert str(caught.value) == f"decomposition exceeds {n - 1} distinct orders"

    def test_whole_menu_table_refuses_without_building_an_order(self, monkeypatch):
        # C(m) = m has |m|! orders below menu m: 40,320 at k = 8
        built = []

        def counting(ranking):
            built.append(ranking)
            return LinearOrder(ranking)

        monkeypatch.setattr(decomposition, "LinearOrder", counting)
        cf = ChoiceFunction.from_table(range(1 << 8), 8)
        with pytest.raises(CapExceededError) as caught:
            decompose(cf)
        assert str(caught.value) == "decomposition exceeds 5040 distinct orders"
        assert built == []
        # within the cap the same walk builds each order once
        small = ChoiceFunction.from_table(range(1 << 4), 4)
        assert len(decompose(small, Caps(max_orders=24))) == len(built) == 24


class _NoOrdersTable:
    """Stands in for ``ChoiceFunction._full_table``: fails for an ``orders``
    function and builds the table as before for any other."""

    def __init__(self, original):
        self.original = original

    def __get__(self, obj, owner=None):
        if obj is not None and obj.kind == ORDERS:
            raise AssertionError("built the 2**k table of an orders function")
        return self.original.__get__(obj, owner)

    def __set__(self, obj, value):
        raise AssertionError("wrote ChoiceFunction._full_table")


@pytest.mark.parametrize(
    "params",
    [
        GenParams(workers=9, firms=3, max_orders=3, density=0.8, seed=1),
        GenParams(workers=16, firms=4, max_orders=1, density=0.5, seed=2),
    ],
    ids=["k9", "k16"],
)
def test_copy_level_commands_build_no_table_for_orders_firms(
    params, tmp_path, monkeypatch, capsys
):
    # an orders firm's walk asks choose on the menus it reaches, and its
    # family is verified against menu sets read from its orders; validate
    # and verify still build the table of a firm of more than one order,
    # for the law of aggregate demand, and of no single-order firm
    market = random_market(params)
    path = str(tmp_path / "orders.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_market(MarketDocument(market)))
    original = ChoiceFunction.__dict__["_full_table"]
    monkeypatch.setattr(ChoiceFunction, "_full_table", _NoOrdersTable(original))
    assoc = build_associated_market(market, decompose_market(market))
    copies_propose(assoc)
    workers_propose(assoc)
    for argv in (["decompose"], ["solve"], ["solve", "--proposing", "copies"]):
        assert main([argv[0], path, *argv[1:]]) == 0
    if all(len(cf.orders) == 1 for cf in market.choice_functions):
        assert main(["validate", path]) == 0
    else:
        with pytest.raises(AssertionError, match="2\\*\\*k table"):
            main(["validate", path])
    capsys.readouterr()
