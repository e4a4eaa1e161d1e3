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
    LinearOrder,
    ManyToOneMarket,
    MarketValidationError,
    OneToOneMarket,
    decompose,
    decompose_market,
    parse_market,
    serialize_market,
    verify_decomposition,
)

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
