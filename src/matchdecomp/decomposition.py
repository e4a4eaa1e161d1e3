"""Splitting a path-independent choice function into linear orders.

Any path-independent ``C`` equals a union of maximizations: there is a
family of linear orders ``P_1 .. P_J`` with ``C(S)`` the union of each
order's best worker in ``S`` (the classical Aizerman-Malishevski form).

``decompose`` builds that family constructively: every maximal pick
sequence, starting from the full universe and removing one currently
chosen worker at a time, read as a preference list, is one order of the
family.  Workers never picked along a sequence are unacceptable in its
order.  The sequences that continue from a menu depend on that menu
alone, so the walk visits each reachable menu once and builds its list
of suffix rankings once; a parent puts its pick in front of each of its
child's suffixes.  A family within the order cap has at most the cap's
count of suffixes at each of the ``k + 1`` depths, so a walk that builds
more than ``k + 1`` times the cap refuses before it builds any order.  An
``orders`` function is asked through ``choose`` on the menus the walk
reaches, and no ``2**k`` table is built for it.  The inverse direction,
the union of an order family, is ``ChoiceFunction.from_orders``.

``verify_decomposition`` checks that identity for a family, whatever
produced it, by comparing the family's picks over all ``2**k`` menus,
from one sorted pass down its rankings
(:func:`~matchdecomp.bitsets.maxima_sets`), with the function's menu
sets.  An ``orders`` function's menu sets come from the same pass over
its own orders, so checking a family of it builds no table either.  The
check reads the family as a set of orders, so its result does not depend
on their order in the family.

``decompose_market`` returns one family per firm as a plain tuple, ready
to be the ``per_firm`` argument of
:class:`~matchdecomp.association.OneToOneMarket`.  A market file's copy
indexing is matched against the walk where the file is read, in
:func:`~matchdecomp.io.parse_market`.
"""

from __future__ import annotations

from .bitsets import mask_of, maxima_sets
from .caps import DEFAULT_CAPS, Caps, require_universe
from .choices import (
    ORDERS,
    AxiomReport,
    ChoiceFunction,
    LinearOrder,
    check_path_independence,
)
from .errors import AxiomViolationError, CapExceededError
from .markets import ManyToOneMarket


def decompose(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> list[LinearOrder]:
    """All distinct orders realizable by maximal pick sequences of ``cf``.

    The result is sorted lexicographically by worker index sequence.
    Raises AxiomViolationError when ``cf`` is not path independent and
    CapExceededError when more than ``caps.max_orders`` distinct orders
    appear; a refusal builds no order.  The result is not verified against
    ``cf`` here: :func:`~matchdecomp.association.build_associated_market`
    verifies every family once, whatever produced it.

    The pick sequences that continue from a menu depend on the menu alone,
    not on how it was reached, so the walk builds each reached menu's list
    of suffix rankings once: for each pick in ascending worker order, the
    pick in front of each of the child menu's suffixes.  No suffix of a
    menu is a prefix of another, so every list comes out sorted.  A table
    or subset-ranking function is read from the table its
    path-independence pass built; an ``orders`` function is asked through
    ``choose`` on the menus the walk reaches, so no ``2**k`` table is
    built for it.

    The cap binds before the family is built.  Suffixes of distinct menus
    at one depth extend to distinct orders, so a family within the cap
    has at most ``caps.max_orders`` suffixes at each of the ``k + 1``
    depths.  A walk that builds more than ``(k + 1) * caps.max_orders``
    suffixes in all, or more than ``caps.max_orders`` for one menu, is
    refused at once, which keeps time and memory within ``O(k)`` times
    the cap.
    """
    pi = check_path_independence(cf, caps)
    if not pi.passed:
        raise AxiomViolationError(
            "decomposition requires a path-independent choice function", pi
        )
    choose = cf.choose if cf.kind == ORDERS else cf._full_table.__getitem__
    max_orders = caps.max_orders
    budget = (cf.universe_size + 1) * max_orders
    built = 0
    suffixes: dict[int, list[tuple[int, ...]]] = {}

    def walk(menu: int) -> list[tuple[int, ...]]:
        nonlocal built
        chosen = choose(menu)
        if not chosen:
            return [()]
        found: list[tuple[int, ...]] = []
        while chosen:
            low = chosen & -chosen
            chosen ^= low
            child = menu ^ low
            rest = suffixes.get(child)
            if rest is None:
                rest = suffixes[child] = walk(child)
            pick = (low.bit_length() - 1,)
            found += [pick + suffix for suffix in rest]
        built += len(found)
        if len(found) > max_orders or built > budget:
            raise CapExceededError(f"decomposition exceeds {max_orders} distinct orders")
        return found

    try:
        return [LinearOrder(ranking) for ranking in walk((1 << cf.universe_size) - 1)]
    finally:
        # walk holds itself through its closure, so without this the memo
        # would stay alive until the cyclic collector found the pair
        suffixes.clear()


def verify_decomposition(
    cf: ChoiceFunction, orders: tuple[LinearOrder, ...], caps: Caps = DEFAULT_CAPS
) -> AxiomReport:
    """Check that the union of the orders' maxima equals ``cf`` menu by menu.

    The family's picks over all ``2**k`` menus come from one sorted pass,
    :func:`~matchdecomp.bitsets.maxima_sets`, which reads the family as a
    set of orders, so their order in the family does not change the
    result.  Duplicate orders, empty orders, orders that are prefixes of
    others and workers outside the universe need no special case.  The
    picks are then compared with the function's menu sets (bit ``m`` of
    worker ``w``'s set is on when ``w`` is in ``C(m)``), k big-int
    operations in all; an ``orders`` function's own menu sets come from
    the same pass over its orders, with no ``2**k`` table.  On a failure
    the witness is the smallest menu mask where the union differs, as a
    menu-by-menu scan would find, and its expected value is read through
    ``choose``.
    """
    k = cf.universe_size
    require_universe(k, caps)
    picked = maxima_sets((order.ranking for order in orders), k)
    diff = 0
    for got, want in zip(picked, cf._menu_sets):
        diff |= got ^ want
    if not diff:
        return AxiomReport("decomposition", True)
    menu = (diff & -diff).bit_length() - 1
    actual = mask_of(w for w in range(k) if picked[w] >> menu & 1)
    return AxiomReport(
        "decomposition",
        False,
        {"menu": menu, "expected": cf.choose(menu), "actual": actual},
    )


def decompose_market(
    market: ManyToOneMarket,
    explicit: dict[int, tuple[LinearOrder, ...]] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[tuple[LinearOrder, ...], ...]:
    """Every firm's order family, keeping an explicit per-firm copy indexing.

    Entry ``i`` is firm ``i``'s family; its order ``j`` is copy ``j + 1``.
    A firm in ``explicit`` keeps that family as given and is not walked:
    it is a market file's ``copy_indexing``, which ``parse_market`` has
    already matched against the walk.  Nothing is verified here;
    :func:`~matchdecomp.association.build_associated_market` verifies every
    family, explicit or walked.
    """
    explicit = explicit or {}
    return tuple(
        tuple(explicit[i] if i in explicit else decompose(cf, caps=caps))
        for i, cf in enumerate(market.choice_functions)
    )
