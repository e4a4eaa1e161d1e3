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

A family is checked against its function, ``C(S)`` equal to the union of
the orders' picks on every one of the ``2**k`` menus, in one of two
ways, and each comparison is with the function's menu sets (bit ``m`` of
worker ``w``'s set is on when ``w`` is in ``C(m)``).  An ``orders``
function's menu sets come straight from its own orders, so neither
check builds a table for it.

* ``verify_walk`` checks a walked family on the walk's menu graph: the
  reached menus and the choice read on each, which ``decompose``
  records on request.  An order picks ``w`` on menu ``S`` exactly when
  ``w`` is in ``S`` and ``S`` lies inside the menu the order had reached
  before ``w``, so the family's picks are read off the graph's edges,
  a few big-int operations per edge, without reading an order.
* ``verify_decomposition`` checks any family, whatever produced it, from
  one sorted pass down its rankings
  (:func:`~matchdecomp.bitsets.maxima_sets`).  It reads the family as a
  set of orders, so its result does not depend on their order in the
  family.

Both give the same report, witness included.  ``decompose_market``
returns one family per firm as a plain tuple, ready to be the
``per_firm`` argument of :class:`~matchdecomp.association.OneToOneMarket`,
and checks each family it walks on that walk's graph.  A market file's
copy indexing is matched against the walk where the file is read, in
:func:`~matchdecomp.io.parse_market`.
"""

from __future__ import annotations

from .bitsets import mask_of, maxima_sets, menu_sets
from .caps import DEFAULT_CAPS, Caps, require_universe
from .choices import (
    ORDERS,
    AxiomReport,
    ChoiceFunction,
    LinearOrder,
    check_path_independence,
)
from .errors import AxiomViolationError, CapExceededError, DecompositionMismatchError
from .markets import ManyToOneMarket


def decompose(
    cf: ChoiceFunction,
    caps: Caps = DEFAULT_CAPS,
    picks: dict[int, int] | None = None,
) -> list[LinearOrder]:
    """All distinct orders realizable by maximal pick sequences of ``cf``.

    The result is sorted lexicographically by worker index sequence.
    Raises AxiomViolationError when ``cf`` is not path independent and
    CapExceededError when more than ``caps.max_orders`` distinct orders
    appear; a refusal builds no order.  Nothing is verified here.  Given a
    dict as ``picks``, the walk fills it with its menu graph, ``picks[menu]
    = C(menu)`` for every menu it reaches, which :func:`verify_walk` checks
    the family on; :func:`decompose_market` does so for every family it
    walks.

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
    if picks is None:
        picks = {}
    max_orders = caps.max_orders
    budget = (cf.universe_size + 1) * max_orders
    built = 0
    suffixes: dict[int, list[tuple[int, ...]]] = {}

    def walk(menu: int) -> list[tuple[int, ...]]:
        nonlocal built
        chosen = picks[menu] = choose(menu)
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


def verify_walk(
    cf: ChoiceFunction, picks: dict[int, int], caps: Caps = DEFAULT_CAPS
) -> AxiomReport:
    """Check the family walked over the menu graph ``picks`` against ``cf``.

    ``picks`` is what :func:`decompose` records: every menu the walk
    reached, with the choice it read there.  An order of the family picks
    ``w`` on menu ``S`` exactly when ``w`` is in ``S`` and ``S`` lies inside
    ``M``, the menu the order had reached before it picked ``w``.  Every
    edge ``(M, w)`` with ``w`` in ``picks[M]`` lies on some order, so the
    family's picks are, for each worker ``w``, the union over those edges
    of ``sub(M) & has[w]``, where ``sub(M)`` is the menu set of the menus
    inside ``M``.  That is bit for bit what
    :func:`verify_decomposition` reads down the family's orders, so the
    report, witness included, is the same as its report on the walked
    family, at a few big-int operations per edge instead of a pass over
    every order.
    """
    k = cf.universe_size
    require_universe(k, caps)
    has = menu_sets(k)
    picked = [0] * k
    for menu, chosen in picks.items():
        if not chosen:
            continue
        # the menus inside menu, as a menu set: worker w's bit, 1 << w,
        # doubles the set by shifting it 1 << w menus up
        inside = 1
        while menu:
            low = menu & -menu
            menu ^= low
            inside |= inside << low
        while chosen:
            low = chosen & -chosen
            chosen ^= low
            w = low.bit_length() - 1
            picked[w] |= inside & has[w]
    return _compare(cf, picked)


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
    return _compare(cf, maxima_sets((order.ranking for order in orders), k))


def _compare(cf: ChoiceFunction, picked) -> AxiomReport:
    """The decomposition report for a family whose picks are ``picked``."""
    diff = 0
    for got, want in zip(picked, cf._menu_sets):
        diff |= got ^ want
    if not diff:
        return AxiomReport("decomposition", True)
    menu = (diff & -diff).bit_length() - 1
    actual = mask_of(w for w in range(cf.universe_size) if picked[w] >> menu & 1)
    return AxiomReport(
        "decomposition",
        False,
        {"menu": menu, "expected": cf.choose(menu), "actual": actual},
    )


def require_recomposition(market: ManyToOneMarket, f: int, report: AxiomReport) -> None:
    """Raise DecompositionMismatchError when firm ``f``'s family failed."""
    if not report.passed:
        raise DecompositionMismatchError(
            f"orders for firm {market.firms[f]} do not recompose its "
            f"choice function (witness {report.witness})"
        )


def decompose_market(
    market: ManyToOneMarket,
    explicit: dict[int, tuple[LinearOrder, ...]] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[tuple[LinearOrder, ...], ...]:
    """Every firm's order family, keeping an explicit per-firm copy indexing.

    Entry ``i`` is firm ``i``'s family; its order ``j`` is copy ``j + 1``.
    A firm in ``explicit`` keeps that family as given and is neither
    walked nor checked here: it is a market file's ``copy_indexing``,
    which ``parse_market`` has already matched against the walk, and
    :func:`~matchdecomp.association.build_associated_market` verifies it.
    Every other firm is walked, and its family is checked once, on the
    walk's menu graph (:func:`verify_walk`); a family that does not
    recompose its firm's choice function raises
    DecompositionMismatchError.
    """
    explicit = explicit or {}
    families = []
    for f, cf in enumerate(market.choice_functions):
        if f in explicit:
            families.append(tuple(explicit[f]))
            continue
        picks: dict[int, int] = {}
        families.append(tuple(decompose(cf, caps, picks)))
        require_recomposition(market, f, verify_walk(cf, picks, caps))
    return tuple(families)
