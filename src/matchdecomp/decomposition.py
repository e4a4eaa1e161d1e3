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
the orders' picks on every one of the ``2**k`` menus, by comparing the
family's picks with the function's menu sets (bit ``m`` of worker ``w``'s
set is on when ``w`` is in ``C(m)``).  One routine reads every family's
picks, :func:`~matchdecomp.bitsets.graph_sets`, from a menu graph: the
picks on each menu reached from the full one, each edge ``(M, w)``
picking ``w`` on every menu inside ``M`` that holds it.  An ``orders``
function's menu sets come from its own orders the same way, so no check
builds a table for it.

* ``verify_walk`` reads the graph a walk records, the reached menus and
  the choice read on each, without reading an order.
* ``verify_decomposition`` checks any family, whatever produced it, on
  the graph its orders lay down, each a path from the full menu
  (:func:`~matchdecomp.bitsets.prefix_graph`).

Both give the same report on a walked family, witness included.
``decompose_market`` returns one family per firm as a plain tuple, ready
to be the ``per_firm`` argument of
:class:`~matchdecomp.association.OneToOneMarket`, and is where every
family of a copy market is checked, once: a walked family on its walk's
graph, an explicit one (a market file's copy indexing, already matched
against the walk in :func:`~matchdecomp.io.parse_market`) down its
orders.
"""

from __future__ import annotations

from .bitsets import graph_sets, mask_of, prefix_graph
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
        # a pick sequence removes each worker it picks from the menu, so it
        # repeats none, and every pick is a bit of the menu: no order needs
        # LinearOrder's two refusals
        trusted = LinearOrder._trusted
        return [trusted(ranking) for ranking in walk((1 << cf.universe_size) - 1)]
    finally:
        # walk holds itself through its closure, so without this the memo
        # would stay alive until the cyclic collector found the pair
        suffixes.clear()


def verify_walk(
    cf: ChoiceFunction, picks: dict[int, int], caps: Caps = DEFAULT_CAPS
) -> AxiomReport:
    """Check the family walked over the menu graph ``picks`` against ``cf``.

    ``picks`` is what :func:`decompose` records: every menu the walk
    reached, with the choice it read there.  Every order of the family is
    a path down that graph from the full menu, and every such path is an
    order, so the family's picks are the graph's
    (:func:`~matchdecomp.bitsets.graph_sets`), read without a pass over
    any order.  A menu the full menu cannot reach adds nothing, and
    neither does a pick outside its menu.  The report, witness included,
    is the one :func:`verify_decomposition` gives on the walked family.
    """
    k = cf.universe_size
    require_universe(k, caps)
    return _compare(cf, graph_sets(picks, k))


def verify_decomposition(
    cf: ChoiceFunction, orders: tuple[LinearOrder, ...], caps: Caps = DEFAULT_CAPS
) -> AxiomReport:
    """Check that the union of the orders' maxima equals ``cf`` menu by menu.

    The orders are laid on one menu graph, each as a path from the full
    menu (:func:`~matchdecomp.bitsets.prefix_graph`), whose picks are read
    as :func:`verify_walk` reads a walk's.  The family is read as a set
    of orders, so their order in the family, repeats, empty orders,
    orders that are prefixes of others and workers outside the universe
    change nothing.  The picks are then compared with the function's menu
    sets (bit ``m`` of worker ``w``'s set is on when ``w`` is in
    ``C(m)``).  On a failure the witness is the smallest menu mask where
    the union differs, as a menu-by-menu scan would find, and its
    expected value is read through ``choose``.
    """
    k = cf.universe_size
    require_universe(k, caps)
    rankings = (order.ranking for order in orders)
    return _compare(cf, graph_sets(prefix_graph(rankings, k), k))


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
    A firm in ``explicit`` keeps that family as given and is checked down
    its orders (:func:`verify_decomposition`).  Every other firm is
    walked, and its family is checked on the walk's menu graph
    (:func:`verify_walk`).  So every family returned has been checked
    once; one that does not recompose its firm's choice function raises
    DecompositionMismatchError.
    """
    explicit = explicit or {}
    families = []
    for f, cf in enumerate(market.choice_functions):
        if f in explicit:
            family = tuple(explicit[f])
            report = verify_decomposition(cf, family, caps)
        else:
            picks: dict[int, int] = {}
            family = tuple(decompose(cf, caps, picks))
            report = verify_walk(cf, picks, caps)
        require_recomposition(market, f, report)
        families.append(family)
    return tuple(families)
