"""Splitting a path-independent choice function into linear orders.

Any path-independent ``C`` equals a union of maximizations: there is a
family of linear orders ``P_1 .. P_J`` with ``C(S)`` the union of each
order's best worker in ``S`` (the classical Aizerman-Malishevski form).

``decompose`` builds that family constructively.  Starting from the full
universe it repeatedly picks one currently chosen worker, removes it, and
recurses; every maximal pick sequence, read as a preference list, is one
order of the family.  Workers never picked along a branch are unacceptable
in that branch's order.  The inverse direction, the union of an order
family, is ``ChoiceFunction.from_orders``.

``verify_decomposition`` checks that identity for a family, whatever
produced it, in one pass over the family's rankings in sorted order: all
menus go down a ranking together as one bitset, and a ranking starts
where it leaves the prefix it shares with the previous one, since the
menus that miss a shared prefix pick alike.  The check reads the family
as a set of orders, so its result does not depend on their order in the
family.

``decompose_market`` returns one family per firm as a plain tuple, ready
to be the ``per_firm`` argument of
:class:`~matchdecomp.association.OneToOneMarket`.  A market file's copy
indexing is matched against the walk where the file is read, in
:func:`~matchdecomp.io.parse_market`.
"""

from __future__ import annotations

from .bitsets import bit, iter_indices, mask_of, menu_sets
from .caps import DEFAULT_CAPS, Caps, require_universe
from .choices import AxiomReport, ChoiceFunction, LinearOrder, check_path_independence
from .errors import AxiomViolationError, CapExceededError
from .markets import ManyToOneMarket


def decompose(cf: ChoiceFunction, caps: Caps = DEFAULT_CAPS) -> list[LinearOrder]:
    """All distinct orders realizable by maximal pick sequences of ``cf``.

    The result is sorted lexicographically by worker index sequence.
    Raises AxiomViolationError when ``cf`` is not path independent and
    CapExceededError when more than ``caps.max_orders`` distinct orders
    appear.  The result is not verified against ``cf`` here:
    :func:`~matchdecomp.association.build_associated_market` verifies
    every family once, whatever produced it.
    """
    pi = check_path_independence(cf, caps)
    if not pi.passed:
        raise AxiomViolationError(
            "decomposition requires a path-independent choice function", pi
        )
    table = cf._full_table
    result: list[LinearOrder] = []
    max_orders = caps.max_orders

    # a pick sequence fixes the menu it leaves, so distinct leaves give
    # distinct orders, and none is a prefix of another: children taken in
    # ascending worker order reach the leaves already sorted
    def walk(remaining: int, prefix: list[int]) -> None:
        chosen = table[remaining]
        if not chosen:
            if len(result) >= max_orders:
                raise CapExceededError(
                    f"decomposition exceeds {max_orders} distinct orders"
                )
            result.append(LinearOrder(tuple(prefix)))
            return
        for w in iter_indices(chosen):
            prefix.append(w)
            walk(remaining & ~bit(w), prefix)
            prefix.pop()

    walk((1 << cf.universe_size) - 1, [])
    return result


def verify_decomposition(
    cf: ChoiceFunction, orders: tuple[LinearOrder, ...], caps: Caps = DEFAULT_CAPS
) -> AxiomReport:
    """Check that the union of the orders' maxima equals ``cf`` menu by menu.

    All ``2**k`` menus go down a ranking together as one bitset (bit ``m``
    stands for menu ``m``): at worker ``w`` the menus containing ``w`` stop,
    with ``w`` as their pick, and the rest go on.  Rankings that share a
    prefix pick alike on every menu that misses it, and a decomposition's
    orders, pick sequences of one function, share long prefixes.  Sorting
    puts those rankings next to each other, so the pass keeps, for each
    depth ``d``, the menus holding none of the previous ranking's first
    ``d`` workers, and starts each ranking after the prefix it shares with
    the previous one.  The picks are a union over the family, so the order
    of the family does not change them; sorting only shares the work.
    Duplicate orders, empty orders and orders that are prefixes of others
    need no special case.  The picks are then compared with the function's
    menu sets (bit ``m`` of worker ``w``'s set is on when ``w`` is in
    ``C(m)``), k big-int operations in all.  On a failure the witness is
    the smallest menu mask where the union differs, as a menu-by-menu scan
    would find.
    """
    k = cf.universe_size
    require_universe(k, caps)
    has = menu_sets(k)
    picked = [0] * k  # the menus where some order's best worker is w
    # left[d]: the menus holding none of the previous ranking's first d workers
    left = [(1 << (1 << k)) - 1]
    rankings = sorted(order.ranking for order in orders)
    for previous, ranking in zip([()] + rankings, rankings):
        shared = 0
        for a, b in zip(previous, ranking):
            if a != b:
                break
            shared += 1
        del left[shared + 1 :]
        menus = left[shared]
        for w in ranking[shared:]:
            # a hand-built family may name workers outside the universe,
            # which are on no menu
            if w < k:
                present = menus & has[w]
                picked[w] |= present
                menus ^= present
            left.append(menus)
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
        {"menu": menu, "expected": cf._full_table[menu], "actual": actual},
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
