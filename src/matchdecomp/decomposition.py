"""Splitting a path-independent choice function into linear orders.

Any path-independent ``C`` equals a union of maximizations: there is a
family of linear orders ``P_1 .. P_J`` with ``C(S)`` the union of each
order's best worker in ``S`` (the classical Aizerman-Malishevski form).

``decompose`` builds that family constructively.  Starting from the full
universe it repeatedly picks one currently chosen worker, removes it, and
recurses; every maximal pick sequence, read as a preference list, is one
order of the family.  Workers never picked along a branch are unacceptable
in that branch's order.  ``recompose`` is the inverse direction and works
for any order family, path independent or not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .bitsets import bit, iter_indices, mask_of
from .caps import DEFAULT_CAPS, Caps, require_universe
from .choices import AxiomReport, ChoiceFunction, LinearOrder, check_path_independence
from .errors import (
    AxiomViolationError,
    CapExceededError,
    DecompositionMismatchError,
    MarketValidationError,
)
from .markets import ManyToOneMarket


class DuplicateOrderWarning(UserWarning):
    """Recomposing a family that lists the same order twice."""


@dataclass(frozen=True)
class Decomposition:
    """Per-firm order families for a whole market.

    ``per_firm[i][j]`` is firm ``i``'s copy number ``j + 1``; copy numbers
    are 1-based everywhere user-facing.
    """

    per_firm: tuple[tuple[LinearOrder, ...], ...]

    def __post_init__(self):
        for orders in self.per_firm:
            if len(set(orders)) != len(orders):
                raise MarketValidationError("decomposition lists an order twice")


def recompose(
    orders, universe_size: int, warn_duplicates: bool = True
) -> ChoiceFunction:
    """Union-of-orders choice function for an arbitrary order family."""
    orders = tuple(orders)
    if warn_duplicates and len(set(orders)) != len(orders):
        warnings.warn(
            "duplicate orders are redundant in a union", DuplicateOrderWarning
        )
    return ChoiceFunction.from_orders(orders, universe_size)


def decompose(
    cf: ChoiceFunction,
    explicit: tuple[LinearOrder, ...] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[LinearOrder]:
    """All distinct orders realizable by maximal pick sequences of ``cf``.

    The result is sorted lexicographically by worker index sequence, unless
    ``explicit`` supplies the desired indexing, in which case it is
    validated to be exactly the same set of orders and returned as given.
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

    if explicit is not None:
        explicit = tuple(explicit)
        if len(set(explicit)) != len(explicit):
            raise MarketValidationError("explicit copy indexing repeats an order")
        if set(explicit) != set(result):
            raise DecompositionMismatchError(
                "explicit copy indexing is not the decomposition order set"
            )
        return list(explicit)
    return result


def _order_trie(orders) -> dict:
    """Prefix trie of the orders' rankings: worker index -> subtrie."""
    root: dict = {}
    for order in orders:
        node = root
        for w in order.ranking:
            node = node.setdefault(w, {})
    return root


def _menus_choosing(table: tuple[int, ...], w: int) -> int:
    """The menus whose choice includes ``w``, as a bitset over menu masks."""
    bits = "".join("1" if chosen >> w & 1 else "0" for chosen in reversed(table))
    return int(bits, 2)


def verify_decomposition(
    cf: ChoiceFunction, orders: tuple[LinearOrder, ...], caps: Caps = DEFAULT_CAPS
) -> AxiomReport:
    """Check that the union of the orders' maxima equals ``cf`` menu by menu.

    Orders sharing a prefix pick alike on every menu that misses the
    prefix, and a decomposition's orders are pick sequences of one choice
    function, so they share long prefixes.  The family is therefore walked
    as a prefix trie, with all ``2**k`` menus going down it together as one
    bitset (bit ``m`` stands for menu ``m``): at an edge labelled ``w`` the
    menus containing ``w`` stop, with ``w`` as their pick on that branch,
    and the rest go on into the subtrie.  Each trie edge is visited once.
    Duplicate orders, empty orders and orders that are prefixes of others
    need no special case.  On a failure the witness is the smallest menu
    mask where the union differs, as a menu-by-menu scan would find.
    """
    k = cf.universe_size
    require_universe(k, caps)
    table = cf._full_table
    all_menus = (1 << len(table)) - 1
    # bit m of has[w] is set when menu m contains w: in each block of
    # 2**(w + 1) menus, the upper half.  A hand-built family may name
    # workers outside the universe; they are on no menu.
    has = {
        w: all_menus // ((1 << (2 << w)) - 1) * (((1 << (1 << w)) - 1) << (1 << w))
        for w in range(k)
    }
    picked = [0] * k  # the menus where some order's best worker is w
    stack = [(_order_trie(orders), all_menus)]
    while stack:
        node, menus = stack.pop()
        for w, child in node.items():
            present = menus & has.get(w, 0)
            if present:
                picked[w] |= present
            if child and present != menus:
                stack.append((child, menus ^ present))
    diff = 0
    for w in range(k):
        diff |= picked[w] ^ _menus_choosing(table, w)
    if not diff:
        return AxiomReport("decomposition", True)
    menu = (diff & -diff).bit_length() - 1
    actual = mask_of(w for w in range(k) if picked[w] >> menu & 1)
    return AxiomReport(
        "decomposition",
        False,
        {"menu": menu, "expected": table[menu], "actual": actual},
    )


def decompose_market(
    market: ManyToOneMarket,
    explicit: dict[int, tuple[LinearOrder, ...]] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> Decomposition:
    """Decompose every firm, keeping an explicit per-firm copy indexing.

    A firm in ``explicit`` keeps that family as given and is not walked:
    it is a market file's ``copy_indexing``, which ``parse_market`` has
    already matched against the walk.  Nothing is verified here;
    :func:`~matchdecomp.association.build_associated_market` verifies every
    family, explicit or walked.
    """
    explicit = explicit or {}
    per_firm = []
    for i, cf in enumerate(market.choice_functions):
        orders = explicit[i] if i in explicit else decompose(cf, caps=caps)
        per_firm.append(tuple(orders))
    return Decomposition(tuple(per_firm))
