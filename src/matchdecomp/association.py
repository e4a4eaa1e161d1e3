"""The one-to-one market associated with a decomposed many-to-one market.

The market holds one family of linear orders per firm, and each order
becomes a separate "copy" of that firm, hiring a single worker according
to that order: a copy is its order, its firm and its 1-based number in
the family.  Worker preferences are lifted to copies under two
structural rules:

1. firms keep their relative order: every copy of a preferred firm ranks
   above every copy of a less preferred firm;
2. within one firm, copies are ranked by ascending copy number.

Copies of firms a worker finds unacceptable do not appear in the lifted
list at all.  Copies, their firms, labels and lifted lists are derived
from the families alone, so both rules hold by construction.

Every copy-level decision between siblings rests on one rule: a copy's
*pick* from a set of workers is its best worker there by its own order.
``OneToOneMarket.copy_above`` is that rule's one home.  ``copy_above[c][w]``
is the mask of workers copy ``c`` ranks above ``w``, or every bit (``-1``)
when ``c`` does not rank ``w``, so ``c`` picks ``w`` from a menu ``S``
holding ``w`` exactly when ``not S & copy_above[c][w]``: one mask test,
however long the order.  The deferred acceptance runs, the stability
checkers and the copy-stable enumerator all decide picks this way.

The two maps between the market forms live here too.  ``merge_matching``
collapses a one-to-one matching of the copies into a many-to-one matching:
each firm hires the union of what its copies hold.  ``split_matching`` goes
the other way: every worker a firm hires is seated on the lowest-numbered
copy that picks it from the hired set; remaining copies stay empty.
Splitting only works when each firm would actually choose its hired set,
otherwise some hired worker is no copy's pick and a FirmRationalityError
is raised.  The copy-stable enumerator lists each copy-stable matching as
the split image of a firm placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .bitsets import iter_indices
from .caps import DEFAULT_CAPS, Caps
from .choices import LinearOrder
from .decomposition import (
    decompose_market,
    require_recomposition,
    verify_decomposition,
)
from .errors import FirmRationalityError, MarketValidationError
from .markets import ManyToOneMarket
from .matchings import ManyToOneMatching, OneToOneMatching


@dataclass(frozen=True)
class OneToOneMarket:
    """The copy market of ``source`` under the order families ``per_firm``.

    ``per_firm[f][j]`` is firm ``f``'s copy number ``j + 1``; copy numbers
    are 1-based everywhere user-facing.  Copies are numbered firm by firm,
    so ``copies`` is the flat tuple of every family's orders.  Use
    :func:`build_associated_market` to get one: it verifies that each
    firm's family recomposes to its choice function, which this class
    does not check.
    """

    source: ManyToOneMarket
    per_firm: tuple[tuple[LinearOrder, ...], ...]

    def __post_init__(self):
        if len(self.per_firm) != len(self.source.firms):
            raise MarketValidationError("decomposition covers a different firm count")
        # every family passes here, whatever built it; a walked one cannot
        # repeat or leave the market, and checking it costs one set and
        # one max per order, on the rankings, which hash in C
        k = len(self.source.workers)
        ranking = attrgetter("ranking")
        for firm, orders in zip(self.source.firms, self.per_firm):
            rankings = list(map(ranking, orders))
            if len(set(rankings)) != len(rankings):
                raise MarketValidationError("decomposition lists an order twice")
            # an empty ranking has no max
            top = max(map(max, filter(None, rankings)), default=-1)
            if top >= k:
                raise MarketValidationError(
                    f"decomposition of {firm} ranks worker index {top}, outside "
                    f"the market's {k} workers"
                )

    @cached_property
    def copies(self) -> tuple[LinearOrder, ...]:
        return tuple(order for orders in self.per_firm for order in orders)

    @cached_property
    def copies_by_firm(self) -> tuple[tuple[int, ...], ...]:
        groups, start = [], 0
        for orders in self.per_firm:
            groups.append(tuple(range(start, start + len(orders))))
            start += len(orders)
        return tuple(groups)

    @cached_property
    def worker_prefs(self) -> tuple[tuple[int, ...], ...]:
        groups = self.copies_by_firm
        return tuple(
            tuple(c for f in prefs for c in groups[f])
            for prefs in self.source.worker_prefs
        )

    @cached_property
    def firm_of_copy(self) -> tuple[int, ...]:
        return tuple(f for f, orders in enumerate(self.per_firm) for _ in orders)

    @cached_property
    def copy_labels(self) -> tuple[str, ...]:
        return tuple(
            f"{label}.{j}"
            for label, orders in zip(self.source.firms, self.per_firm)
            for j in range(1, len(orders) + 1)
        )

    @cached_property
    def copy_index(self) -> dict[str, int]:
        return {label: c for c, label in enumerate(self.copy_labels)}

    # Rank tables for the hot loops.  Position in the list is the rank;
    # staying unmatched ranks just past the end; unacceptable partners rank
    # one further still, so plain integer comparison encodes the whole
    # better-than relation including the empty option.

    @cached_property
    def worker_rank(self) -> tuple[tuple[int, ...], ...]:
        n_copies = len(self.copies)
        rows = []
        for lifted in self.worker_prefs:
            row = [len(lifted) + 1] * n_copies
            for pos, c in enumerate(lifted):
                row[c] = pos
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def worker_empty_rank(self) -> tuple[int, ...]:
        return tuple(len(lifted) for lifted in self.worker_prefs)

    @cached_property
    def copy_rank(self) -> tuple[tuple[int, ...], ...]:
        k = len(self.source.workers)
        rows = []
        for order in self.copies:
            row = [len(order.ranking) + 1] * k
            for pos, w in enumerate(order.ranking):
                row[w] = pos
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def copy_empty_rank(self) -> tuple[int, ...]:
        return tuple(len(order.ranking) for order in self.copies)

    @cached_property
    def copy_above(self) -> tuple[tuple[int, ...], ...]:
        """``copy_above[c][w]``: the workers copy ``c`` ranks above ``w``.

        ``-1``, every bit, when ``c`` does not rank ``w``.  So ``c`` picks
        ``w`` from a menu ``S`` that holds ``w`` exactly when
        ``not S & copy_above[c][w]``; for a ``w`` outside ``S``, test
        ``S | 1 << w``, and an unranked worker is never picked.
        """
        k = len(self.source.workers)
        bits = [1 << w for w in range(k)]
        rows = []
        for order in self.copies:
            row = [-1] * k
            above = 0
            for w in order.ranking:
                row[w] = above
                above |= bits[w]
            rows.append(tuple(row))
        return tuple(rows)


def build_associated_market(
    market: ManyToOneMarket,
    per_firm: tuple[tuple[LinearOrder, ...], ...] | None = None,
    caps: Caps = DEFAULT_CAPS,
    explicit: dict[int, tuple[LinearOrder, ...]] | None = None,
) -> OneToOneMarket:
    """Assemble the copies over verified order families of the market.

    With ``per_firm=None`` the market is decomposed by
    :func:`~matchdecomp.decomposition.decompose_market`: a firm in
    ``explicit`` (a market file's ``copy_indexing``) keeps that family,
    and every other firm's copies are numbered lexicographically.
    ``explicit`` is read only then.  Supplied families may use any
    indexing and even a different (e.g. hand-built) order family.  Either
    way this verifies every family once: a walked one on its walk's menu
    graph, inside ``decompose_market``, and one handed in, explicit or in
    ``per_firm``, here, by ``verify_decomposition``.  It must recompose to
    the firm's choice function.
    """
    if per_firm is None:
        per_firm = decompose_market(market, explicit, caps)
        handed_in = sorted(explicit or ())  # the rest are checked already
    else:
        handed_in = range(len(per_firm))
    assoc = OneToOneMarket(market, per_firm)
    for f in handed_in:
        cf, orders = market.choice_functions[f], assoc.per_firm[f]
        require_recomposition(market, f, verify_decomposition(cf, orders, caps))
    return assoc


def merge_matching(
    assoc: OneToOneMarket, matching: OneToOneMatching
) -> ManyToOneMatching:
    """Union each firm's copy assignments into one many-to-one matching."""
    if matching.copy_count != len(assoc.copies):
        raise MarketValidationError("matching covers a different copy count")
    firm_of = assoc.firm_of_copy
    by_worker = tuple(
        None if c is None else firm_of[c] for c in matching.by_worker
    )
    return ManyToOneMatching(by_worker, len(assoc.source.firms))


def split_matching(
    assoc: OneToOneMarket, matching: ManyToOneMatching
) -> OneToOneMatching:
    """Distribute each firm's hired set over its copies.

    Worker ``w`` goes to the lowest-numbered copy of its firm that picks
    ``w`` from the firm's hired set, one ``copy_above`` test per copy
    tried.
    """
    source = assoc.source
    if matching.firm_count != len(source.firms):
        raise MarketValidationError("matching covers a different firm count")
    if len(matching.by_worker) != len(source.workers):
        raise MarketValidationError("matching covers a different worker count")
    above = assoc.copy_above
    by_worker: list[int | None] = [None] * len(source.workers)
    for f, hired in enumerate(matching.firm_masks):
        if hired == 0:
            continue
        group = assoc.copies_by_firm[f]
        for w in iter_indices(hired):
            for c in group:
                if not hired & above[c][w]:
                    by_worker[w] = c
                    break
            else:
                raise FirmRationalityError(
                    f"firm {source.firms[f]} would not choose its assigned set: "
                    f"no copy's best pick is {source.workers[w]}"
                )
    return OneToOneMatching(tuple(by_worker), len(assoc.copies))
