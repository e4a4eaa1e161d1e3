"""The one-to-one market associated with a decomposed many-to-one market.

Each order of a firm's decomposition becomes a separate "copy" of that
firm, hiring a single worker according to that order.  Worker preferences
are lifted to copies under two structural rules:

1. firms keep their relative order: every copy of a preferred firm ranks
   above every copy of a less preferred firm;
2. within one firm, copies are ranked by ascending copy number.

Copies of firms a worker finds unacceptable do not appear in the lifted
list at all.  Copies and lifted lists are derived from the decomposition
alone, so both rules hold by construction.

The two maps between the market forms live here too.  ``merge_matching``
collapses a one-to-one matching of the copies into a many-to-one matching:
each firm hires the union of what its copies hold.  ``split_matching`` goes
the other way: every worker a firm hires is handed to the lowest-numbered
copy whose order ranks that worker highest within the hired set; remaining
copies stay empty.  Splitting only works when each firm would actually
choose its hired set, otherwise some hired worker is nobody's maximum and
a FirmRationalityError is raised.  The copy-stable enumerator lists each
copy-stable matching as the split image of a firm placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitsets import iter_indices
from .caps import DEFAULT_CAPS, Caps
from .choices import LinearOrder
from .decomposition import Decomposition, decompose_market, verify_decomposition
from .errors import (
    DecompositionMismatchError,
    FirmRationalityError,
    MarketValidationError,
)
from .markets import ManyToOneMarket
from .matchings import ManyToOneMatching, OneToOneMatching


@dataclass(frozen=True)
class FirmCopy:
    """One single-hire copy of a firm: its origin, 1-based number, and order."""

    firm: int
    number: int
    order: LinearOrder


@dataclass(frozen=True)
class OneToOneMarket:
    """The copy market of ``source`` under ``decomposition``.

    Use :func:`build_associated_market` to get one: it verifies that each
    firm's family recomposes to its choice function, which this class
    does not check.
    """

    source: ManyToOneMarket
    decomposition: Decomposition

    def __post_init__(self):
        if len(self.decomposition.per_firm) != len(self.source.firms):
            raise MarketValidationError("decomposition covers a different firm count")

    @cached_property
    def copies(self) -> tuple[FirmCopy, ...]:
        return tuple(
            FirmCopy(f, j, order)
            for f, orders in enumerate(self.decomposition.per_firm)
            for j, order in enumerate(orders, start=1)
        )

    @cached_property
    def copy_orders(self) -> tuple[LinearOrder, ...]:
        return tuple(copy.order for copy in self.copies)

    @cached_property
    def copies_by_firm(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in self.source.firms]
        for c, copy in enumerate(self.copies):
            groups[copy.firm].append(c)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def worker_prefs(self) -> tuple[tuple[int, ...], ...]:
        groups = self.copies_by_firm
        return tuple(
            tuple(c for f in prefs for c in groups[f])
            for prefs in self.source.worker_prefs
        )

    @cached_property
    def firm_of_copy(self) -> tuple[int, ...]:
        return tuple(copy.firm for copy in self.copies)

    @cached_property
    def copy_labels(self) -> tuple[str, ...]:
        return tuple(
            f"{self.source.firms[copy.firm]}.{copy.number}" for copy in self.copies
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
        for copy in self.copies:
            row = [len(copy.order.ranking) + 1] * k
            for pos, w in enumerate(copy.order.ranking):
                row[w] = pos
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def copy_empty_rank(self) -> tuple[int, ...]:
        return tuple(len(copy.order.ranking) for copy in self.copies)


def build_associated_market(
    market: ManyToOneMarket,
    decomposition: Decomposition | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> OneToOneMarket:
    """Assemble the copies over a verified decomposition of the market.

    With ``decomposition=None`` the market is decomposed with
    lexicographic copy numbers.  A supplied decomposition may use any
    indexing and even a different (e.g. hand-built) order family.  Either
    way each firm's family is verified here, once: it must recompose to
    the firm's choice function.
    """
    if decomposition is None:
        decomposition = decompose_market(market, caps=caps)
    assoc = OneToOneMarket(market, decomposition)
    for f, orders in enumerate(decomposition.per_firm):
        report = verify_decomposition(market.choice_functions[f], orders, caps)
        if not report.passed:
            raise DecompositionMismatchError(
                f"orders for firm {market.firms[f]} do not recompose its "
                f"choice function (witness {report.witness})"
            )
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

    Worker ``w`` goes to the lowest-numbered copy whose order picks ``w``
    as its best worker within the firm's hired set.
    """
    source = assoc.source
    if matching.firm_count != len(source.firms):
        raise MarketValidationError("matching covers a different firm count")
    if len(matching.by_worker) != len(source.workers):
        raise MarketValidationError("matching covers a different worker count")
    orders = assoc.copy_orders
    by_worker: list[int | None] = [None] * len(source.workers)
    for f, hired in enumerate(matching.firm_masks):
        if hired == 0:
            continue
        for c in assoc.copies_by_firm[f]:
            best = orders[c].best_in(hired)
            if best is not None and by_worker[best] is None:
                by_worker[best] = c
        for w in iter_indices(hired):
            if by_worker[w] is None:
                raise FirmRationalityError(
                    f"firm {source.firms[f]} would not choose its assigned set: "
                    f"no copy's best pick is {source.workers[w]}"
                )
    return OneToOneMatching(tuple(by_worker), len(assoc.copies))
