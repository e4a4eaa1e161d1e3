"""The one-to-one market associated with a decomposed many-to-one market.

Each order of a firm's decomposition becomes a separate "copy" of that
firm, hiring a single worker according to that order.  Worker preferences
are lifted to copies under two structural rules:

1. firms keep their relative order: every copy of a preferred firm ranks
   above every copy of a less preferred firm;
2. within one firm, copies are ranked by ascending copy number.

Copies of firms a worker finds unacceptable do not appear in the lifted
list at all.  Both rules are enforced at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .caps import DEFAULT_CAPS, Caps
from .choices import LinearOrder
from .decomposition import Decomposition, decompose_market, verify_decomposition
from .errors import DecompositionMismatchError, MarketValidationError
from .markets import ManyToOneMarket


@dataclass(frozen=True)
class FirmCopy:
    """One single-hire copy of a firm: its origin, 1-based number, and order."""

    firm: int
    number: int
    order: LinearOrder


@dataclass(frozen=True)
class OneToOneMarket:
    source: ManyToOneMarket
    decomposition: Decomposition
    copies: tuple[FirmCopy, ...]
    worker_prefs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        expected = []
        for f, orders in enumerate(self.decomposition.per_firm):
            for j, order in enumerate(orders, start=1):
                expected.append(FirmCopy(f, j, order))
        if list(self.copies) != expected:
            raise MarketValidationError(
                "copies must list the decomposition's orders per firm, "
                "in ascending copy number"
            )
        if len(self.worker_prefs) != len(self.source.workers):
            raise MarketValidationError("one lifted preference list per worker")
        for w, lifted in enumerate(self.worker_prefs):
            if lifted != self._lift(w):
                raise MarketValidationError(
                    f"lifted preferences of {self.source.workers[w]} break the "
                    "firm-order or copy-number rules"
                )

    def _lift(self, w: int) -> tuple[int, ...]:
        lifted = []
        for f in self.source.worker_prefs[w]:
            lifted.extend(self.copies_by_firm[f])
        return tuple(lifted)

    @cached_property
    def copies_by_firm(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in self.source.firms]
        for c, copy in enumerate(self.copies):
            groups[copy.firm].append(c)
        return tuple(tuple(g) for g in groups)

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
    explicit: dict[int, tuple[LinearOrder, ...]] | None = None,
) -> OneToOneMarket:
    """Assemble the copies over a verified decomposition of the market.

    With ``decomposition=None`` the market is decomposed afresh, which
    verifies every firm's family; ``explicit`` pins the copy indexing of
    some firms as in :func:`decompose_market`, and the rest are numbered
    lexicographically.  A supplied decomposition may use any indexing and
    even a different (e.g. hand-built) order family; it is verified here,
    and each firm's family must recompose to its choice function.
    """
    if decomposition is None:
        decomposition = decompose_market(market, explicit, caps)
    else:
        if explicit:
            raise ValueError("pass a decomposition or explicit indexing, not both")
        if len(decomposition.per_firm) != len(market.firms):
            raise MarketValidationError("decomposition covers a different firm count")
        for f, orders in enumerate(decomposition.per_firm):
            report = verify_decomposition(market.choice_functions[f], orders, caps)
            if not report.passed:
                raise DecompositionMismatchError(
                    f"orders for firm {market.firms[f]} do not recompose its "
                    f"choice function (witness {report.witness})"
                )
    copies = tuple(
        FirmCopy(f, j, order)
        for f, orders in enumerate(decomposition.per_firm)
        for j, order in enumerate(orders, start=1)
    )
    groups: list[list[int]] = [[] for _ in market.firms]
    for c, copy in enumerate(copies):
        groups[copy.firm].append(c)
    worker_prefs = tuple(
        tuple(c for f in prefs for c in groups[f]) for prefs in market.worker_prefs
    )
    return OneToOneMarket(market, decomposition, copies, worker_prefs)
