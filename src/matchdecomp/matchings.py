"""Matching types for both market forms.

Both types store the worker side as a tuple (position = worker index,
value = partner index or None) and derive the partner side from it, which
makes the two views consistent by construction and the objects hashable,
so stable sets can be deduplicated and sorted canonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitsets import labels_of
from .errors import MarketValidationError


def _key(by_worker: tuple[int | None, ...]) -> tuple[int, ...]:
    return tuple(-1 if p is None else p for p in by_worker)


@dataclass(frozen=True)
class ManyToOneMatching:
    """Assignment of each worker to a firm or to nobody."""

    by_worker: tuple[int | None, ...]
    firm_count: int

    def __post_init__(self):
        for f in self.by_worker:
            if f is not None and not 0 <= f < self.firm_count:
                raise MarketValidationError(f"firm index {f} out of range")

    @staticmethod
    def from_firm_sets(market, assignment: dict[str, set[str] | list[str]]):
        """Build from ``{firm label: worker labels}``; omitted agents are unmatched."""
        by_worker: list[int | None] = [None] * len(market.workers)
        for firm_label, worker_labels in assignment.items():
            if firm_label not in market.firm_index:
                raise MarketValidationError(f"unknown firm {firm_label!r}")
            f = market.firm_index[firm_label]
            for wl in worker_labels:
                if wl not in market.worker_index:
                    raise MarketValidationError(f"unknown worker {wl!r}")
                w = market.worker_index[wl]
                if by_worker[w] is not None:
                    raise MarketValidationError(f"worker {wl} assigned twice")
                by_worker[w] = f
        return ManyToOneMatching(tuple(by_worker), len(market.firms))

    @cached_property
    def firm_masks(self) -> tuple[int, ...]:
        masks = [0] * self.firm_count
        for w, f in enumerate(self.by_worker):
            if f is not None:
                masks[f] |= 1 << w
        return tuple(masks)

    @property
    def key(self) -> tuple[int, ...]:
        return _key(self.by_worker)

    def render(self, market) -> dict:
        by_worker = {
            market.workers[w]: None if f is None else market.firms[f]
            for w, f in enumerate(self.by_worker)
        }
        by_firm = {
            market.firms[f]: labels_of(mask, market.workers)
            for f, mask in enumerate(self.firm_masks)
        }
        return {"by_worker": by_worker, "by_firm": by_firm}


@dataclass(frozen=True)
class OneToOneMatching:
    """Assignment of each worker to at most one firm copy, injectively."""

    by_worker: tuple[int | None, ...]
    copy_count: int

    def __post_init__(self):
        seen = set()
        for c in self.by_worker:
            if c is None:
                continue
            if not 0 <= c < self.copy_count:
                raise MarketValidationError(f"copy index {c} out of range")
            if c in seen:
                raise MarketValidationError(f"copy {c} holds two workers")
            seen.add(c)

    @staticmethod
    def from_copy_assignments(assoc, assignment: dict[str, str]):
        """Build from ``{copy label: worker label}``; omitted agents are unmatched."""
        by_worker: list[int | None] = [None] * len(assoc.source.workers)
        for copy_label, worker_label in assignment.items():
            if copy_label not in assoc.copy_index:
                raise MarketValidationError(f"unknown copy {copy_label!r}")
            c = assoc.copy_index[copy_label]
            if worker_label not in assoc.source.worker_index:
                raise MarketValidationError(f"unknown worker {worker_label!r}")
            w = assoc.source.worker_index[worker_label]
            if by_worker[w] is not None:
                raise MarketValidationError(f"worker {worker_label} assigned twice")
            by_worker[w] = c
        return OneToOneMatching(tuple(by_worker), len(assoc.copies))

    @cached_property
    def by_copy(self) -> tuple[int | None, ...]:
        held: list[int | None] = [None] * self.copy_count
        for w, c in enumerate(self.by_worker):
            if c is not None:
                held[c] = w
        return tuple(held)

    @property
    def key(self) -> tuple[int, ...]:
        return _key(self.by_worker)

    def render(self, assoc) -> dict:
        workers = assoc.source.workers
        by_worker = {
            workers[w]: None if c is None else assoc.copy_labels[c]
            for w, c in enumerate(self.by_worker)
        }
        by_copy = {
            assoc.copy_labels[c]: None if w is None else workers[w]
            for c, w in enumerate(self.by_copy)
        }
        return {"by_worker": by_worker, "by_copy": by_copy}
