"""The many-to-one market: workers, firms, choice functions, preferences."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .choices import ChoiceFunction
from .errors import MarketValidationError

# An ordered tuple of acceptable firm indices, best first.  Firms left out
# are unacceptable to the worker.
WorkerPreference = tuple[int, ...]


@dataclass(frozen=True)
class ManyToOneMarket:
    """A market where each firm hires a set of workers via a choice function.

    Workers and firms are identified by their position in the label tuples;
    all other structures use those dense indices.
    """

    workers: tuple[str, ...]
    firms: tuple[str, ...]
    choice_functions: tuple[ChoiceFunction, ...]
    worker_prefs: tuple[WorkerPreference, ...]

    def __post_init__(self):
        if len(set(self.workers)) != len(self.workers):
            raise MarketValidationError("duplicate worker labels")
        if len(set(self.firms)) != len(self.firms):
            raise MarketValidationError("duplicate firm labels")
        if len(self.choice_functions) != len(self.firms):
            raise MarketValidationError(
                f"{len(self.firms)} firms but {len(self.choice_functions)} "
                "choice functions"
            )
        k = len(self.workers)
        for label, cf in zip(self.firms, self.choice_functions):
            if cf.universe_size != k:
                raise MarketValidationError(
                    f"choice function of {label} is over {cf.universe_size} "
                    f"workers, market has {k}"
                )
        n = len(self.firms)
        if len(self.worker_prefs) != k:
            raise MarketValidationError(
                f"{k} workers but {len(self.worker_prefs)} preference lists"
            )
        for label, prefs in zip(self.workers, self.worker_prefs):
            if len(set(prefs)) != len(prefs):
                raise MarketValidationError(f"duplicate firm in preferences of {label}")
            if any(f < 0 or f >= n for f in prefs):
                raise MarketValidationError(f"unknown firm in preferences of {label}")

    @cached_property
    def worker_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.workers)}

    @cached_property
    def firm_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.firms)}

    @cached_property
    def firm_rank(self) -> tuple[dict[int, int], ...]:
        """Per worker: firm index -> position in the preference list."""
        return tuple({f: pos for pos, f in enumerate(prefs)} for prefs in self.worker_prefs)
