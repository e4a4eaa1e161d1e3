"""Resource caps for the exhaustive parts of the library.

Everything here is desk-scale by design: axiom checks enumerate subsets,
decomposition enumerates selection sequences, and the stable-set
enumerators search candidate matchings.  Caps turn a silent blow-up into a
clean :class:`~matchdecomp.errors.CapExceededError`.  The worker cap
refuses an operation before it starts.  The order cap stops a
decomposition walk after at most (k+1) times the cap suffixes, before it
builds any order.  The candidate cap stops a search once its work passes
the cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import CapExceededError, MarketValidationError


@dataclass(frozen=True)
class Caps:
    """Limits applied by subset-exhaustive and enumeration-based operations.

    max_workers: largest worker universe for which subset enumeration
        (2**k menus) is attempted.
    max_orders: largest number of distinct linear orders a single firm's
        decomposition may produce.
    max_candidates: largest number of placements a matching enumerator
        may try.  Each search node charges every firm it considers for its
        worker, whether a cut removes it or not, plus staying unmatched:
        the firms the worker accepts in the firm-level search, the firms
        with a copy that ranks it in the copy-stable search.  The
        classical enumerator, which does not search, charges each
        proposal of Gale-Shapley and break-marriage instead.  The count
        is deterministic, since the order of work is fixed.
    """

    max_workers: int = 16
    max_orders: int = 5040
    max_candidates: int = 10_000_000


DEFAULT_CAPS = Caps()

_ENV_FIELDS = {
    "MATCHDECOMP_MAX_WORKERS": "max_workers",
    "MATCHDECOMP_MAX_ORDERS": "max_orders",
    "MATCHDECOMP_MAX_CANDIDATES": "max_candidates",
}


def caps_from_env() -> Caps:
    """``DEFAULT_CAPS`` with any MATCHDECOMP_MAX_* environment overrides applied."""
    overrides = {}
    for var, field in _ENV_FIELDS.items():
        raw = os.environ.get(var)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError as exc:
            raise MarketValidationError(
                f"{var} must be an integer, got {raw!r}"
            ) from exc
        if value < 1:
            raise MarketValidationError(f"{var} must be positive, got {value}")
        overrides[field] = value
    return replace(DEFAULT_CAPS, **overrides) if overrides else DEFAULT_CAPS


def require_universe(size: int, caps: Caps) -> None:
    """Guard a 2**size subset enumeration."""
    if size > caps.max_workers:
        raise CapExceededError(
            f"worker universe of {size} exceeds subset-enumeration cap "
            f"{caps.max_workers}"
        )


def require_candidates(tried: int, caps: Caps) -> None:
    """Stop a search that has tried ``tried`` placements, past the cap."""
    if tried > caps.max_candidates:
        raise CapExceededError(
            f"{tried} placements tried exceed enumeration cap "
            f"{caps.max_candidates}; the search stopped there, so {tried} is a "
            "lower bound on the placements it needs"
        )
