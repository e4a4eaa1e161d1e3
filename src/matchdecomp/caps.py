"""Resource caps for the exhaustive parts of the library.

Everything here is desk-scale by design: axiom checks enumerate subsets,
decomposition enumerates selection sequences, and the stable-set oracles
enumerate candidate matchings.  Caps turn a silent blow-up into a clean
:class:`~matchdecomp.errors.CapExceededError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError, MarketValidationError


@dataclass(frozen=True)
class Caps:
    """Limits applied by subset-exhaustive and enumeration-based operations.

    max_workers: largest worker universe for which subset enumeration
        (2**k menus) is attempted.
    max_orders: largest number of distinct linear orders a single firm's
        decomposition may produce.
    max_candidates: largest candidate count a matching enumerator may
        search: the product over workers of one plus the partners each
        worker is offered.
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


def caps_from_env(base: Caps = DEFAULT_CAPS) -> Caps:
    """Return ``base`` with any MATCHDECOMP_MAX_* environment overrides applied."""
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
    return Caps(**{**base.__dict__, **overrides}) if overrides else base


def require_universe(size: int, caps: Caps) -> None:
    """Guard a 2**size subset enumeration."""
    if size > caps.max_workers:
        raise CapExceededError(
            f"worker universe of {size} exceeds subset-enumeration cap "
            f"{caps.max_workers}"
        )


def require_candidates(count: int, caps: Caps) -> None:
    """Guard an enumeration that would scan ``count`` candidates."""
    if count > caps.max_candidates:
        raise CapExceededError(
            f"{count} candidates exceed enumeration cap {caps.max_candidates}"
        )
