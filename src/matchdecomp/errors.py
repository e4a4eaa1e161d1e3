"""Exception types shared across the package."""


class MarketError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is
    the CLI's exit status for it."""

    exit_code = 1


class MarketValidationError(MarketError):
    """Malformed input: bad market data, bad matching, bad file contents."""


class AxiomViolationError(MarketError):
    """An operation required a choice-function axiom that does not hold."""

    exit_code = 2

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CapExceededError(MarketError):
    """A resource cap was hit: universe size, order count, or placements a
    search tried."""

    exit_code = 4


class DeferredAcceptanceError(MarketError, RuntimeError):
    """Deferred acceptance ended on a matching that is not copy-stable, or
    ran past its stage bound, or break-marriage listed a matching that is
    not classically stable.  Also a ``RuntimeError``, so callers that
    catch ``RuntimeError`` keep catching it."""

    exit_code = 3


class DecompositionMismatchError(MarketValidationError):
    """A supplied order family does not reproduce the firm's choice function."""


class FirmRationalityError(MarketValidationError):
    """A many-to-one matching cannot be split across copies because some
    firm's assigned set is not what that firm would choose from it."""
