"""Exception types shared across the package."""


class UCLError(Exception):
    """Base class for all errors raised by uclogic."""


class ParseError(UCLError):
    """Malformed formula, polynomial, or valuation text."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ResourceLimitError(UCLError):
    """Formula refused: it exceeds one of the explicit resource limits."""


class GateLimitError(ResourceLimitError):
    """Formula refused: more unreliable gates than the limit allows."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(
            f"formula has {count} unreliable gates, exceeding the limit of "
            f"{limit}; raise the limit explicitly to proceed"
        )


class VariableLimitError(ResourceLimitError):
    """Formula refused: too many variables for a table over all valuations."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(
            f"formula has {count} variables, exceeding the limit of {limit} "
            f"for a table over all 2^{count} valuations"
        )
