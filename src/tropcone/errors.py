"""Exception types shared across the package."""


class TropconeError(Exception):
    pass


class DimensionMismatch(TropconeError):
    pass


class ValidationFailed(TropconeError):
    """A game graph failed validation; carries the report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class NonStochastic(TropconeError):
    pass


class NotCompliant(TropconeError):
    pass


class PreconditionViolated(TropconeError):
    pass


class EmptyBelow(TropconeError):
    """No point of the union lies below the query point."""


class MalformedInput(TropconeError):
    """Bad JSON or CLI arguments."""


class TooManyDigits(TropconeError):
    """A result has more digits than Python turns into a string."""
