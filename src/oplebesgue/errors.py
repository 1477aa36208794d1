"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input: malformed data, broken invariant, or failed precondition."""


class DimensionMismatchError(ValidationError):
    """Operation applied to operands of incompatible dimensions."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Signals a tolerance misconfiguration or a numerical breakdown, never a
    mathematical outcome.  Offending candidates are attached in ``details``.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details
