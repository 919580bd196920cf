"""Exception and warning types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """Closed-form parameters left their validity domain."""


class TruncationOverflowError(RuntimeError):
    """Evolution pushed too much probability into the truncation guard band."""


class GridTooCoarseError(RuntimeError):
    """A smeared mixture lost more trace than its diagnostic allows."""


class TruncationWarning(UserWarning):
    """Noticeable (but not fatal) guard-band occupation."""
