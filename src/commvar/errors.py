"""Shared exception types."""


class LimitExceeded(RuntimeError):
    """An enumeration or scan would exceed its configured limit."""


class MathCheckFailed(AssertionError):
    """A mathematical invariant of a computation does not hold.

    Raised explicitly, so it fires under ``python -O`` too; subclassing
    AssertionError keeps the CLI's exit status 1 for failed checks.
    """
