"""Exception types shared across the package: a failed certificate, an
exhausted budget and a package bug.  A bad argument, such as a genus out of
range or a pair of words that is not conjugate, raises ``ValueError``."""


class McgVerifyError(Exception):
    """Base class for all package errors."""


class ValidationFailure(McgVerifyError):
    """A derived generator formula failed its validation suite.

    The message names the first relation that failed, so a wrong formula
    is rejected with a pointer to the offending identity.
    """


class BudgetExceeded(McgVerifyError):
    """A bounded search ran out of budget; the result is inconclusive,
    never silently wrong."""


class InvariantViolation(McgVerifyError):
    """An internal consistency check failed.  This is a bug in the package,
    never a verdict; the check runs under ``python -O`` too."""
