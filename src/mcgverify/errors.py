"""Exception types shared across the package."""


class McgVerifyError(Exception):
    """Base class for all package errors."""


class ConjugacyMismatch(McgVerifyError):
    """A conjugator lookup (``conjugator``, ``find_conjugators``) was asked
    for a pair that is not conjugate."""


class ValidationFailure(McgVerifyError):
    """A derived generator formula failed its validation suite.

    The message names the first relation that failed, so a wrong formula
    is rejected with a pointer to the offending identity.
    """


class OutOfRange(McgVerifyError):
    """A genus outside a supported range: below the range of the
    decomposition arithmetic, or above ``words.MAX_GENUS``."""


class BudgetExceeded(McgVerifyError):
    """A bounded search ran out of budget; the result is inconclusive,
    never silently wrong."""


class UnknownClaim(McgVerifyError):
    """Claim id not present in the catalog."""


class InvariantViolation(McgVerifyError):
    """An internal consistency check failed.  This is a bug in the package,
    never a verdict; the check runs under ``python -O`` too."""
