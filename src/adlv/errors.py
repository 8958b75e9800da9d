"""Shared exception types."""


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its configured budget/cap."""


class RefusalError(ValueError):
    """Raised when a closed-form routine is asked for inputs outside the
    regime where its answer is certified (callers may force-evaluate where
    a brute-force fallback exists)."""


class InvariantError(RuntimeError):
    """Raised when an invariant a computation relies on fails: a bug, never
    bad input.  An explicit raise, not an assert, so ``python -O`` keeps it."""
