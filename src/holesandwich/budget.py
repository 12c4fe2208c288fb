"""Work budgets for the exponential searches.

Every potentially exponential routine (cycle enumeration, sandwich search)
counts its steps against a budget so callers get an honest "ran out" signal
instead of an open-ended hang.
"""

from __future__ import annotations


class BudgetExhausted(Exception):
    """Raised when a search exceeds its step budget.

    `partial` carries whatever results were collected before the limit hit,
    so callers can still report progress.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class Budget:
    """A decrementing step counter.  `limit=None` means unlimited."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit=None):
        if limit is not None and limit < 0:
            raise ValueError("budget limit must be non-negative")
        self.limit = limit
        self.spent = 0

    def spend(self, amount=1):
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExhausted("budget of %d steps exhausted" % self.limit)
