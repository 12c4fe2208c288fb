"""Work budgets for the exponential searches.

Every potentially exponential routine (cycle enumeration, sandwich search)
counts its steps against a budget so callers get an honest "ran out" signal
instead of an open-ended hang.
"""

from .cnf import _is_int


class BudgetExhausted(Exception):
    """Raised when a search exceeds its step budget."""


class Budget:
    """A decrementing step counter: `limit` is an int >= 0, None unlimited."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit=None):
        if limit is not None and not (_is_int(limit) and limit >= 0):
            raise ValueError("budget limit %r is not a non-negative int"
                             % (limit,))
        self.limit = limit
        self.spent = 0

    def spend(self, amount=1):
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExhausted("budget of %d steps exhausted" % self.limit)
