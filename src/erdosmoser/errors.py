"""Exception types shared across the package."""

__all__ = ["BudgetExceededError", "DomainError", "InternalConsistencyError"]


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class BudgetExceededError(RuntimeError):
    """A factorization budget ran out before the number was fully factored."""


class InternalConsistencyError(RuntimeError):
    """An identity that must hold by construction failed; indicates a bug."""
