"""Exact-arithmetic substrate: Bernoulli numbers and divisor enumeration
with an explicit trial-division budget.  The module holds no mutable state.

Everything here works on Python ints and ``fractions.Fraction`` (always
normalized, positive denominator), so every result is exact.  ``fractions``
is imported only where a Bernoulli number is built: every handler in
``_commands`` loads this module, most for ``DivisorBudget`` alone, while
--version, figure1, search and threshold never load it.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .errors import BudgetExceededError, DomainError

__all__ = [
    "DEFAULT_BUDGET",
    "DivisorBudget",
    "bernoulli",
    "divisors",
]


class DivisorBudget(namedtuple("DivisorBudget", "max_trial")):
    """Cap on the largest trial divisor attempted during factorization.

    Makes the cost of factoring explicit: a number whose unfactored part
    cannot be certified prime within the budget raises
    :class:`BudgetExceededError` instead of running unbounded.
    """

    __slots__ = ()
    # namedtuple's own _make, which _replace calls, would bypass __new__
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, max_trial: int) -> DivisorBudget:
        if max_trial < 2:
            raise DomainError(f"max_trial must be >= 2, got {max_trial}")
        return super().__new__(cls, max_trial)


DEFAULT_BUDGET = DivisorBudget(max_trial=1_000_000)


def _even_bernoulli(h: int) -> Iterator[Fraction]:
    """B_2, B_4, ..., B_2h, lazily: B_2r = (-1)^(r-1) 2r T_r / (4^r (4^r - 1)).

    The tangent numbers T_1..T_g are built in place by Brent & Harvey's
    recurrence (arXiv:1108.0286) for g = 1, 2, 4, ... capped at h, and each
    block yields only the terms the one before did not: the first term costs
    O(1), a full pass at most about 4/3 of one run, and nothing is kept.
    """
    from fractions import Fraction
    g = 0
    while g < h:
        done, g = g, min(2 * g or 1, h)
        t = [1] * (g + 1)  # t[r] = T_r; t[0] is unused
        for j in range(2, g + 1):
            t[j] = (j - 1) * t[j - 1]
        for i in range(2, g + 1):
            for j in range(i, g + 1):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
        for r in range(done + 1, g + 1):
            yield Fraction((-1) ** (r - 1) * 2 * r * t[r], 4**r * (4**r - 1))


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n for even n >= 0 (plus B_1 = -1/2).

    Convention: B_1 = -1/2, so the defining recurrence
    ``sum_{j=0}^{n} C(n+1, j) B_j = 0`` holds as written.  Only even
    indices feed the summation formulas in this package, and both sign
    conventions agree on those; pinning the convention here prevents
    recurrence bugs.  Odd indices >= 3 are rejected rather than returning
    their (zero) value, since no caller should consume them.

    Nothing is cached, so concurrent callers share no state.
    """
    from fractions import Fraction
    if n < 0:
        raise DomainError(f"Bernoulli index must be >= 0, got {n}")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        raise DomainError(f"odd Bernoulli index {n} rejected (B_n = 0 for odd n >= 3)")
    return deque(_even_bernoulli(n // 2), maxlen=1).pop() if n else Fraction(1)


def divisors(n: int, budget: DivisorBudget = DEFAULT_BUDGET) -> list[int]:
    """All positive divisors of n in increasing order.

    Factors n by trial division up to ``budget.max_trial`` and expands the
    exponent tuples, so the count always equals the product of
    (exponent + 1).  An unfactored cofactor above ``max_trial**2`` cannot
    be certified prime and raises :class:`BudgetExceededError` naming it.
    """
    if n < 1:
        raise DomainError(f"divisors defined for n >= 1, got {n}")
    factors: list[tuple[int, int]] = []
    rem = n
    d = 2
    while d <= budget.max_trial and d * d <= rem:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rem > 1:
        if rem > budget.max_trial**2:
            raise BudgetExceededError(
                f"unfactored cofactor {rem} exceeds trial budget {budget.max_trial}"
            )
        # no factor <= max_trial and rem <= max_trial**2: rem is prime
        factors.append((rem, 1))
    divs = [1]
    for p, e in factors:
        divs = [q * p**i for q in divs for i in range(e + 1)]
    return sorted(divs)
