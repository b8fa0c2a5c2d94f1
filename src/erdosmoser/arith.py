"""Exact-arithmetic substrate: Bernoulli numbers and divisor enumeration
with an explicit trial-division budget.

Everything here works on Python ints and ``fractions.Fraction`` (always
normalized, positive denominator; imported by :func:`bernoulli` alone, as
every CLI run loads this module), so every result is exact; nothing rounds.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple

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

# Even-index Bernoulli numbers B_0, B_2, B_4, ... computed so far.  Append-only,
# so reads are safe once a value exists; it grows, B_0 first, under the lock.
_BERNOULLI_EVEN: list[Fraction] = []
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n for even n >= 0 (plus B_1 = -1/2).

    Convention: B_1 = -1/2, so the defining recurrence
    ``sum_{j=0}^{n} C(n+1, j) B_j = 0`` holds as written.  Only even
    indices feed the summation formulas in this package, and both sign
    conventions agree on those; pinning the convention here prevents
    recurrence bugs.  Odd indices >= 3 are rejected rather than returning
    their (zero) value, since no caller should consume them.

    Values are computed eagerly up to the requested index and cached under
    a lock (the recurrence is quadratic and shared by many operations).
    """
    from fractions import Fraction
    if n < 0:
        raise DomainError(f"Bernoulli index must be >= 0, got {n}")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        raise DomainError(f"odd Bernoulli index {n} rejected (B_n = 0 for odd n >= 3)")
    half = n // 2
    with _BERNOULLI_LOCK:
        if not _BERNOULLI_EVEN:
            _BERNOULLI_EVEN.append(Fraction(1))
        for m in range(len(_BERNOULLI_EVEN), half + 1):
            nn = 2 * m
            acc = Fraction(-(nn + 1), 2)  # the B_1 term
            for j in range(m):
                acc += math.comb(nn + 1, 2 * j) * _BERNOULLI_EVEN[j]
            _BERNOULLI_EVEN.append(-acc / (nn + 1))
    return _BERNOULLI_EVEN[half]


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
