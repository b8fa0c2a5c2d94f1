"""Exact-arithmetic substrate: Bernoulli numbers, combinatorial helpers,
divisor enumeration with an explicit trial-division budget.

Everything here works on Python ints (arbitrary precision) and
``fractions.Fraction`` (always normalized, positive denominator), so every
result in this package is exact; nothing rounds.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction

from .errors import BudgetExceededError, DomainError

__all__ = [
    "DEFAULT_BUDGET",
    "DivisorBudget",
    "bernoulli",
    "binomial",
    "divisors",
    "falling_factorial",
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
# so reads are safe once a value exists; it grows only under the lock.
_BERNOULLI_EVEN: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()

_B1 = Fraction(-1, 2)


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
    if n < 0:
        raise DomainError(f"Bernoulli index must be >= 0, got {n}")
    if n == 1:
        return _B1
    if n % 2 == 1:
        raise DomainError(f"odd Bernoulli index {n} rejected (B_n = 0 for odd n >= 3)")
    half = n // 2
    with _BERNOULLI_LOCK:
        for m in range(len(_BERNOULLI_EVEN), half + 1):
            nn = 2 * m
            acc = (nn + 1) * _B1
            for j in range(m):
                acc += math.comb(nn + 1, 2 * j) * _BERNOULLI_EVEN[j]
            _BERNOULLI_EVEN.append(-acc / (nn + 1))
    return _BERNOULLI_EVEN[half]


def falling_factorial(k: int, n: int) -> int:
    """k (k-1) ... (k-n+1), the n-term falling product; 1 when n = 0.

    Returns 0 when n > k, matching the vanishing of the n-th derivative
    of x^k.
    """
    if n < 0:
        raise DomainError(f"falling-factorial length must be >= 0, got {n}")
    if k < 0:
        raise DomainError(f"falling-factorial base must be >= 0, got {k}")
    if n > k:
        return 0
    return math.perm(k, n)


def binomial(n: int, i: int) -> int:
    """n choose i, exactly; 0 when i < 0 or i > n (out-of-range convention)."""
    if n < 0:
        raise DomainError(f"binomial upper index must be >= 0, got {n}")
    if i < 0 or i > n:
        return 0
    return math.comb(n, i)


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
