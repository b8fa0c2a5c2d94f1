"""Ground-truth power sums.

``sum_direct`` is the literal summation that every other result in this
package is checked against.  ``sum_eml_exact`` evaluates the full
Euler-Maclaurin expansion of the same sum -- integral, boundary term, and
every non-vanishing Bernoulli correction -- in exact rationals.  For a
polynomial summand the remainder vanishes identically, so the two must
agree exactly, integer for integer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .arith import bernoulli
from .errors import DomainError, InternalConsistencyError

__all__ = ["PowerSumQuery", "eml_terms", "sum_direct", "sum_eml_exact"]


def _require_exponent(k: int) -> None:
    # the one exponent check, shared with approx and polyform
    if k < 1:
        raise DomainError(f"exponent must be >= 1, got {k}")


class PowerSumQuery(namedtuple("PowerSumQuery", "n k")):
    """Parameters of the sum 1^k + 2^k + ... + n^k."""

    __slots__ = ()
    # namedtuple's own _make, which _replace calls, would bypass __new__
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, n: int, k: int) -> PowerSumQuery:
        if n < 0:
            raise DomainError(f"upper limit must be >= 0, got {n}")
        _require_exponent(k)
        return super().__new__(cls, n, k)


def eml_terms(k: int) -> Iterator[tuple[int, Fraction]]:
    """Bernoulli corrections of the Euler-Maclaurin expansion of
    sum_{i=1}^n i^k: (exponent k-(2r-1), weight B_{2r}/(2r)! * k_(2r-1)) for
    r = 1..floor(k/2), the r-th correction being weight * (n^exponent - 1).

    ``k_(j)`` is the falling factorial ``math.perm(k, j)``; corrections of
    derivative order above k vanish.  Lazy, so taking the first p terms
    computes only the Bernoulli numbers they need.
    """
    _require_exponent(k)
    for r in range(1, k // 2 + 1):
        drop = 2 * r - 1
        yield k - drop, bernoulli(2 * r) * math.perm(k, drop) / math.factorial(2 * r)


def sum_direct(q: PowerSumQuery) -> int:
    """Sum of i^k for i = 1..n by literal addition; 0 when n = 0."""
    return sum(i**q.k for i in range(1, q.n + 1))


def sum_eml_exact(q: PowerSumQuery) -> Fraction:
    """Full Euler-Maclaurin expansion of the power sum, evaluated exactly::

        integral_1^n x^k dx  +  (1^k + n^k)/2
          + sum_{r=1}^{floor(k/2)}  B_{2r}/(2r)! * k_(2r-1) * (n^{k-(2r-1)} - 1)

    with the corrections from :func:`eml_terms`.  The result is always
    integer-valued (denominator 1); anything else is a bug and raises
    :class:`InternalConsistencyError`.
    """
    if q.n < 1:
        raise DomainError("expansion requires n >= 1 (integral lower bound is 1)")
    from fractions import Fraction
    n, k = q.n, q.k
    total = Fraction(n ** (k + 1) - 1, k + 1) + Fraction(1 + n**k, 2)
    for e, weight in eml_terms(k):
        total += weight * (n**e - 1)
    if total.denominator != 1:
        raise InternalConsistencyError(
            f"expansion for n={n}, k={k} is not an integer: {total}"
        )
    return total
