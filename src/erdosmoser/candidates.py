"""Rational-root candidate enumeration for the cleared polynomials.

Any rational root p/q (lowest terms) of an integer polynomial has p
dividing the constant term and q dividing the leading coefficient.  For
even k that applies to the cleared polynomial directly (constant 2(k-1),
leading 2); for odd k the constant vanishes, m = 0 factors out, and the
theorem applies to the quotient (constant (k+1)(k-2), leading 2).

Since the equation constrains m >= 3 > 0, only positive candidates are
retained.  The complete divisor-derived set is enumerated here;
``highlighted_candidates`` gives the handful of named values analyzed case
by case.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .arith import DEFAULT_BUDGET, DivisorBudget, divisors
from .errors import DomainError

__all__ = [
    "CandidateSet",
    "CaseKind",
    "Source",
    "candidate_roots",
    "highlighted_candidates",
    "integer_candidates",
]


class Source(Enum):
    """Which polynomial the divisibility constraints were read from."""

    CLEARED = "cleared"  # even k: the cleared polynomial itself
    QUOTIENT = "quotient"  # odd k: the quotient after factoring out m


class CaseKind(Enum):
    """The five named candidate-root cases, one row each.

    A row holds the label (the member's value), the minimum admissible k,
    the k from which the case's dominance ratio decreases, the ratio's
    large-k limit, and the candidate m0 as a function of k.  Every minimum
    puts the candidate at 3 or above, and its parity is the case's.
    """

    # label, min_k, monotone_start, limit, candidate formula
    EVEN_KM1 = ("even k, candidate k - 1", 4, 4, 2.0 * math.e / 3.0, lambda k: k - 1)
    EVEN_2KM1 = ("even k, candidate 2(k - 1)", 4, 8, 2.0 * math.sqrt(math.e) / 5.0, lambda k: 2 * (k - 1))
    ODD_KM2 = ("odd k, candidate k - 2", 5, 5, 2.0 * math.e / 3.0, lambda k: k - 2)
    ODD_KP1 = ("odd k, candidate k + 1", 3, 3, 2.0 * math.e / 3.0, lambda k: k + 1)
    ODD_PROD = ("odd k, candidate (k + 1)(k - 2)", 3, 5, 0.0, lambda k: (k + 1) * (k - 2))

    def __new__(cls, label, min_k, monotone_start, limit, formula):
        member = object.__new__(cls)
        member._value_ = label
        member._row = (min_k, monotone_start, limit)
        member._formula = formula
        return member

    # read-only views of the row, so no caller can change a case for the others
    min_k = property(lambda self: self._row[0])
    monotone_start = property(lambda self: self._row[1])
    limit = property(lambda self: self._row[2])
    even_k = property(lambda self: self.min_k % 2 == 0)

    def accepts(self, k: int) -> bool:
        """True iff k has this case's parity and meets its minimum."""
        return k % 2 == self.min_k % 2 and k >= self.min_k

    def require(self, k: int) -> None:
        if not self.accepts(k):
            raise DomainError(
                f"{self.name} requires {'even' if self.even_k else 'odd'} "
                f"k >= {self.min_k}, got {k}"
            )

    def candidate(self, k: int) -> int:
        """The integer candidate value this case designates for k."""
        self.require(k)
        return self._formula(k)


class CandidateSet(NamedTuple):
    """All positive rational-root candidates for one exponent k.

    ``integer_candidates_ge3`` is the subset of integers >= 3 (the
    equation constrains m >= 3).  For odd k (source QUOTIENT) the
    factored-out root m = 0 is never tested against that constraint.
    """

    k: int
    source: Source
    all_candidates: tuple[Fraction, ...]
    integer_candidates_ge3 = property(lambda self: tuple(
        c.numerator for c in self.all_candidates if c.denominator == 1 and c >= 3))


def _constant_term(k: int) -> tuple[int, Source]:
    """The constant term the divisibility constraints are read from, with
    its polynomial: 2(k-1) for even k, (k+1)(k-2) for odd k."""
    if k < 2:
        raise DomainError(f"candidate enumeration requires k >= 2, got {k}")
    if k % 2 == 0:
        return 2 * (k - 1), Source.CLEARED
    return (k + 1) * (k - 2), Source.QUOTIENT


def candidate_roots(k: int, budget: DivisorBudget = DEFAULT_BUDGET) -> CandidateSet:
    """Every positive p/q allowed by the divisibility constraints.

    The set is the divisors d of the relevant constant term together with
    their halves d/2, deduplicated and normalized (leading coefficient 2
    allows denominator 1 or 2).  This is deliberately the complete set,
    not only the named values: exact evaluation over all of it is cheap
    and strictly stronger than spot checks.
    """
    from fractions import Fraction
    constant, source = _constant_term(k)
    divs = divisors(constant, budget)
    cands = tuple(Fraction(e, 2) for e in sorted({*divs, *(2 * d for d in divs)}))
    return CandidateSet(k, source, cands)


def integer_candidates(k: int, budget: DivisorBudget = DEFAULT_BUDGET) -> tuple[int, ...]:
    """``candidate_roots(k, budget).integer_candidates_ge3`` without
    building the Fraction set: the divisors >= 3 of the constant term."""
    return tuple(d for d in divisors(_constant_term(k)[0], budget) if d >= 3)


def highlighted_candidates(k: int) -> list[tuple[CaseKind, int]]:
    """The named integer candidates whose minimum-k guards admit k.

    Even k >= 4 yields k-1 and 2(k-1); odd k >= 5 yields k-2; odd k >= 3
    yields k+1 and (k+1)(k-2).  Every minimum keeps the value >= 3.  A k
    too small for every case (even k < 4, odd k < 3) gives an empty list.
    At k = 3 the two odd cases coincide at the same value, 4; both are
    reported.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return [(case, case.candidate(k)) for case in CaseKind if case.accepts(k)]
