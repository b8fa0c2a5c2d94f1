"""Truncated Euler-Maclaurin approximants for the power sum.

The leading approximant keeps only the integral and boundary terms;
Bernoulli corrections can then be added one at a time.  Evaluation points
are exact rationals rather than floats, so every "approximately equal"
statement about a truncation becomes a decidable identity about the
truncation error.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .errors import DomainError
from .powersum import _require_exponent, eml_terms

__all__ = [
    "RealArg",
    "correction_ratio",
    "first_correction",
    "sum_eml_leading",
    "sum_eml_truncated",
]


class RealArg(namedtuple("RealArg", "m")):
    """Rational evaluation point m >= 2, kept as a Fraction, so the sum
    endpoint m - 1 is >= 1 and all powers below are of a positive base."""

    __slots__ = ()
    # namedtuple's own _make, which _replace calls, would bypass __new__
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, m) -> RealArg:
        m = Fraction(m)
        if m < 2:
            raise DomainError(f"evaluation point must be >= 2, got {m}")
        return super().__new__(cls, m)


def sum_eml_leading(arg: RealArg, k: int) -> Fraction:
    """Integral-plus-boundary approximant of the power sum up to m - 1::

        ((m-1)^{k+1} - 1)/(k+1) + (1 + (m-1)^k)/2

    For k = 1 there are no correction terms at all, so this already equals
    the exact sum m(m-1)/2 at integer m.
    """
    _require_exponent(k)
    b = arg.m - 1
    return (b ** (k + 1) - 1) / (k + 1) + (1 + b**k) / 2


def first_correction(arg: RealArg, k: int) -> Fraction:
    """First Bernoulli correction term, (k/12)((m-1)^{k-1} - 1).

    Zero when k = 1: the first derivative of x^1 is constant, so its
    boundary difference vanishes.
    """
    _require_exponent(k)
    b = arg.m - 1
    return Fraction(k, 12) * (b ** (k - 1) - 1)


def correction_ratio(arg: RealArg, k: int) -> Fraction:
    """|first correction| over the leading integral term (m-1)^{k+1}/(k+1).

    Simplifies to (k(k+1)/12)(1/(m-1)^2 - 1/(m-1)^{k+1}); the test suite
    asserts that identity exactly.  Requires m >= 3 so the integral term
    is positive, and decays like 1/(m-1)^2 for large m.
    """
    _require_exponent(k)
    if arg.m < 3:
        raise DomainError(f"ratio defined for m >= 3, got {arg.m}")
    b = arg.m - 1
    lead = b ** (k + 1) / (k + 1)
    return abs(first_correction(arg, k)) / lead


def sum_eml_truncated(arg: RealArg, k: int, p: int) -> Fraction:
    """Leading approximant plus the first p Bernoulli corrections.

    p counts included correction terms (r = 1..p); p = 0 reproduces
    :func:`sum_eml_leading`.  Terms whose derivative order exceeds k
    contribute nothing, so any p >= floor(k/2) yields the full expansion,
    which at integer m equals the direct sum.
    """
    _require_exponent(k)
    if p < 0:
        raise DomainError(f"correction count must be >= 0, got {p}")
    b = arg.m - 1
    total = sum_eml_leading(arg, k)
    for e, weight in islice(eml_terms(k), p):
        total += weight * (b**e - 1)
    return total
