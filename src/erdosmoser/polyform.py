"""Integer polynomials in m derived from the power-sum identities.

Polynomials are dense ascending-power coefficient tuples (index i holds
the coefficient of m^i).  Degrees stay near k + 1 at desk scale, so the
dense form is compact, and Horner evaluation is exact for both int and
Fraction arguments.

Two cleared forms are built here:

* ``cleared_poly`` -- 2(k+1) times the leading (integral + boundary)
  approximation of the power-sum difference, the degree-(k+1) polynomial
  whose rational roots are enumerated by :mod:`erdosmoser.candidates`;
  ``cleared_value`` gives its value at one integer m from the closed form,
  without expanding it;
* ``full_eml_poly`` -- the exact difference with every Bernoulli
  correction included, multiplied by the least common multiple D of all
  denominators, so that dividing its integer values by D reproduces the
  direct sum difference exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError, InternalConsistencyError
from .powersum import _require_exponent, eml_terms

__all__ = [
    "ClearedPoly",
    "IntPoly",
    "cleared_poly",
    "cleared_value",
    "eml_multiplier",
    "eval_poly",
    "full_eml_poly",
    "quotient_poly",
]


class IntPoly(namedtuple("IntPoly", "coeffs")):
    """Dense integer-coefficient polynomial, ascending powers.

    The highest stored coefficient is non-zero; the zero polynomial is the
    empty tuple.  Instances are immutable (and therefore hashable and
    freely shareable).
    """

    __slots__ = ()
    # namedtuple's own _make, which _replace calls, would bypass __new__
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, coeffs) -> IntPoly:
        c = tuple(coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        return super().__new__(cls, c)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1


def eval_poly(p: IntPoly, m: int | Fraction) -> int | Fraction:
    """Exact Horner evaluation; an int argument gives an int result."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * m + c
    return acc


class ClearedPoly(NamedTuple):
    """An integer polynomial plus the multiplier that cleared its
    denominators: 2(k+1) for the truncated form, D for the full expansion."""

    poly: IntPoly
    k: int
    multiplier: int


def cleared_poly(k: int) -> ClearedPoly:
    """2(m-1)^{k+1} + (k+1)(m-1)^k - 2(k+1) m^k + (k-1), fully expanded.

    Degree k + 1, leading coefficient 2.  The constant term is 2(k-1) for
    even k and 0 for odd k (so m factors out in the odd case).  Build it
    only where the coefficients are the result; nothing is cached.  A value
    at integer m comes cheaper from :func:`cleared_value`.
    """
    _require_exponent(k)
    c = [0] * (k + 2)
    for i in range(k + 2):
        c[i] += 2 * math.comb(k + 1, i) * (-1) ** (k + 1 - i)
    for i in range(k + 1):
        c[i] += (k + 1) * math.comb(k, i) * (-1) ** (k - i)
    c[k] -= 2 * (k + 1)
    c[0] += k - 1
    return ClearedPoly(IntPoly(tuple(c)), k, 2 * (k + 1))


def cleared_value(k: int, m: int) -> int:
    """The cleared polynomial at integer m from the closed form
    (2(m-1) + k + 1)(m-1)^k - 2(k+1) m^k + (k-1): two big-integer powers and
    no expansion.  Identically
    ``cleared_value(k, m) == eval_poly(cleared_poly(k).poly, m)``, which the
    tests check with Horner evaluation as the oracle.
    """
    _require_exponent(k)
    b = m - 1
    return (2 * b + k + 1) * b**k - 2 * (k + 1) * m**k + k - 1


def quotient_poly(k: int) -> IntPoly:
    """The cleared polynomial divided by m, for odd k >= 3.

    Odd k makes the constant term vanish, so the quotient is again an
    integer polynomial; its constant term is the original linear
    coefficient (k+1)(k-2) and its leading coefficient stays 2.
    """
    if k % 2 == 0:
        raise DomainError(f"quotient by m undefined for even k (constant term 2(k-1) != 0), got {k}")
    if k < 3:
        raise DomainError(f"quotient requires odd k >= 3, got {k}")
    poly = cleared_poly(k).poly
    if poly.coeffs[0] != 0:
        raise InternalConsistencyError(f"constant term {poly.coeffs[0]} != 0 for odd k={k}")
    return IntPoly(poly.coeffs[1:])


def eml_multiplier(k: int) -> int:
    """D = lcm(k+1, (2*floor(k/2))!), which clears the denominators k+1, 2
    and (2r)!, r = 1..floor(k/2), of :func:`full_eml_poly`: each (2r)!
    divides the largest, which is even for k >= 2 (for k = 1, 2 = k+1).
    """
    _require_exponent(k)
    return math.lcm(k + 1, math.factorial(2 * (k // 2)))


def full_eml_poly(k: int) -> ClearedPoly:
    """The exact power-sum difference as an integer polynomial.

    Starts from :func:`cleared_poly` divided by 2(k+1), which is exactly
    the integral-plus-boundary approximant of sum_{i=1}^{m-1} i^k minus
    m^k, adds the Bernoulli corrections from
    :func:`erdosmoser.powersum.eml_terms`, then multiplies by
    D = :func:`eml_multiplier`, which clears every denominator.  Degree
    k + 1, leading coefficient D/(k+1).  The constant term is whatever the
    expansion produces; it is not assembled from a separate closed form.
    Master identity, asserted by the tests:
    eval_poly(poly, m) == D * (sum_{i<m} i^k - m^k) for integer m.

    D grows factorially with k; memory is the only practical limit.
    """
    from fractions import Fraction
    leading = cleared_poly(k)
    coeffs = [Fraction(c, leading.multiplier) for c in leading.poly.coeffs]
    for e, weight in eml_terms(k):
        for i in range(e + 1):
            coeffs[i] += weight * math.comb(e, i) * (-1) ** (e - i)
        coeffs[0] -= weight
    multiplier = eml_multiplier(k)
    cleared = []
    for i, c in enumerate(coeffs):
        v = c * multiplier
        if v.denominator != 1:
            raise InternalConsistencyError(
                f"coefficient of m^{i} not cleared by D={multiplier}: {v}"
            )
        cleared.append(int(v))
    return ClearedPoly(IntPoly(tuple(cleared)), k, multiplier)
