"""Integer polynomials in m derived from the power-sum identities.

Polynomials are dense ascending-power coefficient tuples (index i holds
the coefficient of m^i).  Degrees stay near k + 1 at desk scale, so the
dense form is compact, and Horner evaluation is exact for both int and
Fraction arguments.

Two cleared forms are built here:

* ``cleared_poly`` -- 2(k+1) times the leading (integral + boundary)
  approximation of the power-sum difference, the degree-(k+1) polynomial
  whose rational roots are enumerated by :mod:`erdosmoser.candidates`;
  ``cleared_groups`` gives its two term groups at one integer m from the
  closed form, without expanding it, and ``cleared_value`` the value from them;
* ``full_eml_poly`` -- the exact difference with every Bernoulli
  correction included, multiplied by the least common multiple D of all
  denominators, so that dividing its integer values by D reproduces the
  direct sum difference exactly.  It is set term by term from Faulhaber's
  closed form, so its constant term is 0 by construction; the direct sum
  (the master identity) is its oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InternalConsistencyError
from .powersum import _require_exponent, eml_terms

__all__ = [
    "ClearedPoly",
    "IntPoly",
    "cleared_groups",
    "cleared_poly",
    "cleared_value",
    "eml_multiplier",
    "eval_poly",
    "full_eml_poly",
]


class IntPoly(NamedTuple):
    """Dense integer-coefficient polynomial, ascending powers.

    :func:`cleared_poly` and :func:`full_eml_poly` store no zero leading
    coefficient; the zero polynomial is the empty tuple.  Instances are
    immutable (and therefore hashable and freely shareable).
    """

    coeffs: tuple[int, ...]

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
    multiplier: int


def cleared_poly(k: int) -> ClearedPoly:
    """2(m-1)^{k+1} + (k+1)(m-1)^k - 2(k+1) m^k + (k-1), fully expanded.

    Since (k+1) C(k, i) = (k+1-i) C(k+1, i), the two binomial expansions
    sum to c_i = (-1)^{k+1-i} (i+1-k) C(k+1, i), one binomial per
    coefficient, before -2(k+1) m^k and k-1 are added.  Degree k + 1,
    leading coefficient 2, and c_{k-1} = 0 for every k.  The constant term
    is 2(k-1) for even k and 0 for odd k (so m factors out in the odd case).
    Build it only where the coefficients are the result; nothing is cached.
    A value at integer m comes cheaper from :func:`cleared_value`.
    """
    _require_exponent(k)
    c = [(-1) ** (k + 1 - i) * (i + 1 - k) * math.comb(k + 1, i) for i in range(k + 2)]
    c[k] -= 2 * (k + 1)
    c[0] += k - 1
    return ClearedPoly(IntPoly(tuple(c)), 2 * (k + 1))


def cleared_groups(k: int, m: int) -> tuple[int, int]:
    """(positive, negative) = ((2(m-1) + k + 1)(m-1)^k, 2(k+1) m^k), the
    cleared form's two term groups at integer m: two big-integer powers."""
    _require_exponent(k)
    b = m - 1
    return (2 * b + k + 1) * b**k, 2 * (k + 1) * m**k


def cleared_value(k: int, m: int) -> int:
    """The cleared polynomial at integer m from its closed form
    (2(m-1) + k + 1)(m-1)^k - 2(k+1) m^k + (k-1), the groups of
    :func:`cleared_groups`.  Identically
    ``cleared_value(k, m) == eval_poly(cleared_poly(k).poly, m)``, which the
    tests check with Horner evaluation as the oracle.
    """
    positive, negative = cleared_groups(k, m)
    return positive - negative + k - 1


def eml_multiplier(k: int) -> int:
    """D = lcm(k+1, (2*floor(k/2))!), which clears the denominators k+1, 2
    and (2r)!, r = 1..floor(k/2), of :func:`full_eml_poly`: each (2r)!
    divides the largest, which is even for k >= 2 (for k = 1, 2 = k+1).
    """
    _require_exponent(k)
    return math.lcm(k + 1, math.factorial(2 * (k // 2)))


def full_eml_poly(k: int) -> ClearedPoly:
    """The exact power-sum difference as an integer polynomial.

    By Faulhaber's formula (B_1 = -1/2), sum_{i=1}^{m-1} i^k - m^k is
    m^{k+1}/(k+1) - (3/2) m^k + sum_r w_r m^{k+1-2r}, r = 1..floor(k/2),
    where w_r = C(k+1, 2r) B_{2r}/(k+1) is the r-th weight of
    :func:`erdosmoser.powersum.eml_terms`.  So at most floor(k/2) + 2
    coefficients are nonzero; each is set from that closed form and
    multiplied by D = :func:`eml_multiplier`, which clears every
    denominator.  Degree k + 1, leading coefficient D/(k+1), and the
    constant term is 0 by construction.  Master identity, the tests' oracle:
    eval_poly(poly, m) == D * (sum_{i<m} i^k - m^k) for integer m.

    D grows factorially with k; memory is the only practical limit.
    """
    from fractions import Fraction
    multiplier = eml_multiplier(k)
    cleared = [0] * (k + 2)
    for e, c in [(k + 1, Fraction(1, k + 1)), (k, Fraction(-3, 2)), *eml_terms(k)]:
        v = c * multiplier
        if v.denominator != 1:
            raise InternalConsistencyError(
                f"coefficient of m^{e} not cleared by D={multiplier}: {v}"
            )
        cleared[e] = int(v)
    return ClearedPoly(IntPoly(tuple(cleared)), multiplier)
