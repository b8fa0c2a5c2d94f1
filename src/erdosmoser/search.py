"""Exact location of the sign change of S(m-1,k) - m^k (:func:`sign_threshold`),
and the search for exact solutions built on it.  A hit means literal equality
of big integers; the work per k is linear in its crossing point, not in m_hi.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalConsistencyError
from .powersum import PowerSumQuery, sum_direct

__all__ = ["SearchHit", "find_solutions", "first_nonnegative", "sign_threshold"]


class SearchHit(NamedTuple):
    """A pair (k, m) with 1^k + 2^k + ... + (m-1)^k = m^k exactly; sorts by (k, m)."""

    k: int
    m: int


def first_nonnegative(k: int, m_lo: int, m_hi: int) -> tuple[int, int] | None:
    """(m, S(m-1,k) - m^k) at the first m in [m_lo, m_hi] where that
    difference is >= 0, or None if there is none.  The direct sum is
    carried upward one addition per m, so every difference is exact.
    """
    running = sum_direct(PowerSumQuery(m_lo - 1, k))
    for m in range(m_lo, m_hi + 1):
        power = m**k
        if running >= power:
            return m, running - power
        running += power
    return None


def sign_threshold(k: int) -> tuple[Fraction, int]:
    """(predicted crossing 3(k+1)/2, first integer m >= 3 where S(m-1,k) - m^k
    turns positive; the full-expansion polynomial is D > 0 times it).

    Scans upward from m = 3 with exact direct sums, so every m below the
    returned crossing was observed <= 0.  An exact zero at m (for k = 1, the
    known solution m = 3) reports m + 1, where the difference is positive by
    the single-crossing lemma of :func:`find_solutions`.  No crossing below
    the scan bound 4(k+2) raises :class:`InternalConsistencyError`.
    """
    from fractions import Fraction
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    bound = 4 * (k + 2)
    found = first_nonnegative(k, 3, bound)
    if found is None:
        raise InternalConsistencyError(f"no sign crossing for k={k} scanning m <= {bound}")
    m, diff = found
    return Fraction(3 * (k + 1), 2), m if diff > 0 else m + 1


def find_solutions(
    k_range: tuple[int, int], m_range: tuple[int, int], shards: int = 1
) -> list[SearchHit]:
    """All hits with k and m in the given inclusive ranges, (k, m) sorted.

    Each k is scanned only up to its first non-negative difference, which
    is a hit when it is exactly zero.  This is complete by the lemma:

    *For k >= 1, R_k(m) = S(m-1,k)/m^k is strictly increasing in m >= 2.*
    Proof: R_k(m) = sum_{j=1}^{m-1} (j/m)^k = sum_{j=1}^{m-1} (1 - j/m)^k.
    Each summand (1 - j/m)^k > 0 grows strictly with m, and going from m
    to m+1 adds the positive summand j = m.  Since
    S(m-1,k) - m^k = m^k (R_k(m) - 1), the difference is negative, then
    zero at most once, then positive for every larger m.

    ``shards`` must be >= 1; each k costs only as many steps as its
    crossing point, so the scan runs serially whatever the shard count.
    """
    k_lo, k_hi = k_range
    m_lo, m_hi = m_range
    if k_lo < 1 or k_hi < k_lo:
        raise DomainError(f"invalid k range [{k_lo}, {k_hi}]")
    if m_lo < 3 or m_hi < m_lo:
        raise DomainError(f"invalid m range [{m_lo}, {m_hi}]")
    if shards < 1:
        raise DomainError(f"shard count must be >= 1, got {shards}")
    crossings = ((k, first_nonnegative(k, m_lo, m_hi)) for k in range(k_lo, k_hi + 1))
    return [SearchHit(k, found[0]) for k, found in crossings if found and found[1] == 0]
