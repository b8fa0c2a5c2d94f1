"""Exact sign evaluation at candidate roots, the per-case dominance
ratios with their limits, and the large-m sign-crossing analysis.

Values come from the integer closed form of the cleared polynomial
(``polyform.cleared_value``), never from floats; the expanded polynomial
equals it identically.  The dominance ratio |negative term group| /
(positive term group) explains WHY a sign holds at a candidate: above 1
the lone negative term wins, below 1 the positive group does.  Ratios are
exact rationals up to a cutoff and log-space floats beyond it, where only
limits matter.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import DEFAULT_BUDGET, DivisorBudget
from .candidates import CaseKind, candidate_roots, highlighted_candidates
from .errors import DomainError, InternalConsistencyError
from .polyform import cleared_value
from .search import first_nonnegative

__all__ = [
    "FULL_SET",
    "RatioPoint",
    "RatioSeries",
    "Sign",
    "SignReport",
    "asymptotic_value",
    "dominance_ratio",
    "dominance_series",
    "sign_at",
    "sign_summary",
    "sign_threshold",
]

#: Marker for sign reports coming from the full enumerated divisor set
#: rather than one of the named cases.
FULL_SET = None

# Largest k for which dominance ratios are computed as exact rationals; the
# powers involved stay near k*log2(k) bits, which is cheap.
_EXACT_CUTOFF = 200


class Sign(Enum):
    NEG = -1
    ZERO = 0
    POS = 1

    @classmethod
    def of(cls, value) -> "Sign":
        if value > 0:
            return cls.POS
        if value < 0:
            return cls.NEG
        return cls.ZERO


class SignReport(NamedTuple):
    """Exact value and sign of the cleared polynomial at one candidate.

    A ZERO sign would exhibit a rational root of the cleared polynomial --
    an extraordinary finding that callers must surface loudly, never
    swallow.
    """

    k: int
    m0: int
    case: Optional[CaseKind]  # FULL_SET (None) = from the enumerated divisor set
    value: int
    sign: Sign


class RatioPoint(NamedTuple):
    """Dominance ratio at one (case, k), exact when cheap enough."""

    k: int
    case: CaseKind
    exact: Optional[Fraction]  # present when k <= the exact cutoff
    value: float
    limit: float


class RatioSeries(NamedTuple):
    """Sampled ratio values plus a monotonicity verdict.

    ``decreasing_from_start`` covers only the sampled points with
    k >= monotone_start (each case's analysis begins there); it is
    trivially true when fewer than two such points were sampled.
    """

    points: tuple[RatioPoint, ...]
    monotone_start: int
    decreasing_from_start: bool


def sign_at(k: int, m0: int, case: Optional[CaseKind] = FULL_SET) -> SignReport:
    """Evaluate the cleared polynomial's closed form at integer m0 and
    classify the sign."""
    if k < 2:
        raise DomainError(f"sign analysis requires k >= 2, got {k}")
    if m0 < 3:
        raise DomainError(f"candidates are constrained to m0 >= 3, got {m0}")
    value = cleared_value(k, m0)
    return SignReport(k, m0, case, value, Sign.of(value))


def sign_summary(k_max: int, budget: DivisorBudget = DEFAULT_BUDGET) -> list[SignReport]:
    """Sign reports for every named candidate and every integer candidate
    enumerated within ``budget``, k <= k_max, in (k, case, m0) order.

    ZERO entries are data, not errors; callers decide how loudly to react.
    """
    if k_max < 3:
        raise DomainError(f"k_max must be >= 3, got {k_max}")
    reports = []
    for k in range(2, k_max + 1):
        for case, m0 in highlighted_candidates(k):
            reports.append(sign_at(k, m0, case))
        for m0 in candidate_roots(k, budget).integer_candidates_ge3:
            reports.append(sign_at(k, m0, FULL_SET))
    return reports


def dominance_ratio(k: int, case: CaseKind) -> RatioPoint:
    """|negative term group| / positive term group at the case's candidate.

    The groups are those of :func:`~erdosmoser.polyform.cleared_value` at
    m0 = ``case.candidate(k)``: 2(k+1) m0^k over (2(m0-1) + k + 1)(m0-1)^k,
    that is prefactor 2(k+1)/(2(m0-1) + k + 1) times base (m0/(m0-1))^k.
    Exact rational for k <= 200, with the float column derived from it;
    log-space float beyond that cutoff (log1p keeps the base accurate when
    it is 1 + tiny).
    """
    m0 = case.candidate(k)
    pref = Fraction(2 * (k + 1), 2 * (m0 - 1) + k + 1)
    base = Fraction(m0, m0 - 1)
    if k <= _EXACT_CUTOFF:
        exact: Optional[Fraction] = pref * base**k
        value = float(exact)
    else:
        exact = None
        value = math.exp(math.log(float(pref)) + k * math.log1p(float(base - 1)))
    return RatioPoint(k, case, exact, value, case.limit)


def dominance_series(case: CaseKind, k_from: int, k_to: int, step: int = 2) -> RatioSeries:
    """Ratio values over k = k_from, k_from + step, ..., <= k_to.

    The step must be even so the sampled k keep the case's parity.  The
    strict-decrease verdict is evaluated over the sampled grid only,
    starting at the case's monotone-start index; it is a statement about
    the samples, not a symbolic proof.
    """
    case.require(k_from)
    if step < 2 or step % 2 != 0:
        raise DomainError(f"step must be a positive even number, got {step}")
    if k_to < k_from:
        raise DomainError(f"empty range [{k_from}, {k_to}]")
    points = tuple(dominance_ratio(k, case) for k in range(k_from, k_to + 1, step))
    start = case.monotone_start
    tail = [p for p in points if p.k >= start]
    decreasing = all(_strictly_less(nxt, prev) for prev, nxt in zip(tail, tail[1:]))
    return RatioSeries(points, start, decreasing)


def _strictly_less(b: RatioPoint, a: RatioPoint) -> bool:
    if a.exact is not None and b.exact is not None:
        return b.exact < a.exact
    return b.value < a.value


def asymptotic_value(m: int, k: int) -> Fraction:
    """The factored large-m form m^k (m/(k+1) - 3/2 + 1/(2m)), exactly.

    Predicts a sign change near m = 3(k+1)/2.  The form drops the
    Bernoulli corrections, which enter at order m^{k-1}; near the crossing
    it is therefore a heuristic, and far from it (m >= 2(k+1), say) its
    sign agrees with the exact polynomial.
    """
    if m < 3:
        raise DomainError(f"m must be >= 3, got {m}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return m**k * (Fraction(m, k + 1) - Fraction(3, 2) + Fraction(1, 2 * m))


def sign_threshold(k: int) -> tuple[Fraction, int]:
    """(predicted crossing 3(k+1)/2, first integer m >= 3 where S(m-1,k) - m^k
    turns positive; the full-expansion polynomial is D > 0 times it).

    Scans upward from m = 3 with exact direct sums, so every m below the
    returned crossing was observed <= 0.  An exact zero at m (for k = 1, the
    known solution m = 3) reports m + 1, where the difference is positive by
    the single-crossing lemma of :func:`~erdosmoser.search.find_solutions`.
    No crossing below the scan bound 4(k+2) raises
    :class:`InternalConsistencyError`.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    bound = 4 * (k + 2)
    found = first_nonnegative(k, 3, bound)
    if found is None:
        raise InternalConsistencyError(f"no sign crossing for k={k} scanning m <= {bound}")
    m, diff = found
    return Fraction(3 * (k + 1), 2), m if diff > 0 else m + 1
