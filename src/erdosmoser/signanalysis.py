"""Exact sign evaluation at candidate roots and the per-case dominance
ratios with their limits; the sign crossing is in :mod:`erdosmoser.search`.

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
from typing import NamedTuple, Optional

from .arith import DEFAULT_BUDGET, DivisorBudget
from .candidates import CaseKind, highlighted_candidates, integer_candidates
from .errors import DomainError
from .polyform import cleared_value
from .search import sign_threshold  # noqa: F401  not in __all__; perfbench/tracer.py imports it here

__all__ = [
    "FULL_SET",
    "RatioPoint",
    "RatioSeries",
    "Sign",
    "SignReport",
    "dominance_ratio",
    "dominance_series",
    "sign_at",
    "sign_candidates",
    "sign_reports",
    "sign_summary",
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


def sign_candidates(k_max: int, budget: DivisorBudget = DEFAULT_BUDGET) -> dict[int, tuple[int, ...]]:
    """The integer candidates >= 3 of every k in 2..k_max, enumerated
    within ``budget``: the part of :func:`sign_summary` that can fail, done
    before any value is computed."""
    if k_max < 3:
        raise DomainError(f"k_max must be >= 3, got {k_max}")
    return {k: integer_candidates(k, budget) for k in range(2, k_max + 1)}


def sign_reports(k: int, integers: tuple[int, ...]) -> list[SignReport]:
    """Sign reports of one k: its named candidates, then ``integers`` (its
    integer candidates from :func:`sign_candidates`) as FULL_SET points.

    Every named candidate is also an integer candidate, so each distinct
    m0 is evaluated once and its value shared by its reports.
    """
    points = highlighted_candidates(k) + [(FULL_SET, m0) for m0 in integers]
    values = {m0: cleared_value(k, m0) for m0 in {m0 for _, m0 in points}}
    return [SignReport(k, m0, case, values[m0], Sign.of(values[m0])) for case, m0 in points]


def sign_summary(k_max: int, budget: DivisorBudget = DEFAULT_BUDGET) -> list[SignReport]:
    """Sign reports for every named candidate and every integer candidate
    enumerated within ``budget``, k <= k_max, in (k, case, m0) order: the
    :func:`sign_reports` of each k of :func:`sign_candidates`, which a
    caller can also take one k at a time.  ZERO entries are data, not
    errors; callers decide how loudly to react.
    """
    candidates = sign_candidates(k_max, budget)
    return [report for k, integers in candidates.items() for report in sign_reports(k, integers)]


def dominance_ratio(k: int, case: CaseKind) -> RatioPoint:
    """|negative term group| / positive term group at the case's candidate.

    The groups are those of :func:`~erdosmoser.polyform.cleared_value` at
    m0 = ``case.candidate(k)``: 2(k+1) m0^k over (2(m0-1) + k + 1)(m0-1)^k,
    that is prefactor 2(k+1)/(2(m0-1) + k + 1) times base (m0/(m0-1))^k.
    Exact rational for k <= 200, with the float column derived from it;
    log-space float beyond that cutoff (log1p keeps the base accurate when
    it is 1 + tiny).
    """
    from fractions import Fraction
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
