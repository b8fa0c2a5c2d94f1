"""Exact-arithmetic workbench for the Erdős–Moser power-sum equation
1^k + 2^k + ... + (m-1)^k = m^k.

Every computation is exact (big integers and rationals): direct power
sums, full and truncated Euler-Maclaurin expansions, the cleared integer
polynomials whose rational roots bound possible solutions, sign and
dominance-ratio analyses at the candidate roots, and a brute-force
solution search.  The :mod:`erdosmoser.cli` module serializes all of it as
CSV/JSON datasets.
"""

from .arith import DEFAULT_BUDGET, DivisorBudget, bernoulli, binomial, divisors, falling_factorial, lcm_all
from .approx import RealArg, correction_ratio, first_correction, sum_eml_leading, sum_eml_truncated
from .candidates import CandidateSet, CaseKind, Source, candidate_roots, highlighted_candidates
from .errors import BudgetExceededError, DomainError, InternalConsistencyError
from .polyform import (
    ClearedPoly,
    IntPoly,
    cleared_poly,
    cleared_value,
    constant_and_linear_terms,
    eml_multiplier,
    eval_poly,
    full_eml_poly,
    quotient_poly,
)
from .powersum import PowerSumQuery, eml_terms, sum_direct, sum_eml_exact
from .search import SearchHit, check_pair, find_solutions
from .signanalysis import (
    FULL_SET,
    RatioPoint,
    RatioSeries,
    Sign,
    SignReport,
    asymptotic_value,
    dominance_limit,
    dominance_ratio,
    dominance_series,
    sign_at,
    sign_summary,
    sign_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CandidateSet",
    "CaseKind",
    "ClearedPoly",
    "DEFAULT_BUDGET",
    "DivisorBudget",
    "DomainError",
    "FULL_SET",
    "IntPoly",
    "InternalConsistencyError",
    "PowerSumQuery",
    "RatioPoint",
    "RatioSeries",
    "RealArg",
    "SearchHit",
    "Sign",
    "SignReport",
    "Source",
    "asymptotic_value",
    "bernoulli",
    "binomial",
    "candidate_roots",
    "check_pair",
    "cleared_poly",
    "cleared_value",
    "constant_and_linear_terms",
    "correction_ratio",
    "divisors",
    "dominance_limit",
    "dominance_ratio",
    "dominance_series",
    "eml_multiplier",
    "eml_terms",
    "eval_poly",
    "falling_factorial",
    "find_solutions",
    "first_correction",
    "full_eml_poly",
    "highlighted_candidates",
    "lcm_all",
    "quotient_poly",
    "sign_at",
    "sign_summary",
    "sign_threshold",
    "sum_direct",
    "sum_eml_exact",
    "sum_eml_leading",
    "sum_eml_truncated",
]
