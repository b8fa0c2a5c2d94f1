from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosmoser.candidates import (
    CaseKind,
    Source,
    _constant_term,
    candidate_roots,
    highlighted_candidates,
    integer_candidates,
)
from erdosmoser.arith import DivisorBudget
from erdosmoser.errors import BudgetExceededError, DomainError
from erdosmoser.polyform import cleared_poly, eval_poly


class TestCaseKind:
    def test_parity_and_minimums(self):
        assert CaseKind.EVEN_KM1.accepts(4)
        assert not CaseKind.EVEN_KM1.accepts(5)
        assert not CaseKind.EVEN_KM1.accepts(2)
        assert CaseKind.ODD_KM2.accepts(5)
        assert not CaseKind.ODD_KM2.accepts(3)
        assert CaseKind.ODD_KP1.accepts(3)

    def test_candidate_values(self):
        assert CaseKind.EVEN_KM1.candidate(10) == 9
        assert CaseKind.EVEN_2KM1.candidate(10) == 18
        assert CaseKind.ODD_KM2.candidate(5) == 3
        assert CaseKind.ODD_KP1.candidate(5) == 6
        assert CaseKind.ODD_PROD.candidate(5) == 18

    def test_require_raises(self):
        with pytest.raises(DomainError):
            CaseKind.ODD_KM2.candidate(3)

    def test_values_and_order_unchanged(self):
        assert [c.value for c in CaseKind] == [
            "even k, candidate k - 1",
            "even k, candidate 2(k - 1)",
            "odd k, candidate k - 2",
            "odd k, candidate k + 1",
            "odd k, candidate (k + 1)(k - 2)",
        ]
        for case in CaseKind:
            assert CaseKind(case.value) is case and CaseKind[case.name] is case
            assert repr(case) == f"<CaseKind.{case.name}: {case.value!r}>"

    @pytest.mark.parametrize("field", ["even_k", "min_k", "monotone_start", "limit"])
    def test_row_fields_are_read_only(self, field):
        # a write would change the case for every caller in the process
        case = CaseKind.EVEN_KM1
        before = getattr(case, field)
        with pytest.raises(AttributeError):
            setattr(case, field, 2)
        assert getattr(case, field) == before
        assert not case.accepts(2) and case.candidate(4) == 3

    @pytest.mark.parametrize("case", list(CaseKind), ids=lambda c: c.name)
    def test_min_k_is_first_k_with_candidate_at_least_three(self, case):
        parity = 0 if case.even_k else 1
        first = next(k for k in range(parity, 100, 2) if case._formula(k) >= 3)
        assert case.min_k == first
        assert not case.accepts(case.min_k - 2) and case.accepts(case.min_k)

    @pytest.mark.parametrize("case", list(CaseKind), ids=lambda c: c.name)
    def test_monotone_start_admitted(self, case):
        assert case.monotone_start >= case.min_k
        assert case.monotone_start % 2 == case.min_k % 2


class TestCandidateRoots:
    def test_even_k4(self):
        assert candidate_roots(4).integer_candidates_ge3 == (3, 6)

    def test_even_k10_full_set_exceeds_named_values(self):
        # divisors of 18 admit 3 and 6 as well as the named 9 and 18
        assert candidate_roots(10).integer_candidates_ge3 == (3, 6, 9, 18)

    def test_odd_k3(self):
        cs = candidate_roots(3)
        assert cs.source is Source.QUOTIENT
        assert cs.all_candidates == (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))
        assert cs.integer_candidates_ge3 == (4,)

    def test_even_source_and_no_zero_root(self):
        cs = candidate_roots(4)
        assert cs.source is Source.CLEARED

    def test_small_k_rejected(self):
        with pytest.raises(DomainError):
            candidate_roots(1)

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_divisibility_recheck_from_expansion(self, k):
        # construction-independent: read the constant term off the actual
        # polynomial (cleared for even k; for odd k, its quotient by m,
        # whose constant is the linear coefficient) and re-check the
        # divisibility conditions for every enumerated candidate.
        coeffs = cleared_poly(k).poly.coeffs
        constant = coeffs[0] if k % 2 == 0 else coeffs[1]
        leading = coeffs[-1]
        assert _constant_term(k)[0] == constant
        cs = candidate_roots(k)
        for c in cs.all_candidates:
            assert c > 0
            assert constant % c.numerator == 0, (k, c)
            assert leading % c.denominator == 0, (k, c)
        assert set(cs.integer_candidates_ge3) == {
            int(c) for c in cs.all_candidates if c.denominator == 1 and c >= 3
        }

    def test_all_candidates_complete_and_in_order(self):
        # oracle: divisors d of the constant term by trial division up to its
        # square root, with their halves, as one sorted set of Fractions
        for k in range(2, 1001):
            constant = 2 * (k - 1) if k % 2 == 0 else (k + 1) * (k - 2)
            divs = {d for i in range(1, isqrt(constant) + 1) if constant % i == 0 for d in (i, constant // i)}
            expected = tuple(sorted({Fraction(d) for d in divs} | {Fraction(d, 2) for d in divs}))
            assert candidate_roots(k).all_candidates == expected, k

    def test_integer_candidates_in_order(self):
        # oracle: the integers >= 3 among all candidates, in increasing order
        for k in range(2, 301):
            cs = candidate_roots(k)
            expected = tuple(int(c) for c in cs.all_candidates if c.denominator == 1 and c >= 3)
            assert cs.integer_candidates_ge3 == expected, k

    def test_integer_candidates_without_fractions(self):
        for k in range(2, 401):
            assert integer_candidates(k) == candidate_roots(k).integer_candidates_ge3, k
        with pytest.raises(DomainError):
            integer_candidates(1)
        # (k+1)(k-2) = 154 = 2 * 7 * 11; budget 2 leaves cofactor 77 either way
        for enumerate_ in (candidate_roots, integer_candidates):
            with pytest.raises(BudgetExceededError, match="cofactor 77 "):
                enumerate_(13, DivisorBudget(2))

    def test_no_candidate_at_or_above_three_is_a_root(self):
        # evaluating over the complete candidate set: nothing with value
        # >= 3 (the equation's constraint on m) vanishes
        for k in range(2, 31):
            poly = cleared_poly(k).poly
            for c in candidate_roots(k).all_candidates:
                if c >= 3:
                    assert eval_poly(poly, c) != 0, (k, c)

    def test_enumeration_is_sound_k2_root_found(self):
        # 2m^3 - 9m^2 + 2 = (2m - 1)(m^2 - 4m - 2): its one rational root,
        # m = 1/2, lies below the m >= 3 constraint but IS enumerated,
        # demonstrating that no rational root can escape the candidate set.
        cs = candidate_roots(2)
        assert Fraction(1, 2) in cs.all_candidates
        assert eval_poly(cleared_poly(2).poly, Fraction(1, 2)) == 0


class TestHighlighted:
    def test_even_k4(self):
        assert highlighted_candidates(4) == [
            (CaseKind.EVEN_KM1, 3),
            (CaseKind.EVEN_2KM1, 6),
        ]

    def test_odd_k5(self):
        assert highlighted_candidates(5) == [
            (CaseKind.ODD_KM2, 3),
            (CaseKind.ODD_KP1, 6),
            (CaseKind.ODD_PROD, 18),
        ]

    def test_odd_k3_coinciding_values(self):
        assert highlighted_candidates(3) == [
            (CaseKind.ODD_KP1, 4),
            (CaseKind.ODD_PROD, 4),
        ]

    @pytest.mark.parametrize("k", [1, 2])
    def test_too_small_k_gives_empty(self, k):
        assert highlighted_candidates(k) == []

    @pytest.mark.parametrize("k", [0, -2])
    def test_exponent_below_one_rejected(self, k):
        # no case accepts such a k, so without the check this would be []
        with pytest.raises(DomainError):
            highlighted_candidates(k)

    def test_matches_filtered_loop(self):
        # oracle: every admitted case whose candidate is >= 3, in member order
        for k in range(1, 501):
            expected = []
            for case in CaseKind:
                if case.accepts(k):
                    value = case.candidate(k)
                    if value >= 3:
                        expected.append((case, value))
            assert highlighted_candidates(k) == expected, k

    def test_subset_of_full_enumeration(self):
        for k in range(3, 201):
            full = set(candidate_roots(k).integer_candidates_ge3)
            for _case, m0 in highlighted_candidates(k):
                assert m0 in full, (k, m0)
