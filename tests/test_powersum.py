from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosmoser.errors import DomainError
from erdosmoser.powersum import PowerSumQuery, eml_terms, sum_direct, sum_eml_exact


class TestQuery:
    def test_validation(self):
        with pytest.raises(DomainError):
            PowerSumQuery(-1, 2)
        with pytest.raises(DomainError):
            PowerSumQuery(5, 0)

    def test_zero_upper_limit_allowed(self):
        assert sum_direct(PowerSumQuery(0, 3)) == 0


class TestSumDirect:
    def test_examples(self):
        assert sum_direct(PowerSumQuery(2, 1)) == 3
        assert sum_direct(PowerSumQuery(4, 3)) == 100  # 1 + 8 + 27 + 64

    def test_known_non_solution(self):
        # (k, m) = (2, 3): the sum is 5, not 3^2 = 9
        assert sum_direct(PowerSumQuery(2, 2)) == 5
        assert sum_direct(PowerSumQuery(2, 2)) != 3**2

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=15))
    @settings(max_examples=80, deadline=None)
    def test_stepping(self, n, k):
        assert sum_direct(PowerSumQuery(n, k)) - sum_direct(PowerSumQuery(n - 1, k)) == n**k


class TestSumEmlExact:
    def test_hand_breakdown(self):
        # n=4, k=3: 255/4 + 65/2 + (1/12)*3*(16-1) = 100
        assert Fraction(255, 4) + Fraction(65, 2) + Fraction(1, 12) * 3 * 15 == 100
        assert sum_eml_exact(PowerSumQuery(4, 3)) == 100

    def test_no_corrections_for_k1(self):
        assert sum_eml_exact(PowerSumQuery(2, 1)) == 3

    def test_against_direct_oracle_large(self):
        q = PowerSumQuery(199, 20)
        assert sum_eml_exact(q) == sum_direct(q)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            sum_eml_exact(PowerSumQuery(0, 3))

    def test_result_is_integer_valued(self):
        value = sum_eml_exact(PowerSumQuery(17, 9))
        assert value.denominator == 1

    def test_exactness_on_grid(self):
        # the acceptance suite runs the full grid; keep a dense corner here
        for k in range(1, 13):
            running = 0
            for n in range(1, 61):
                running += n**k
                assert sum_eml_exact(PowerSumQuery(n, k)) == running, (n, k)


class TestEmlTerms:
    def test_hand_values(self):
        # k = 4: B_2/2! * 4 = 1/3 on n^3, B_4/4! * 4*3*2 = -1/30 on n^1
        assert list(eml_terms(4)) == [(3, Fraction(1, 3)), (1, Fraction(-1, 30))]

    def test_no_corrections_for_k1(self):
        assert list(eml_terms(1)) == []

    @pytest.mark.parametrize("k", [0, -4])
    def test_rejects_exponent_below_one(self, k):
        with pytest.raises(DomainError, match=f"^exponent must be >= 1, got {k}$"):
            list(eml_terms(k))

    def test_terms_are_lazy(self):
        # the first term needs only B_2, however large k is
        assert next(eml_terms(10**6)) == (10**6 - 1, Fraction(10**6, 12))
