import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosmoser import arith
from erdosmoser.arith import (
    DivisorBudget,
    bernoulli,
    binomial,
    divisors,
    falling_factorial,
    lcm_all,
)
from erdosmoser.errors import BudgetExceededError, DomainError


class TestBernoulli:
    def test_base_case(self):
        assert bernoulli(0) == 1

    def test_b2(self):
        assert bernoulli(2) == Fraction(1, 6)

    def test_b4_hand_recurrence(self):
        # C(5,0)B0 + C(5,1)B1 + C(5,2)B2 + C(5,4)B4 = 0 solved by hand
        assert bernoulli(4) == Fraction(-1, 30)

    def test_b1_convention(self):
        assert bernoulli(1) == Fraction(-1, 2)

    @pytest.mark.parametrize("n", [3, 5, 7, 41])
    def test_odd_indices_rejected(self, n):
        with pytest.raises(DomainError):
            bernoulli(n)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli(-2)

    def test_defining_recurrence_even_indices(self):
        # sum_{j=0}^{n} C(n+1, j) B_j == 0 exactly, for all even n <= 40,
        # with B_1 = -1/2 and odd B_j (j >= 3) zero.
        for n in range(2, 41, 2):
            total = Fraction(n + 1, 1) * Fraction(-1, 2)  # j = 1 term
            for j in range(0, n + 1, 2):
                total += math.comb(n + 1, j) * bernoulli(j)
            assert total == 0, n


class TestFallingFactorial:
    def test_example(self):
        assert falling_factorial(5, 3) == 60

    @pytest.mark.parametrize("k", [0, 1, 7, 50])
    def test_empty_product(self, k):
        assert falling_factorial(k, 0) == 1

    def test_vanishes_past_degree(self):
        assert falling_factorial(4, 5) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            falling_factorial(5, -1)

    def test_binomial_factorial_identity(self):
        for k in range(51):
            for n in range(k + 1):
                assert falling_factorial(k, n) == binomial(k, n) * math.factorial(n)


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 3) == 35

    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_choose_zero(self, n):
        assert binomial(n, 0) == 1

    def test_out_of_range_convention(self):
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0

    def test_negative_upper_rejected(self):
        with pytest.raises(DomainError):
            binomial(-2, 1)

    def test_pascal_triangle_oracle(self):
        row = [1]
        for n in range(20):
            assert [binomial(n, i) for i in range(n + 1)] == row
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


class TestDivisors:
    def test_examples(self):
        assert divisors(18) == [1, 2, 3, 6, 9, 18]
        assert divisors(1) == [1]
        assert divisors(6) == [1, 2, 3, 6]

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            divisors(0)

    def test_count_law_hand_case(self):
        # 360 = 2^3 * 3^2 * 5 has (3+1)(2+1)(1+1) = 24 divisors
        assert len(divisors(360)) == 24

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_sqrt_enumeration_oracle(self, n):
        small, large = [], []
        d = 1
        while d * d <= n:
            if n % d == 0:
                small.append(d)
                if d != n // d:
                    large.append(n // d)
            d += 1
        assert divisors(n) == small + large[::-1]

    def test_budget_exceeded_names_cofactor(self):
        p = 1_000_003  # prime, far above the budget below
        with pytest.raises(BudgetExceededError, match=str(p * p)):
            divisors(p * p, DivisorBudget(max_trial=1000))

    def test_within_budget_semiprime(self):
        # cofactor p <= max_trial^2 is certifiably prime, no error
        p = 1_000_003
        assert divisors(2 * p, DivisorBudget(max_trial=1001)) == [1, 2, p, 2 * p]

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            DivisorBudget(max_trial=1)


class TestLcmAll:
    def test_examples(self):
        assert lcm_all([3, 2, 2]) == 6
        # prime factorization by hand: lcm(5, 2, 2, 24) = 2^3 * 3 * 5
        assert lcm_all([5, 2, 2, 24]) == 120

    @pytest.mark.parametrize("n", [1, 7, 360])
    def test_single_element(self, n):
        assert lcm_all([n]) == n

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            lcm_all([])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            lcm_all([3, 0])


class TestBernoulliConcurrency:
    def test_cold_cache_filled_by_concurrent_callers(self):
        # Four first-time callers race to fill the append-only cache; a
        # shortened switch interval makes an unlocked fill interleave.
        serial = [bernoulli(2 * i) for i in range(151)]
        saved = list(arith._BERNOULLI_EVEN)
        results = []
        old_interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            del arith._BERNOULLI_EVEN[1:]
            threads = [
                threading.Thread(target=lambda: results.append(bernoulli(300)))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == [serial[150]] * 4
            assert arith._BERNOULLI_EVEN == serial
        finally:
            sys.setswitchinterval(old_interval)
            arith._BERNOULLI_EVEN[:] = saved
