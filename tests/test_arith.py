import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosmoser import arith
from erdosmoser.arith import DivisorBudget, bernoulli, divisors
from erdosmoser.errors import BudgetExceededError, DomainError
from erdosmoser.powersum import eml_terms


def recurrence_even_bernoulli(n_max):
    """B_0, B_2, ..., B_{n_max} from the defining recurrence in Fractions,
    quadratic in n_max: the oracle for the tangent-number routine."""
    even = [Fraction(1)]
    for m in range(1, n_max // 2 + 1):
        nn = 2 * m
        acc = Fraction(-(nn + 1), 2)  # the B_1 term
        for j in range(m):
            acc += math.comb(nn + 1, 2 * j) * even[j]
        even.append(-acc / (nn + 1))
    return even


@pytest.fixture(scope="module")
def oracle():
    return recurrence_even_bernoulli(400)


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

    def test_matches_recurrence_every_even_n_to_400(self, oracle):
        for n in range(0, 401, 2):
            assert bernoulli(n) == oracle[n // 2], n

    def test_even_sequence_matches_recurrence(self, oracle):
        # 200 is no power of two, so the last block is cut at the cap
        assert list(arith._even_bernoulli(200)) == oracle[1:201]
        assert list(arith._even_bernoulli(0)) == []

    def test_eml_terms_match_recurrence(self, oracle):
        for k in range(1, 61):
            expected = [(k - (2 * r - 1),
                         oracle[r] * math.perm(k, 2 * r - 1) / math.factorial(2 * r))
                        for r in range(1, k // 2 + 1)]
            assert list(eml_terms(k)) == expected, k

    @pytest.mark.parametrize("n", [500, 1000])
    def test_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        assert bernoulli(n) == Fraction(*map(int, mpmath.bernfrac(n)))

    def test_matches_sympy_even_indices(self):
        # sympy takes B_1 = +1/2, so only even indices are compared
        sympy = pytest.importorskip("sympy")
        for n in range(0, 61, 2):
            b = sympy.bernoulli(n)
            assert bernoulli(n) == Fraction(int(b.p), int(b.q)), n


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

    def test_default_budget(self):
        assert arith.DEFAULT_BUDGET == DivisorBudget(1_000_000)

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            DivisorBudget(max_trial=1)


def test_cold_first_call_seeds_b0():
    # a fresh process: the first call is at an even index above 0, and
    # B_0 and B_1 follow it
    code = ("from fractions import Fraction; from erdosmoser.arith import bernoulli; "
            "assert bernoulli(4) == Fraction(-1, 30); "
            "assert bernoulli(0) == 1 and bernoulli(1) == Fraction(-1, 2)")
    src = str(Path(arith.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestBernoulliConcurrency:
    def test_concurrent_callers_get_the_serial_values(self):
        # Nothing is shared, so four callers racing under a very short switch
        # interval must each get what one caller gets alone.
        def work():
            return bernoulli(300), list(eml_terms(301))

        serial = work()
        results = []
        old_interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=lambda: results.append(work())) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 4

    def test_module_holds_no_mutable_state(self):
        mutable = (list, dict, set, bytearray, type(threading.Lock()), type(threading.RLock()))
        shared = [name for name, value in vars(arith).items()
                  if isinstance(value, mutable) and name not in ("__all__", "__builtins__")]
        assert shared == []
        assert "threading" not in vars(arith)
