import math
from fractions import Fraction

import pytest

from erdosmoser.approx import RealArg, sum_eml_leading
from erdosmoser.arith import bernoulli
from erdosmoser.candidates import candidate_roots, highlighted_candidates
from erdosmoser.errors import DomainError
from erdosmoser.polyform import (
    IntPoly,
    cleared_groups,
    cleared_poly,
    cleared_value,
    eml_multiplier,
    eval_poly,
    full_eml_poly,
)
from erdosmoser.powersum import PowerSumQuery, eml_terms, sum_direct


def reference_full_eml_poly(k):
    """full_eml_poly built the long way, kept as an oracle:
    cleared_poly / 2(k+1) plus every weight * ((m-1)^e - 1), expanded,
    times D."""
    leading = cleared_poly(k)
    coeffs = [Fraction(c, leading.multiplier) for c in leading.poly.coeffs]
    for e, weight in eml_terms(k):
        for i in range(e + 1):
            coeffs[i] += weight * math.comb(e, i) * (-1) ** (e - i)
        coeffs[0] -= weight
    multiplier = eml_multiplier(k)
    cleared = [c * multiplier for c in coeffs]
    assert all(c.denominator == 1 for c in cleared), k
    return IntPoly(tuple(int(c) for c in cleared))


def reference_cleared_poly(k):
    """cleared_poly built the long way, kept as an oracle: 2(m-1)^{k+1}
    and (k+1)(m-1)^k expanded by two binomial loops, then -2(k+1) m^k and
    k - 1 added."""
    c = [0] * (k + 2)
    for i in range(k + 2):
        c[i] += 2 * math.comb(k + 1, i) * (-1) ** (k + 1 - i)
    for i in range(k + 1):
        c[i] += (k + 1) * math.comb(k, i) * (-1) ** (k - i)
    c[k] -= 2 * (k + 1)
    c[0] += k - 1
    return tuple(c)


class TestIntPoly:
    def test_degree(self):
        assert IntPoly((1, 2)).degree == 1
        assert IntPoly(()).degree == -1

    def test_zero_poly_evaluates_to_zero(self):
        assert eval_poly(IntPoly(()), 17) == 0
        assert eval_poly(IntPoly(()), Fraction(7, 2)) == 0

    def test_horner_hand_values(self):
        p = IntPoly((2, 0, -9, 2))
        assert eval_poly(p, 3) == 2 + 0 - 81 + 54  # -25
        assert eval_poly(p, Fraction(1, 2)) == Fraction(2, 1) - Fraction(9, 4) + Fraction(1, 4)

    def test_int_argument_gives_int(self):
        assert isinstance(eval_poly(IntPoly((1, 1)), 3), int)


class TestClearedPoly:
    def test_k2_coefficients(self):
        cp = cleared_poly(2)
        assert cp.poly.coeffs == (2, 0, -9, 2)  # 2m^3 - 9m^2 + 2
        assert cp.multiplier == 6

    def test_reference_values(self):
        assert eval_poly(cleared_poly(4).poly, 3) == -663
        # hand expansion: 2*4^7 + 7*4^6 - 14*5^6 + 5
        assert eval_poly(cleared_poly(6).poly, 5) == -157305
        # hand expansion: 2*5^5 + 5*5^4 - 10*6^4 + 3
        assert eval_poly(cleared_poly(4).poly, 6) == -3582

    def test_degree_and_leading(self):
        for k in range(1, 51):
            p = cleared_poly(k).poly
            assert p.degree == k + 1
            assert p.coeffs[-1] == 2

    def test_matches_leading_approximant(self):
        # cleared form == 2(k+1) * (leading approximant - m^k) at rational m
        points = [Fraction(3), Fraction(7, 2), Fraction(4), Fraction(9, 2), Fraction(11)]
        for k in range(2, 31):
            poly = cleared_poly(k).poly
            for m in points:
                lhs = eval_poly(poly, m)
                rhs = 2 * (k + 1) * (sum_eml_leading(RealArg(m), k) - m**k)
                assert lhs == rhs, (k, m)

    def test_bad_k(self):
        with pytest.raises(DomainError):
            cleared_poly(0)


class TestCoefficientLaws:
    def test_examples(self):
        assert cleared_poly(4).poly.coeffs[0] == 6  # 2(k-1)
        assert cleared_poly(3).poly.coeffs[0] == 0
        assert cleared_poly(3).poly.coeffs[1] == 4  # (k+1)(k-2)

    def test_parity_law_to_200(self):
        for k in range(2, 201):
            a0, _ = cleared_poly(k).poly.coeffs[:2]
            assert a0 == (2 * (k - 1) if k % 2 == 0 else 0), k

    def test_matches_two_loop_expansion_to_300(self):
        # equal as ints: a float such as 2.0 would pass == but not the type check
        for k in range(1, 301):
            coeffs = cleared_poly(k).poly.coeffs
            assert coeffs == reference_cleared_poly(k), k
            assert all(type(c) is int for c in coeffs), k

    def test_closed_form_laws_to_300(self):
        for k in range(1, 301):
            c = cleared_poly(k).poly.coeffs
            assert len(c) == k + 2, k
            assert c[k + 1] == 2 and c[k] == -3 * (k + 1), k
            assert c[0] == (2 * (k - 1) if k % 2 == 0 else 0), k
            if k >= 2:
                assert c[k - 1] == 0, k
                assert c[1] == (k + 1) * (k - 2) * (-1 if k % 2 == 0 else 1), k
            if k >= 3:
                assert c[k - 2] == math.comb(k + 1, 3), k


class TestClearedValue:
    # Horner on the expanded polynomial is the oracle for the closed form.
    def test_matches_horner_at_every_candidate(self):
        # criterion 5's grid: highlighted and integer candidates, k <= 200
        for k in range(2, 201):
            poly = cleared_poly(k).poly
            points = [m0 for _, m0 in highlighted_candidates(k)]
            points += candidate_roots(k).integer_candidates_ge3
            for m in points:
                assert cleared_value(k, m) == eval_poly(poly, m), (k, m)

    def test_matches_horner_on_small_m(self):
        for k in range(1, 41):
            poly = cleared_poly(k).poly
            for m in range(3, 4 * (k + 2) + 1):
                assert cleared_value(k, m) == eval_poly(poly, m), (k, m)

    def test_groups_make_the_value(self):
        for k in range(1, 41):
            poly = cleared_poly(k).poly
            for m in range(61):
                positive, negative = cleared_groups(k, m)
                assert positive - negative + k - 1 == cleared_value(k, m) == eval_poly(poly, m), (k, m)

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            cleared_value(0, 5)
        with pytest.raises(DomainError):
            cleared_groups(0, 5)


class TestQuotientPoly:
    # for odd k the constant term vanishes, and the quotient by m, whose
    # rational roots the candidates are, is coeffs[1:]
    def test_k3(self):
        assert cleared_poly(3).poly.coeffs == (0, 4, 0, -12, 2)  # m(2m^3 - 12m^2 + 4)

    def test_k5_constant(self):
        assert cleared_poly(5).poly.coeffs[1] == 6 * 3  # (k+1)(k-2)

    def test_shift_identity(self):
        # m factors out for all odd k in [3, 99], leaving the quotient's
        # constant (k+1)(k-2) and leading coefficient 2
        for k in range(3, 100, 2):
            coeffs = cleared_poly(k).poly.coeffs
            assert coeffs[0] == 0
            assert coeffs[1] == (k + 1) * (k - 2)
            assert coeffs[-1] == 2


class TestFullEmlPoly:
    def test_k2(self):
        cp = full_eml_poly(2)
        assert cp.multiplier == 6
        assert cp.poly.coeffs == (0, 1, -9, 2)  # 2m^3 - 9m^2 + m

    def test_k4_multiplier_and_leading(self):
        cp = full_eml_poly(4)
        assert cp.multiplier == 120  # lcm(5, 2, 2!, 4!)
        assert cp.poly.coeffs[-1] == 24  # D/(k+1)

    def test_multiplier_is_lcm_of_all_denominators(self):
        # lcm(k+1, (2*floor(k/2))!) == lcm(k+1, 2, (2r)! for r = 1..floor(k/2))
        for k in range(1, 201):
            factorials = [math.factorial(2 * r) for r in range(1, k // 2 + 1)]
            assert eml_multiplier(k) == math.lcm(k + 1, 2, *factorials), k

    def test_degree_and_leading_law(self):
        for k in range(1, 31):
            cp = full_eml_poly(k)
            assert cp.poly.degree == k + 1
            assert cp.poly.coeffs[-1] * (k + 1) == cp.multiplier

    def test_master_identity_sampled(self):
        # poly(m) == D * (S(m-1, k) - m^k); acceptance runs the full grid.
        # For the large k, the k + 2 points m = 1..k+2 pin every one of the
        # k + 2 coefficients.
        grid = [(k, 60) for k in range(1, 13)]
        grid += [(k, k + 2) for k in (30, 31, 60, 61, 100, 101)]
        for k, m_max in grid:
            cp = full_eml_poly(k)
            running = 0
            for m in range(1, m_max + 1):
                assert eval_poly(cp.poly, m) == cp.multiplier * (running - m**k), (k, m)
                running += m**k

    def test_k1_factored_form(self):
        # D * (m(m-1)/2 - m) = m^2 - 3m: the k = 1 case in closed form
        cp = full_eml_poly(1)
        assert cp.multiplier == 2
        assert cp.poly.coeffs == (0, -3, 1)

    def test_k_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(DomainError):
                full_eml_poly(k)

    def test_equals_binomial_construction(self):
        for k in range(1, 151):
            assert full_eml_poly(k).poly == reference_full_eml_poly(k), k


class TestFullEmlCoefficientLaws:
    # Faulhaber: D * (m^{k+1}/(k+1) - (3/2) m^k + sum_r w_r m^{k+1-2r})
    def test_support(self):
        for k in range(1, 201):
            coeffs = full_eml_poly(k).poly.coeffs
            support = {i for i, c in enumerate(coeffs) if c}
            assert support == {k + 1, k} | {k + 1 - 2 * r for r in range(1, k // 2 + 1)}, k

    def test_top_three_and_constant(self):
        for k in range(1, 201):
            cp = full_eml_poly(k)
            c, d = cp.poly.coeffs, cp.multiplier
            assert c[k + 1] * (k + 1) == d, k
            assert 2 * c[k] == -3 * d, k
            if k >= 2:
                assert 12 * c[k - 1] == d * k, k
            assert c[0] == 0, k

    def test_low_coefficients(self):
        # c1 = D B_k for even k; c1 = 0 and c2 = D k B_{k-1} / 2 for odd k >= 3
        for k in range(2, 201):
            cp = full_eml_poly(k)
            c, d = cp.poly.coeffs, cp.multiplier
            if k % 2 == 0:
                assert c[1] == d * bernoulli(k), k
            else:
                assert c[1] == 0, k
                assert c[2] == d * k * bernoulli(k - 1) / 2, k
