from fractions import Fraction

import pytest

from erdosmoser.approx import (
    RealArg,
    correction_ratio,
    first_correction,
    sum_eml_leading,
    sum_eml_truncated,
)
from erdosmoser.errors import DomainError
from erdosmoser.powersum import PowerSumQuery, sum_direct


def at(m) -> RealArg:
    return RealArg(Fraction(m))


class TestRealArg:
    def test_below_two_rejected(self):
        with pytest.raises(DomainError):
            RealArg(Fraction(3, 2))

    def test_coercion(self):
        assert RealArg(3).m == Fraction(3)
        assert RealArg(Fraction(7, 2)).m == Fraction(7, 2)


class TestLeading:
    def test_examples(self):
        assert sum_eml_leading(at(3), 1) == 3  # (4-1)/2 + (1+2)/2
        assert sum_eml_leading(at(5), 3) == Fraction(385, 4)  # 255/4 + 65/2
        assert sum_eml_leading(at(3), 2) == Fraction(29, 6)  # 7/3 + 5/2

    def test_k1_equals_exact_sum(self):
        for m in range(2, 60):
            assert sum_eml_leading(at(m), 1) == Fraction(m * (m - 1), 2)

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            sum_eml_leading(at(3), 0)


class TestFirstCorrection:
    def test_examples(self):
        assert first_correction(at(5), 3) == Fraction(15, 4)
        assert first_correction(at(3), 4) == Fraction(7, 3)  # (4/12)(8-1)

    def test_only_correction_for_k3(self):
        # one correction term exists at k = 3; it closes the gap entirely
        assert sum_eml_leading(at(5), 3) + first_correction(at(5), 3) == 100

    @pytest.mark.parametrize("m", [2, 3, Fraction(7, 2), 10])
    def test_vanishes_for_k1(self, m):
        assert first_correction(at(m), 1) == 0

    @pytest.mark.parametrize("k", [0, -4])
    def test_bad_exponent(self, k):
        # the k/12 factor would give 0 at k = 0 rather than an error
        with pytest.raises(DomainError, match=f"^exponent must be >= 1, got {k}$"):
            first_correction(RealArg(5), k)


class TestCorrectionRatio:
    def test_example(self):
        # (7/3) / (32/5)
        assert correction_ratio(at(3), 4) == Fraction(35, 96)

    def test_zero_for_k1(self):
        assert correction_ratio(at(3), 1) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            correction_ratio(at(Fraction(5, 2)), 4)

    def test_closed_form_identity(self):
        # exact identity on integer and half-integer points, 3 <= m <= 50
        points = [Fraction(m) for m in range(3, 51)]
        points += [Fraction(2 * m + 1, 2) for m in range(3, 50)]
        for m in points:
            b = m - 1
            for k in range(1, 31):
                closed = Fraction(k * (k + 1), 12) * (1 / b**2 - 1 / b ** (k + 1))
                assert correction_ratio(at(m), k) == closed, (m, k)

    def test_large_m_asymptote(self):
        # ratio approaches (k(k+1)/12) / (m-1)^2 within 1% at m = 201, k = 4
        ratio = correction_ratio(at(201), 4)
        approx = Fraction(4 * 5, 12) / 200**2
        assert abs(ratio - approx) <= approx / 100


class TestTruncated:
    def test_examples(self):
        assert sum_eml_truncated(at(3), 2, 1) == 5  # 29/6 + 1/6
        assert sum_eml_truncated(at(5), 3, 1) == 100  # 385/4 + 15/4

    def test_p_zero_is_leading(self):
        for m in (2, 3, Fraction(9, 2), 17):
            for k in (1, 4, 9):
                assert sum_eml_truncated(at(m), k, 0) == sum_eml_leading(at(m), k)

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            sum_eml_truncated(at(3), 2, -1)

    def test_extra_terms_vanish(self):
        # p beyond floor(k/2) adds nothing
        for k in (2, 3, 7, 8):
            full = sum_eml_truncated(at(9), k, k // 2)
            assert sum_eml_truncated(at(9), k, k // 2 + 3) == full

    def test_full_order_is_exact_and_error_shrinks(self):
        # With all corrections the truncation error is exactly zero.  The
        # error |truncated - exact| is non-increasing in p wherever the
        # expansion is in its asymptotic regime; at m = 3 with k >= 16 the
        # early corrections overshoot and the error transiently grows, so
        # monotonicity genuinely fails there (asserted below, not hidden).
        for k in range(2, 21):
            pmax = k // 2
            for m in range(3, 101, 7):
                exact = sum_direct(PowerSumQuery(m - 1, k))
                errors = [
                    abs(sum_eml_truncated(at(m), k, p) - exact) for p in range(pmax + 1)
                ]
                assert errors[-1] == 0, (m, k)
                if m > 3 or k <= 15:
                    assert all(
                        errors[p + 1] <= errors[p] for p in range(pmax)
                    ), (m, k, errors)

    def test_overshoot_corner_is_real(self):
        # m = 3, k = 20: the first correction overshoots the whole
        # remaining error, so the p = 1 truncation is worse than p = 0.
        exact = sum_direct(PowerSumQuery(2, 20))
        e0 = abs(sum_eml_truncated(at(3), 20, 0) - exact)
        e1 = abs(sum_eml_truncated(at(3), 20, 1) - exact)
        assert e1 > e0
