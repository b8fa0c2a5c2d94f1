import math
from collections import Counter
from fractions import Fraction

import pytest

from erdosmoser import signanalysis
from erdosmoser.candidates import CaseKind, candidate_roots, highlighted_candidates
from erdosmoser.arith import DivisorBudget
from erdosmoser.errors import BudgetExceededError, DomainError
from erdosmoser.powersum import PowerSumQuery, sum_direct
from erdosmoser.signanalysis import (
    FULL_SET,
    RatioPoint,
    Sign,
    SignReport,
    case_point,
    dominance_ratio,
    dominance_series,
    sign_candidates,
    sign_reports,
    sign_summary,
    sign_threshold,
)


class TestSignReports:
    def test_reference_values(self):
        # k = 4's named cases, then its integer candidates, which repeat them
        reports = sign_reports(4, (3, 6))
        assert [(r.case, r.m0, r.value, r.sign) for r in reports] == [
            (CaseKind.EVEN_KM1, 3, -663, Sign.NEG),
            (CaseKind.EVEN_2KM1, 6, -3582, Sign.NEG),
            (FULL_SET, 3, -663, Sign.NEG),
            (FULL_SET, 6, -3582, Sign.NEG),
        ]

    def test_flip_side(self):
        reports = sign_reports(8, ())
        assert [(r.case, r.m0, r.sign) for r in reports] == [
            (CaseKind.EVEN_KM1, 7, Sign.NEG),
            (CaseKind.EVEN_2KM1, 14, Sign.POS),
        ]


class TestSignOf:
    @pytest.mark.parametrize("value, sign", [(1, Sign.POS), (0, Sign.ZERO), (-1, Sign.NEG)])
    def test_unit_values(self, value, sign):
        assert Sign.of(value) is sign


class TestSignSummary:
    def test_no_zero_entries_small(self):
        reports = sign_summary(10)
        assert all(r.sign is not Sign.ZERO for r in reports)

    def test_k3_rows(self):
        rows = [r for r in sign_summary(5) if r.k == 3 and r.case is not FULL_SET]
        assert [(r.case, r.m0, r.sign) for r in rows] == [
            (CaseKind.ODD_KP1, 4, Sign.NEG),
            (CaseKind.ODD_PROD, 4, Sign.NEG),
        ]

    def test_k5_prod_positive(self):
        rows = [r for r in sign_summary(5) if r.k == 5 and r.case is CaseKind.ODD_PROD]
        assert rows and rows[0].m0 == 18 and rows[0].sign is Sign.POS

    def test_full_set_entries_present(self):
        rows = [r for r in sign_summary(10) if r.k == 10 and r.case is FULL_SET]
        assert [r.m0 for r in rows] == [3, 6, 9, 18]

    def test_each_point_evaluated_once(self, monkeypatch):
        # every named candidate is also a divisor candidate, so the named
        # points would otherwise be evaluated twice
        calls = Counter()
        cleared_value = signanalysis.cleared_value

        def counted(k, m0):
            calls[k, m0] += 1
            return cleared_value(k, m0)

        monkeypatch.setattr(signanalysis, "cleared_value", counted)
        reports = sign_summary(60)
        monkeypatch.undo()
        assert set(calls.values()) == {1}
        assert set(calls) == {(r.k, r.m0) for r in reports}
        oracle = [SignReport(k, m0, case, value) for k in range(2, 61)
                  for case, m0 in highlighted_candidates(k)
                  + [(FULL_SET, m0) for m0 in candidate_roots(k).integer_candidates_ge3]
                  for value in [cleared_value(k, m0)]]
        assert reports == oracle

    def test_summary_is_its_per_k_step(self):
        candidates = sign_candidates(60)
        assert list(candidates) == list(range(2, 61))
        assert all(candidates[k] == candidate_roots(k).integer_candidates_ge3 for k in candidates)
        per_k = [sign_reports(k, integers) for k, integers in candidates.items()]
        assert [r for reports in per_k for r in reports] == sign_summary(60)
        assert all({r.k for r in reports} <= {k} for k, reports in zip(candidates, per_k))

    def test_candidates_fail_before_any_evaluation(self, monkeypatch):
        # the first overrun is at k = 201: (k+1)(k-2) = 2 * 101 * 199, and
        # budget 100 leaves the cofactor 101 * 199 = 20099 > 100^2
        calls = []
        monkeypatch.setattr(signanalysis, "cleared_value", lambda k, m0: calls.append((k, m0)))
        with pytest.raises(BudgetExceededError, match="cofactor 20099 exceeds trial budget 100"):
            sign_candidates(400, DivisorBudget(100))
        with pytest.raises(DomainError):
            sign_candidates(2)
        assert calls == []

    def test_canonical_order(self):
        # generation order is all that keeps it; nothing sorts the reports
        reports = sign_summary(60)
        assert reports == sorted(
            reports,
            key=lambda r: (r.k, r.case is None, -1 if r.case is None else list(CaseKind).index(r.case), r.m0),
        )


REFERENCE_RATIOS = [
    (CaseKind.EVEN_2KM1, [(4, 1.382), (6, 1.054), (8, 0.930), (10, 0.866)]),
    (CaseKind.ODD_KM2, [(5, 9.112), (7, 4.768), (9, 3.640), (11, 3.131)]),
    (CaseKind.ODD_KP1, [(3, 1.896), (5, 1.866), (7, 1.852), (9, 1.844)]),
    (CaseKind.ODD_PROD, [(3, 1.896), (5, 0.399), (7, 0.222), (9, 0.154)]),
]


class TestDominanceRatio:
    @pytest.mark.parametrize("case,pairs", REFERENCE_RATIOS)
    def test_tabulated_values(self, case, pairs):
        for k, want in pairs:
            assert abs(dominance_ratio(k, case).value - want) <= 1e-3, (case, k)

    def test_exact_example(self):
        # k = 4: (10/15) * (6/5)^4 = 864/625
        assert dominance_ratio(4, CaseKind.EVEN_2KM1).exact == Fraction(864, 625)

    def test_parity_and_minimum_enforced(self):
        with pytest.raises(DomainError):
            dominance_ratio(5, CaseKind.EVEN_KM1)
        with pytest.raises(DomainError):
            dominance_ratio(3, CaseKind.ODD_KM2)

    def test_group_recompute_identity(self):
        # ratio == |negative term| / (positive two-term group), recomputed
        # directly from the grouped products at the candidate point
        for case in CaseKind:
            for k in range(case.min_k, 60, 2):
                m0 = case.candidate(k)
                negative = 2 * (k + 1) * m0**k
                positive = (2 * (m0 - 1) + (k + 1)) * (m0 - 1) ** k
                assert dominance_ratio(k, case).exact == Fraction(negative, positive)

    def test_exact_float_agreement(self):
        for case in CaseKind:
            for k in range(case.min_k, 120, 2):
                p = dominance_ratio(k, case)
                assert p.exact is not None
                assert abs(p.exact - Fraction(p.value)) <= Fraction(1, 10**9) * p.exact

    def test_beyond_cutoff_drops_exact(self):
        p = dominance_ratio(10001, CaseKind.ODD_KP1)
        assert p.exact is None and p.value > 0

    def test_cutoff_boundary_consistency(self):
        # just past the exact cutoff k = 200, the log-space float agrees
        # with the exact closed-form ratio
        for case in CaseKind:
            k = 202 if case.even_k else 201
            m0 = case.candidate(k)
            exact = Fraction(2 * (k + 1) * m0**k, (2 * (m0 - 1) + k + 1) * (m0 - 1) ** k)
            point = dominance_ratio(k, case)
            assert point.exact is None
            assert math.isclose(point.value, float(exact), rel_tol=1e-12)

    def test_coinciding_cases_at_k3(self):
        a = dominance_ratio(3, CaseKind.ODD_KP1).exact
        b = dominance_ratio(3, CaseKind.ODD_PROD).exact
        assert a == b


def _ratio_parts(case, k):
    """(prefactor, base) with ratio = prefactor * base**k, derived by hand
    for each case from the cleared polynomial at its candidate."""
    if case is CaseKind.EVEN_KM1:
        return Fraction(2 * (k + 1), 3 * (k - 1)), Fraction(k - 1, k - 2)
    if case is CaseKind.EVEN_2KM1:
        return Fraction(2 * (k + 1), 5 * (k - 1)), Fraction(2 * (k - 1), 2 * k - 3)
    if case is CaseKind.ODD_KM2:
        return Fraction(2 * (k + 1), 3 * k - 5), Fraction(k - 2, k - 3)
    if case is CaseKind.ODD_KP1:
        return Fraction(2 * (k + 1), 3 * k + 1), Fraction(k + 1, k)
    return (
        Fraction(2 * (k + 1), 2 * k * k - k - 5),
        Fraction((k + 1) * (k - 2), k * k - k - 3),
    )


class TestRatioAgainstHandDerivedParts:
    @pytest.mark.parametrize("case", list(CaseKind), ids=lambda c: c.name)
    def test_exact(self, case):
        for k in range(case.min_k, 201, 2):
            pref, base = _ratio_parts(case, k)
            assert dominance_ratio(k, case).exact == pref * base**k, k

    @pytest.mark.parametrize("case", list(CaseKind), ids=lambda c: c.name)
    def test_float_identical_past_cutoff(self, case):
        for k in range(case.min_k, 2002, 2):
            pref, base = _ratio_parts(case, k)
            if k <= 200:  # the exact cutoff
                want = float(pref * base**k)
            else:
                want = math.exp(math.log(float(pref)) + k * math.log1p(float(base - 1)))
            assert dominance_ratio(k, case).value == want, k

    def test_limits_identical(self):
        want = {
            CaseKind.EVEN_KM1: 2.0 * math.e / 3.0,
            CaseKind.EVEN_2KM1: 2.0 * math.sqrt(math.e) / 5.0,
            CaseKind.ODD_KM2: 2.0 * math.e / 3.0,
            CaseKind.ODD_KP1: 2.0 * math.e / 3.0,
            CaseKind.ODD_PROD: 0.0,
        }
        for case in CaseKind:
            assert case.limit == want[case], case


class TestCasePoint:
    @pytest.mark.parametrize("case", list(CaseKind), ids=lambda c: c.name)
    def test_matches_sign_at_and_ratio(self, case):
        # the case's report from sign_reports, as signs prints it; floats
        # compared with ==, so both sides of the exact cutoff match bit for bit
        for k in range(case.min_k, 2003, 2):
            report = next(r for r in sign_reports(k, ()) if r.case is case)
            assert case_point(k, case) == (report, dominance_ratio(k, case).value), k

    def test_one_closed_form_call(self, monkeypatch):
        calls = []
        real = signanalysis.cleared_groups
        monkeypatch.setattr(signanalysis, "cleared_groups", lambda k, m: calls.append(k) or real(k, m))
        for k in (5, 201, 999):
            case_point(k, CaseKind.ODD_KP1)
        assert calls == [5, 201, 999]

    def test_parity_and_minimum_enforced(self):
        with pytest.raises(DomainError):
            case_point(5, CaseKind.EVEN_KM1)
        with pytest.raises(DomainError):
            case_point(3, CaseKind.ODD_KM2)


class TestDominanceLimit:
    def test_two_e_thirds(self):
        want = 1.812187885639363  # 2e/3
        for case in (CaseKind.EVEN_KM1, CaseKind.ODD_KM2, CaseKind.ODD_KP1):
            assert abs(case.limit - want) < 1e-12

    def test_two_sqrt_e_fifths(self):
        assert abs(CaseKind.EVEN_2KM1.limit - 0.659488508280051) < 1e-12

    def test_vanishing_limit(self):
        assert CaseKind.ODD_PROD.limit == 0.0


class TestDominanceSeries:
    def test_even_2km1_from_8(self):
        series = dominance_series(CaseKind.EVEN_2KM1, 8, 14)
        assert series.decreasing_from_start
        assert abs(series.points[0].value - 0.930) <= 1e-3

    def test_odd_kp1_table(self):
        series = dominance_series(CaseKind.ODD_KP1, 3, 9)
        values = [round(p.value, 3) for p in series.points]
        assert values == [1.896, 1.866, 1.852, 1.844]
        assert series.decreasing_from_start

    def test_large_k_approaches_limit(self):
        point = dominance_ratio(10000, CaseKind.EVEN_KM1)
        assert abs(point.value - CaseKind.EVEN_KM1.limit) <= 2e-3

    def test_all_cases_decrease_from_their_start(self):
        for case in CaseKind:
            series = dominance_series(case, case.min_k, case.min_k + 80)
            assert series.decreasing_from_start, case

    @pytest.mark.parametrize("values, decreasing", [
        ([3, 2, 1.5, 1], True),
        ([1, 1.5, 0.5], False),  # a rise exactly at the start
        ([3, 2, 2.5, 1], False),  # a rise between adjacent samples only
    ], ids=["falling", "rise-at-start", "rise-between-adjacent"])
    def test_verdict_over_hand_built_points(self, monkeypatch, values, decreasing):
        # the samples at k = 4 and 6 rise, but the verdict reads only those
        # from EVEN_2KM1's monotone start, k = 8, on
        case = CaseKind.EVEN_2KM1
        ratios = dict(zip(range(4, 100, 2), [0.1, 0.2, *values]))
        monkeypatch.setattr(signanalysis, "dominance_ratio",
                            lambda k, c: RatioPoint(k, None, ratios[k]))
        series = dominance_series(case, 4, 2 + 2 * len(ratios))
        assert case.monotone_start == 8
        assert [p.value for p in series.points] == list(ratios.values())
        assert series.decreasing_from_start is decreasing

    def test_equal_points_are_not_strictly_less(self):
        for exact in (Fraction(3, 2), None):
            point = RatioPoint(4, exact, 1.5)
            assert not signanalysis._strictly_less(point._replace(k=6), point)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(DomainError):
            dominance_series(CaseKind.EVEN_KM1, 5, 11)

    def test_odd_step_rejected(self):
        with pytest.raises(DomainError):
            dominance_series(CaseKind.ODD_KP1, 3, 9, step=3)

    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            dominance_series(CaseKind.ODD_KP1, 9, 3)


class TestSignThreshold:
    def test_k4(self):
        assert sign_threshold(4) == (Fraction(15, 2), 8)

    def test_k2(self):
        # S(4,2) = 30 > 25 while S(3,2) = 14 < 16
        assert sign_threshold(2) == (Fraction(9, 2), 5)

    def test_k1_passes_known_solution(self):
        predicted, crossing = sign_threshold(1)
        assert predicted == 3
        assert crossing == 4  # exact zero at m = 3, first positive at 4

    def test_bad_k(self):
        with pytest.raises(DomainError):
            sign_threshold(0)

    def test_crossing_envelope_sampled(self):
        # dev-time oracle scan over all k in [2, 64] established this
        # envelope; the acceptance suite re-verifies it against direct sums
        for k in range(2, 65, 7):
            predicted, crossing = sign_threshold(k)
            assert abs(crossing - predicted) <= Fraction(1, 10) * (k + 1) + 1, k
