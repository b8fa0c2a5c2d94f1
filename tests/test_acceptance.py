"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time
from fractions import Fraction

import pytest

from erdosmoser.candidates import CaseKind, candidate_roots, highlighted_candidates
from erdosmoser.cli import main
from erdosmoser.polyform import cleared_poly, eval_poly, full_eml_poly, quotient_poly
from erdosmoser.powersum import PowerSumQuery, sum_direct, sum_eml_exact
from erdosmoser.search import SearchHit, find_solutions
from erdosmoser.signanalysis import (
    Sign,
    dominance_ratio,
    dominance_series,
    sign_at,
    sign_threshold,
)


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_exactness_oracle():
    # sum_eml_exact == sum_direct for all k in [1,20], m in [2,200]
    # (3980 cases), exact equality, under 60 s.
    started = time.monotonic()
    cases = 0
    ok = True
    for k in range(1, 21):
        running = 1  # S(1, k)
        for m in range(2, 201):
            if sum_eml_exact(PowerSumQuery(m - 1, k)) != running:
                ok = False
            cases += 1
            running += m**k
    elapsed = time.monotonic() - started
    ok = ok and cases == 3980 and elapsed < 60.0
    report(1, "exactness oracle, 3980 cases", ok)


def test_criterion_02_reference_polynomial_values():
    v43 = eval_poly(cleared_poly(4).poly, 3)
    v65 = eval_poly(cleared_poly(6).poly, 5)
    v87 = eval_poly(cleared_poly(8).poly, 7)
    v109 = eval_poly(cleared_poly(10).poly, 9)
    ok = v43 == -663
    ok = ok and v65 == -157305 and f"{v65:.3g}" == "-1.57e+05"
    ok = ok and abs(v87 - (-6.85e7)) <= 0.005 * 6.85e7
    ok = ok and abs(v109 - (-4.77e10)) <= 0.005 * 4.77e10
    report(2, "candidate-point values", ok)


RATIO_TABLES = [
    (CaseKind.EVEN_2KM1, [(4, 1.382), (6, 1.054), (8, 0.930), (10, 0.866)]),
    (CaseKind.ODD_KM2, [(5, 9.112), (7, 4.768), (9, 3.640), (11, 3.131)]),
    (CaseKind.ODD_KP1, [(3, 1.896), (5, 1.866), (7, 1.852), (9, 1.844)]),
    (CaseKind.ODD_PROD, [(3, 1.896), (5, 0.399), (7, 0.222), (9, 0.154)]),
]


def test_criterion_03_ratio_tables():
    ok = True
    for case, pairs in RATIO_TABLES:
        for k, expected in pairs:
            if abs(dominance_ratio(k, case).value - expected) > 1e-3:
                ok = False
    report(3, "ratio tables to 1e-3", ok)


def test_criterion_04_limits_and_monotonicity():
    two_e_thirds = CaseKind.EVEN_KM1.limit
    two_sqrt_e_fifths = CaseKind.EVEN_2KM1.limit
    ok = True
    for case in (CaseKind.EVEN_KM1, CaseKind.ODD_KM2, CaseKind.ODD_KP1):
        k = 10000 if case.even_k else 10001
        ok = ok and abs(dominance_ratio(k, case).value - two_e_thirds) <= 2e-3
    ok = ok and abs(dominance_ratio(10000, CaseKind.EVEN_2KM1).value - two_sqrt_e_fifths) <= 1e-3
    ok = ok and dominance_ratio(10001, CaseKind.ODD_PROD).value <= 1e-2
    # monotone decrease on sampled grids from each claim's start index
    starts = {
        CaseKind.EVEN_KM1: 4,
        CaseKind.EVEN_2KM1: 8,
        CaseKind.ODD_KM2: 5,
        CaseKind.ODD_KP1: 3,
        CaseKind.ODD_PROD: 5,
    }
    for case, start in starts.items():
        series = dominance_series(case, start, start + 96)
        ok = ok and series.monotone_start == start and series.decreasing_from_start
        # sparse continuation toward the limit keeps decreasing
        tail = [series.points[-1].value]
        for k in (400, 1000, 10000):
            k += 0 if case.even_k else 1
            tail.append(dominance_ratio(k, case).value)
        ok = ok and all(b < a for a, b in zip(tail, tail[1:]))
    report(4, "limits at k=1e4 and monotone decrease", ok)


EXPECTED_SIGN = {
    CaseKind.EVEN_KM1: lambda k: Sign.NEG,
    CaseKind.EVEN_2KM1: lambda k: Sign.NEG if k in (4, 6) else Sign.POS,
    CaseKind.ODD_KM2: lambda k: Sign.NEG,
    CaseKind.ODD_KP1: lambda k: Sign.NEG,
    CaseKind.ODD_PROD: lambda k: Sign.NEG if k == 3 else Sign.POS,
}


def test_criterion_05_sign_table_and_no_vanishing():
    ok = True
    for k in range(2, 201):
        for case, m0 in highlighted_candidates(k):
            if sign_at(k, m0, case).sign is not EXPECTED_SIGN[case](k):
                ok = False
        for m0 in candidate_roots(k).integer_candidates_ge3:
            if sign_at(k, m0).sign is Sign.ZERO:
                ok = False
    report(5, "sign table reproduced, no zero to k=200", ok)


def test_criterion_06_coefficient_laws():
    ok = True
    for k in range(2, 201):
        a0, a1 = cleared_poly(k).poly.coeffs[:2]
        if k % 2 == 0:
            ok = ok and a0 == 2 * (k - 1)
        else:
            ok = ok and a0 == 0
            ok = ok and a1 == (k + 1) * (k - 2)
            ok = ok and quotient_poly(k).coeffs[0] == (k + 1) * (k - 2)
    report(6, "constant/linear coefficient laws to k=200", ok)


def test_criterion_07_master_full_expansion_identity():
    ok = True
    for k in range(1, 21):
        cp = full_eml_poly(k)
        running = 0  # S(0, k)
        for m in range(1, 201):
            if eval_poly(cp.poly, m) != cp.multiplier * (running - m**k):
                ok = False
            running += m**k
    report(7, "master identity k<=20, m<=200", ok)


def test_criterion_08_search():
    started = time.monotonic()
    results = [find_solutions((1, 12), (3, 5000), shards=s) for s in (1, 4, 8)]
    elapsed = time.monotonic() - started
    ok = all(r == [SearchHit(1, 3)] for r in results)
    ok = ok and results[0] == results[1] == results[2]
    ok = ok and elapsed < 60.0
    report(8, "search k<=12, m<=5000 finds only (1,3)", ok)


def test_criterion_09_threshold_envelope():
    # crossing re-derived from direct sums (independent of the polynomial
    # route), single sign transition per k, within 10% + 1 of 3(k+1)/2
    ok = True
    for k in range(2, 65):
        predicted, crossing = sign_threshold(k)
        tolerance = predicted / 10 + 1
        ok = ok and abs(crossing - predicted) <= tolerance
        running = sum_direct(PowerSumQuery(2, k))
        transitions = 0
        first_positive = None
        previous_positive = None
        for m in range(3, 4 * (k + 2) + 1):
            positive = running - m**k > 0
            if previous_positive is not None and positive != previous_positive:
                transitions += 1
            if positive and first_positive is None:
                first_positive = m
            previous_positive = positive
            running += m**k
        ok = ok and transitions == 1 and first_positive == crossing
    report(9, "sign crossing near 3(k+1)/2, single crossing", ok)


def test_criterion_10_figure_data(capsys):
    code1 = main(["figure1"])
    out1 = capsys.readouterr().out
    code2 = main(["figure1"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    lines = out1.splitlines()
    ok = ok and len(lines) == 1 + 19998  # header + 101 x 198 rows
    header = lines[0].split(",")
    spot = dict(zip(header, lines[1].split(",")))
    ok = ok and spot["k"] == "2" and spot["m"] == "3"
    ok = ok and spot["sum_exact"] == "5"
    ok = ok and spot["sum_approx"] == "29/6"
    ok = ok and spot["diff_exact"] == "-4"
    ok = ok and spot["diff_corrected"] == "-4"
    with capsys.disabled():
        report(10, "figure1 grid: 19998 rows, spot row, stable bytes", ok)
