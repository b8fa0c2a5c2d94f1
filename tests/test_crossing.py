"""The crossing locator against the literal scans it replaced.

``horner_threshold`` scans the full-expansion polynomial with Horner's
rule; ``scan_one_k`` sweeps every m of the range with the running sum and
raises if the difference turns back non-positive after being positive,
which the single-crossing lemma in ``find_solutions`` rules out.
"""

from itertools import count

import pytest

import erdosmoser
from erdosmoser import search, signanalysis
from erdosmoser.errors import DomainError, InternalConsistencyError
from erdosmoser.polyform import eval_poly, full_eml_poly
from erdosmoser.powersum import PowerSumQuery, sum_direct
from erdosmoser.search import SearchHit, find_solutions, first_nonnegative, sign_crossing
from erdosmoser.signanalysis import sign_threshold


def horner_threshold(k):
    poly = full_eml_poly(k).poly
    return next(m for m in count(3) if eval_poly(poly, m) > 0)


def scan_one_k(k, m_lo, m_hi):
    hits = []
    running = sum_direct(PowerSumQuery(m_lo - 1, k))
    turned_positive = False
    for m in range(m_lo, m_hi + 1):
        power = m**k
        diff = running - power
        if diff == 0:
            hits.append(SearchHit(k, m))
        if diff > 0:
            turned_positive = True
        elif turned_positive:
            raise InternalConsistencyError(f"difference returned to {diff} at k={k}, m={m}")
        running += power
    return hits


def full_range_search(k_range, m_range):
    ks = range(k_range[0], k_range[1] + 1)
    return sorted(hit for k in ks for hit in scan_one_k(k, *m_range))


@pytest.mark.parametrize("k", list(range(1, 65)) + [300, 360, 420])
def test_threshold_matches_horner_scan(k):
    assert sign_threshold(k)[1] == horner_threshold(k)


def first_positive(k):
    """The first m >= 3 with S(m-1,k) > m^k, by a running sum that starts at
    S(2,k) and stops only at a strictly positive difference."""
    m, total = 3, 1 + 2**k
    while total <= m**k:
        total += m**k
        m += 1
    return m


def test_crossing_matches_first_positive_scan():
    for k in range(1, 301):
        assert sign_crossing(k) == sign_threshold(k)[1] == first_positive(k), k


def test_crossing_at_a_difference_of_one(monkeypatch):
    # a first non-negative difference of 1 is positive: the crossing is its m
    monkeypatch.setattr(search, "first_nonnegative", lambda k, m_lo, m_hi: (7, 1))
    assert sign_crossing(5) == 7


def test_crossing_lies_in_its_window():
    # the lemma in sign_crossing's docstring: k + 2 <= crossing <= 2(k+1)
    crossings = {k: sign_crossing(k) for k in range(1, 401)}
    assert [k for k, m in crossings.items() if not k + 2 <= m <= 2 * (k + 1)] == []
    assert crossings[1] == 4  # the upper bound is attained


def test_crossing_domain():
    # the package's one exponent check, reached through the scan's query
    for k in (0, -3):
        with pytest.raises(DomainError, match=f"^exponent must be >= 1, got {k}$"):
            sign_crossing(k)


@pytest.mark.parametrize(
    "k_range, m_range",
    [
        ((1, 12), (3, 5000)),  # acceptance criterion 8's grid
        ((1, 40), (3, 2000)),
        ((2, 40), (300, 400)),  # m_lo past every crossing
        ((1, 1), (4, 50)),  # m_lo just past the zero at (1, 3)
        ((1, 1), (3, 3)),  # the single point of the known solution
        ((5, 9), (3, 3)),
    ],
)
def test_search_matches_full_range_scan(k_range, m_range):
    assert find_solutions(k_range, m_range) == full_range_search(k_range, m_range)


def test_crossing_has_one_home():
    # signanalysis owns it and the package hands back the same function;
    # search keeps only the exact crossing it calls
    assert signanalysis.sign_threshold is erdosmoser.sign_threshold
    assert not hasattr(search, "sign_threshold")
    owners = [name for name in erdosmoser._MODULES
              if "sign_threshold" in getattr(erdosmoser, name).__all__]
    assert owners == ["signanalysis"]


class TestFirstNonnegative:
    def test_difference_is_exact(self):
        for k in range(1, 30):
            m, diff = first_nonnegative(k, 3, 10 * k + 10)
            assert diff == sum_direct(PowerSumQuery(m - 1, k)) - m**k >= 0
            assert sum_direct(PowerSumQuery(m - 2, k)) < (m - 1) ** k

    def test_known_solution_is_zero(self):
        assert first_nonnegative(1, 3, 100) == (3, 0)

    def test_none_below_crossing(self):
        # S(7,4) - 8^4 > 0 but S(6,4) - 7^4 < 0: nothing on [3, 7]
        assert first_nonnegative(4, 3, 7) is None
        assert first_nonnegative(4, 3, 8)[0] == 8

    def test_past_crossing_returns_m_lo(self):
        m, diff = first_nonnegative(10, 500, 600)
        assert m == 500 and diff > 0
