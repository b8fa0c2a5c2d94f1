"""The crossing locator against the literal scans it replaced.

``horner_threshold`` scans the full-expansion polynomial with Horner's
rule; ``scan_one_k`` sweeps every m of the range with the running sum and
raises if the difference turns back non-positive after being positive,
which the single-crossing lemma in ``find_solutions`` rules out.
"""

import pytest

import erdosmoser
from erdosmoser import search, signanalysis
from erdosmoser.errors import InternalConsistencyError
from erdosmoser.polyform import eval_poly, full_eml_poly
from erdosmoser.powersum import PowerSumQuery, sum_direct
from erdosmoser.search import SearchHit, find_solutions, first_nonnegative
from erdosmoser.signanalysis import sign_threshold


def horner_threshold(k):
    poly = full_eml_poly(k).poly
    return next(m for m in range(3, 4 * (k + 2) + 1) if eval_poly(poly, m) > 0)


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
    # search owns it; signanalysis and the package hand back the same function
    assert search.sign_threshold is signanalysis.sign_threshold is erdosmoser.sign_threshold
    owners = [name for name in erdosmoser._MODULES
              if "sign_threshold" in getattr(erdosmoser, name).__all__]
    assert owners == ["search"]


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
