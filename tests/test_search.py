import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdosmoser import search
from erdosmoser.errors import DomainError
from erdosmoser.powersum import PowerSumQuery, sum_direct
from erdosmoser.search import SearchHit, find_solutions


def check_pair(k, m):
    """A one-point search: an exact test of the single pair (k, m)."""
    return find_solutions((k, k), (m, m)) == [SearchHit(k, m)]


class TestCheckPair:
    def test_known_solution(self):
        assert check_pair(1, 3)

    def test_non_solutions(self):
        assert not check_pair(2, 3)  # 5 != 9
        assert not check_pair(1, 4)  # 6 != 4

    def test_domain(self):
        with pytest.raises(DomainError):
            check_pair(0, 3)
        with pytest.raises(DomainError):
            check_pair(1, 2)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=3, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_definition(self, k, m):
        assert check_pair(k, m) == (sum_direct(PowerSumQuery(m - 1, k)) == m**k)


class TestFindSolutions:
    def test_small_sweep(self):
        assert find_solutions((1, 5), (3, 100)) == [SearchHit(1, 3)]

    def test_k2_has_none(self):
        assert find_solutions((2, 2), (3, 1000)) == []

    def test_k1_excluding_three(self):
        # m(m - 3) = 0 has no root with m >= 4
        assert find_solutions((1, 1), (4, 100)) == []

    def test_k1_closed_form(self):
        hits = find_solutions((1, 1), (3, 100))
        roots = [m for m in range(3, 101) if m * m - 3 * m == 0]
        assert [h.m for h in hits] == roots == [3]

    def test_shard_invariance(self):
        expected = find_solutions((1, 6), (3, 200), shards=1)
        for shards in (2, 4, 8):
            assert find_solutions((1, 6), (3, 200), shards=shards) == expected

    def test_sorted_output(self):
        hits = find_solutions((1, 3), (3, 50), shards=3)
        assert hits == sorted(hits)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            find_solutions((0, 3), (3, 10))
        with pytest.raises(DomainError):
            find_solutions((1, 3), (2, 10))
        with pytest.raises(DomainError):
            find_solutions((3, 1), (3, 10))
        with pytest.raises(DomainError):
            find_solutions((1, 3), (3, 10), shards=0)

    def test_single_point_range(self):
        assert find_solutions((1, 1), (3, 3)) == [SearchHit(1, 3)]

    def test_each_k_scanned_once(self, monkeypatch):
        # a scan past k_hi changes no hit, only the work
        calls, scan = [], search.first_nonnegative

        def spy(k, m_lo, m_hi):
            calls.append(k)
            return scan(k, m_lo, m_hi)

        monkeypatch.setattr(search, "first_nonnegative", spy)
        assert find_solutions((1, 6), (3, 50)) == [SearchHit(1, 3)]
        assert calls == [1, 2, 3, 4, 5, 6]


class TestOddExponentLemma:
    """For odd k, pairing i with m-1-i in 2S(m-1,k) = sum_{i<m} (i^k + (m-1-i)^k)
    gives (m-1) | 2S(m-1,k).  A solution then needs (m-1) | 2m^k, and as
    gcd(m-1, m) = 1 that means (m-1) | 2: m <= 3, and at m = 3 only k = 1."""

    def test_m_minus_1_divides_twice_the_sum(self):
        for k in range(1, 100, 2):
            total = 0  # S(m-1, k), carried upward
            for m in range(2, 1001):
                total += (m - 1) ** k
                assert 2 * total % (m - 1) == 0, (k, m)

    def test_no_hit_with_odd_k(self):
        assert [hit for hit in find_solutions((3, 99), (3, 1000)) if hit.k % 2] == []
