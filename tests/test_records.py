"""The package's value records: immutable, hashable, shown as
``Name(field=value, ...)``, and the four that check their inputs keep
their messages."""

from fractions import Fraction

import pytest

from erdosmoser import (
    CandidateSet,
    CaseKind,
    ClearedPoly,
    DivisorBudget,
    DomainError,
    IntPoly,
    PowerSumQuery,
    RatioPoint,
    RatioSeries,
    RealArg,
    SearchHit,
    SignReport,
    candidate_roots,
    cleared_poly,
    dominance_ratio,
    dominance_series,
    sign_at,
)

RECORDS = {
    CandidateSet: candidate_roots(4),
    ClearedPoly: cleared_poly(4),
    SearchHit: SearchHit(1, 3),
    SignReport: sign_at(4, 5),
    RatioPoint: dominance_ratio(4, CaseKind.EVEN_KM1),
    RatioSeries: dominance_series(CaseKind.EVEN_KM1, 4, 8),
    PowerSumQuery: PowerSumQuery(3, 2),
    DivisorBudget: DivisorBudget(10),
    RealArg: RealArg(Fraction(7, 2)),
    IntPoly: IntPoly((1, 2)),
}
by_record = pytest.mark.parametrize(
    "cls, record", RECORDS.items(), ids=[cls.__name__ for cls in RECORDS]
)


@by_record
def test_fields_are_read_only(cls, record):
    assert type(record) is cls
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "no new attributes either"


@by_record
def test_hash_and_equality_by_value(cls, record):
    rebuilt = cls(*record)
    assert rebuilt == record and hash(rebuilt) == hash(record)


@by_record
def test_repr_names_every_field(cls, record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (PowerSumQuery, (-1, 2), "upper limit must be >= 0, got -1"),
        (PowerSumQuery, (5, 0), "exponent must be >= 1, got 0"),
        (DivisorBudget, (1,), "max_trial must be >= 2, got 1"),
        (RealArg, (Fraction(3, 2),), "evaluation point must be >= 2, got 3/2"),
    ],
    ids=["query-n", "query-k", "budget", "real-arg"],
)
def test_validation_messages(cls, args, message):
    with pytest.raises(DomainError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_keyword_construction_validates_too():
    assert PowerSumQuery(n=3, k=2) == PowerSumQuery(3, 2)
    assert DivisorBudget(max_trial=10).max_trial == 10
    with pytest.raises(DomainError):
        RealArg(m=1)


@pytest.mark.parametrize("m", [3, 3.5, "7/2", Fraction(9, 4)])
def test_real_arg_holds_a_fraction(m):
    arg = RealArg(m)
    assert type(arg.m) is Fraction and arg.m == Fraction(m)


def test_int_poly_trims_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly(coeffs=(0, 0)).coeffs == ()
    assert IntPoly([0, 0, 3, 0]).degree == 2
    assert IntPoly((2, 0, -9, 2))(Fraction(7, 2)) == Fraction(-45, 2)


def test_search_hits_sort_by_k_then_m():
    hits = [SearchHit(2, 1), SearchHit(1, 5), SearchHit(1, 3)]
    assert sorted(hits) == [SearchHit(1, 3), SearchHit(1, 5), SearchHit(2, 1)]
    assert repr(SearchHit(1, 3)) == "SearchHit(k=1, m=3)"
